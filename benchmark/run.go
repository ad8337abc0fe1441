package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// env is what every run of one invocation shares.
type env struct {
	Root      string // the checkout
	OutDir    string // build outputs and trace files, inside the checkout
	ServerBin string
	Placement placement
	// Warmup is discarded load before the measured window; SetupReps is how
	// many times the server is started to take the median set-up time.
	Warmup    time.Duration
	SetupReps int
	Log       io.Writer
}

// runResult is one workload measured once.
type runResult struct {
	Workload  workload
	Attempted int
	Failed    int
	// Problems lists every failed output check; the run is correct only
	// when it is empty.
	Problems []string
	// Invalid lists why the run may not be compared with others (pinning,
	// driver health); it says nothing about correctness.
	Invalid []string
	Values  map[string]float64
}

func (r *runResult) correct() bool { return len(r.Problems) == 0 }

// edge is the server observed from outside at one edge of the window.
type edge struct {
	Proc, Self procSample
	Metrics    map[string]float64
	ScrapedAt  time.Time
}

// takeEdge reads the server's and the driver's kernel accounting and
// scrapes /metricsz. At the opening edge the scrape comes first and at the
// closing edge last, so its cost to the server falls outside the window.
func takeEdge(sp *serverProc, scrapeFirst bool) (edge, error) {
	var e edge
	var err error
	doScrape := func() error {
		e.Metrics, err = scrape(sp.StatsAddr, "")
		e.ScrapedAt = time.Now()
		return err
	}
	if scrapeFirst {
		if err := doScrape(); err != nil {
			return e, err
		}
	}
	if e.Proc, err = readProc(sp.pid()); err != nil {
		return e, err
	}
	if e.Self, err = readProc(os.Getpid()); err != nil {
		return e, err
	}
	if !scrapeFirst {
		if err := doScrape(); err != nil {
			return e, err
		}
	}
	return e, nil
}

// subWindow is the length of the slices the measured window is cut into;
// the end-to-end figures are medians over them.
const subWindow = time.Second

// windowSamples are the once-a-second readings taken inside the window for
// the rows that need a maximum.
type windowSamples struct {
	Goroutines, RingDepth, HeapAlloc float64
}

func (s *windowSamples) take(statsAddr string) {
	if m, err := scrape(statsAddr, "go_"); err == nil {
		s.Goroutines = max(s.Goroutines, m["go_goroutines"])
		s.HeapAlloc = max(s.HeapAlloc, m["go_heap_alloc_bytes"])
	}
	// Reset-on-read high-watermark, also read by the server's own history
	// scraper: the maximum over these reads is a lower bound.
	if m, err := scrape(statsAddr, "vod_fanout_ring_depth_max"); err == nil {
		s.RingDepth = max(s.RingDepth, m["vod_fanout_ring_depth_max"])
	}
}

// liveRun is everything the live window left behind for the checks, the
// metrics and the replay.
type liveRun struct {
	Sched   []arrival
	Table   payloadTable
	Driver  *driver
	Start   time.Time // the schedule's time zero
	Pinned  bool
	Setups  []float64
	Open    edge // window edges
	Shut    edge
	Marks   []cpuMark // one per sub-window boundary, first and last at the edges
	Self    []cpuMark // the driver's own CPU time at the same boundaries
	Samples windowSamples
	Final   map[string]float64 // /metricsz after the drain
}

// runWorkload measures one workload once: set-up, warm-up, the measured
// window, drain, checks; then, when traced, the kernel calibration, the
// replay and the ledger.
func runWorkload(e *env, w workload, seed uint64, window time.Duration, traced bool, traceOut string) (*runResult, error) {
	res := &runResult{Workload: w, Values: make(map[string]float64)}
	sched := makeSchedule(w, seed, e.Warmup+window)
	fmt.Fprintf(e.Log, "== %s\n", w)
	fmt.Fprintf(e.Log, "   seed=%d schedule=%s sessions=%d warmup=%v window=%v open loop, host loopback (127.0.0.1)\n",
		seed, scheduleHash(sched), len(sched), e.Warmup, window)
	live, err := measureLive(e, w, sched, window)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	checkOutputs(e, res, live)
	liveMetrics(e, res, live)
	if traced {
		if traceOut == "" {
			traceOut = filepath.Join(e.OutDir, "trace-"+w.Name+".jsonl")
		}
		if err := runTrace(e, res, live, e.Warmup+window, traceOut); err != nil {
			return nil, fmt.Errorf("%s: traced replay: %w", w.Name, err)
		}
	}
	return res, nil
}

// measureLive starts the server, drives the schedule against it and reads
// the server from outside at the window's edges and sub-window boundaries.
// The server is stopped before it returns.
func measureLive(e *env, w workload, sched []arrival, window time.Duration) (*liveRun, error) {
	live := &liveRun{Sched: sched}
	pl := e.Placement

	// Set-up: exec -> first accepted connection, plus the driver's payload
	// table. Repeated, because one exec's timing is mostly page-cache luck.
	var sp *serverProc
	for k := 0; k < e.SetupReps; k++ {
		if sp != nil {
			sp.stop()
		}
		var ready time.Duration
		var err error
		if sp, ready, err = startServer(e.ServerBin, w, pl); err != nil {
			return nil, err
		}
		t0 := time.Now()
		live.Table = buildPayloadTable(w)
		live.Setups = append(live.Setups, (ready + time.Since(t0)).Seconds())
	}
	defer sp.stop()
	live.Pinned = sp.Pinned
	fmt.Fprintf(e.Log, "   server pid=%d GOMAXPROCS=%d cpus=%v driver cpus=%v pinned=%v %s\n",
		sp.pid(), pl.ServerProcs, pl.ServerCPUs, pl.DriverCPUs, sp.Pinned, pl.Note)

	live.Driver = newDriver(w, sp.Addr, sched, live.Table)
	live.Start = time.Now().Add(20 * time.Millisecond)
	var sampleErr error
	sampled := make(chan struct{})
	mark := func() {
		m, err := readCPUMark(sp.pid())
		self, selfErr := readCPUMark(os.Getpid())
		if err != nil || selfErr != nil {
			sampleErr = errors.Join(err, selfErr)
		}
		live.Marks, live.Self = append(live.Marks, m), append(live.Self, self)
	}
	go func() {
		defer close(sampled)
		opens, shuts := live.Start.Add(e.Warmup), live.Start.Add(e.Warmup+window)
		time.Sleep(time.Until(opens))
		if live.Open, sampleErr = takeEdge(sp, true); sampleErr != nil {
			return
		}
		mark()
		for next := opens.Add(subWindow); shuts.Sub(next) >= subWindow/2; next = next.Add(subWindow) {
			time.Sleep(time.Until(next))
			mark()
			live.Samples.take(sp.StatsAddr)
		}
		time.Sleep(time.Until(shuts))
		mark()
		if sampleErr == nil {
			live.Shut, sampleErr = takeEdge(sp, false)
		}
	}()
	live.Driver.run(live.Start)
	<-sampled
	if sampleErr != nil {
		return nil, fmt.Errorf("reading the server: %w", sampleErr)
	}
	// The server reads each session's report after the driver has sent it.
	time.Sleep(4*w.slot() + 50*time.Millisecond)
	var err error
	live.Final, err = scrape(sp.StatsAddr, "")
	return live, err
}

// checkOutputs decides whether the run's outputs are correct: every
// session, warm-up and drain included, must have verified, and the server's
// own counters must tell the same story.
func checkOutputs(e *env, res *runResult, live *liveRun) {
	w, d, final := res.Workload, live.Driver, live.Final
	res.Attempted = len(live.Sched)
	for i := range d.results {
		if err := d.results[i].Err; err != nil {
			if res.Failed++; res.Failed <= 3 {
				a := live.Sched[i]
				res.Problems = append(res.Problems, fmt.Sprintf("session %d (video %d from %d): %v", i, a.Video, a.From, err))
			}
		}
	}
	succeeded := res.Attempted - res.Failed
	check := func(ok bool, format string, args ...any) {
		if !ok {
			res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
		}
	}
	// The server is fresh, so its totals are this run's and need no margin
	// for sessions in flight at the window edges.
	check(final["vod_requests_total"] == float64(succeeded), "vod_requests_total=%v, %d sessions succeeded", final["vod_requests_total"], succeeded)
	check(final["vod_rejects_total"] == 0, "vod_rejects_total=%v", final["vod_rejects_total"])
	// The server gives a report one second after the stream ends; a host
	// stall longer than that loses reports without anything being wrong.
	reports := final["client_reports_total"]
	check(reports > 0 && reports <= float64(succeeded), "client_reports_total=%v, %d sessions succeeded", reports, succeeded)
	check(family(final, "vod_dropped_subscribers_total") == 0, "vod_dropped_subscribers_total=%v", family(final, "vod_dropped_subscribers_total"))
	check(family(final, "client_miss_total") == 0, "client_miss_total=%v", family(final, "client_miss_total"))
	if saturated, err := d.saturatedBandwidth(); err != nil {
		check(false, "bandwidth check: %v", err)
	} else {
		perVideoSlot := div(live.delta("vod_instances_total"), live.delta("station_clock_ticks_total")*float64(w.Videos))
		check(perVideoSlot <= saturated*1.15, "instances per video-slot %.3f exceeds DHBSaturated %.3f x 1.15", perVideoSlot, saturated)
	}
	fmt.Fprintf(e.Log, "   sessions_attempted=%d sessions_succeeded=%d sessions_failed=%d reports_received=%.0f\n", res.Attempted, succeeded, res.Failed, reports)
	for _, p := range res.Problems {
		fmt.Fprintf(e.Log, "   FAILED CHECK: %s\n", p)
	}
}

// delta is how far a metric family moved between the window's edges.
func (l *liveRun) delta(name string) float64 {
	return family(l.Shut.Metrics, name) - family(l.Open.Metrics, name)
}

// liveMetrics computes the end-to-end metrics and the live per-layer rows.
func liveMetrics(e *env, res *runResult, live *liveRun) {
	w, d, v := res.Workload, live.Driver, res.Values
	open, shut, marks := live.Open, live.Shut, live.Marks

	// Each headline figure is the median over the window's sub-windows, so a
	// few seconds of a noisy neighbour on the shared host move nothing. The
	// server's CPU time is gated as a ratio to the driver's over the same
	// sub-window: the driver's work per session is fixed by the workload, and
	// both processes feel the host's cache contention of the minute, which
	// moves the raw microseconds by 10 to 25 % and the ratio by 2 to 5 %.
	var admitRTT, firstByte, dial, genLate, gaps []float64
	var utilBySub, ratioBySub, admitBySub, firstByteBySub []float64
	for k := 0; k+1 < len(marks); k++ {
		from, to := marks[k], marks[k+1]
		utilBySub = append(utilBySub, float64(to.CPUNs-from.CPUNs)/float64(to.At.Sub(from.At)))
		ratioBySub = append(ratioBySub, div(float64(to.CPUNs-from.CPUNs), float64(live.Self[k+1].CPUNs-live.Self[k].CPUNs)))
		var admit, first []float64
		lo, hi := inWindow(live.Sched, from.At.Sub(live.Start), to.At.Sub(live.Start))
		for i := lo; i < hi; i++ {
			r := &d.results[i]
			genLate = append(genLate, r.GenLate.Seconds()*1e3)
			if r.Err != nil {
				continue
			}
			admit = append(admit, float64(r.AdmitRTT)/1e3)
			first = append(first, r.FirstByte.Seconds()*1e3)
			dial = append(dial, float64(r.Dial)/1e3)
			for _, g := range r.SlotGapsUs {
				gaps = append(gaps, float64(g)/1e3)
			}
		}
		admitBySub = append(admitBySub, percentile(admit, 0.5))
		firstByteBySub = append(firstByteBySub, percentile(first, 0.5))
		admitRTT, firstByte = append(admitRTT, admit...), append(firstByte, first...)
	}
	// n is the sessions due between the first and the last mark; the /proc
	// edges are read within a millisecond of those marks.
	n := float64(len(genLate))
	spanned := marks[len(marks)-1].At.Sub(marks[0].At).Seconds()
	// Whatever disturbs a set-up makes it longer, so the lower quartile of
	// the repetitions is steadier than their median (4.3-4.5 ms against
	// 4.4-5.6 ms over the same noisy minutes).
	v["setup_s"] = percentile(append([]float64(nil), live.Setups...), 0.25)
	v["vodserver.cpu_us_per_session"] = div(median(utilBySub)*spanned*1e6, n)
	v["first_byte_p50_ms"] = median(firstByteBySub)
	v["server_cpu_per_driver_cpu"] = median(ratioBySub)

	// Live per-layer rows.
	elapsed := shut.Proc.At.Sub(open.Proc.At).Seconds()
	scraped := shut.ScrapedAt.Sub(open.ScrapedAt).Seconds()
	stage := func(name, suffix string) float64 {
		key := `station_stage_seconds_` + suffix + `{stage="` + name + `"}`
		return shut.Metrics[key] - open.Metrics[key]
	}
	v["station.admit_us_mean"] = div(stage("admit", "sum"), stage("admit", "count")) * 1e6
	v["station.lock_wait_us_mean"] = div(stage("lock_wait", "sum"), stage("lock_wait", "count")) * 1e6
	v["station.clock_slip_ratio"] = 1 - div(live.delta("station_clock_ticks_total"), scraped/w.slot().Seconds())
	v["fanout.tick_us_mean"] = div(live.delta("vod_fanout_seconds_sum"), live.delta("vod_fanout_seconds_count")) * 1e6
	v["fanout.tick_busy_ratio"] = div(live.delta("vod_fanout_seconds_sum"), scraped)
	v["fanout.ring_depth_max"] = live.Samples.RingDepth
	v["fanout.dropped_subscribers"] = live.delta("vod_dropped_subscribers_total")
	v["vodserver.cpu_user_us_per_session"] = div(shut.Proc.UserUs-open.Proc.UserUs, n)
	v["vodserver.cpu_sys_us_per_session"] = div(shut.Proc.SysUs-open.Proc.SysUs, n)
	v["vodserver.write_syscalls_per_session"] = div(float64(shut.Proc.WriteOps-open.Proc.WriteOps), n)
	v["vodserver.read_syscalls_per_session"] = div(float64(shut.Proc.ReadCalls-open.Proc.ReadCalls), n)
	v["vodserver.ctx_switches_per_session"] = div(float64(shut.Proc.CtxSwitches-open.Proc.CtxSwitches), n)
	v["vodserver.rss_peak_mb"] = float64(shut.Proc.PeakRSSKB) / 1024
	v["vodserver.heap_alloc_mb"] = max(live.Samples.HeapAlloc, shut.Metrics["go_heap_alloc_bytes"]) / (1 << 20)
	v["vodserver.gc_cycles_per_s"] = div(live.delta("go_gc_cycles_total"), scraped)
	v["vodserver.goroutines_max"] = max(live.Samples.Goroutines, shut.Metrics["go_goroutines"])
	v["vodserver.egress_mb_per_s"] = div(float64(shut.Proc.WriteBytes-open.Proc.WriteBytes), elapsed) / 1e6
	v["vodserver.first_byte_server_ms_mean"] = div(live.delta("vod_admit_first_byte_seconds_sum"), live.delta("vod_admit_first_byte_seconds_count")) * 1e3
	driverUs := shut.Self.UserUs + shut.Self.SysUs - open.Self.UserUs - open.Self.SysUs
	v["driver.cpu_util"] = div(driverUs/1e6, elapsed)
	v["driver.gen_late_p50_ms"] = percentile(genLate, 0.5)
	v["driver.gen_late_p99_ms"] = percentile(genLate, 0.99)
	v["driver.inflight_max"] = float64(d.inflightMax)
	v["driver.dial_p50_us"] = percentile(dial, 0.5)
	v["driver.admit_rtt_p50_us"] = median(admitBySub)
	v["driver.admit_rtt_p99_us"] = percentile(admitRTT, 0.99)
	v["driver.first_byte_p99_ms"] = percentile(firstByte, 0.99)
	v["driver.slot_gap_p99_ms"] = percentile(gaps, 0.99)

	valid, reasons := health{
		Pinned: live.Pinned, DriverCPUUtil: v["driver.cpu_util"],
		GenLateP99Ms: v["driver.gen_late_p99_ms"], SlotMillis: w.SlotMillis,
	}.verdict()
	res.Invalid = reasons
	v["driver.run_valid"] = 0
	if valid {
		v["driver.run_valid"] = 1
	}

	fmt.Fprintf(e.Log, "   setup_s=%.4f server_cpu_per_driver_cpu=%.4f first_byte_p50_ms=%.3f\n",
		v["setup_s"], v["server_cpu_per_driver_cpu"], v["first_byte_p50_ms"])
	fmt.Fprintf(e.Log, "   set-ups (s): %.4f\n", live.Setups)
	fmt.Fprintf(e.Log, "   server: vodserver.cpu_us_per_session=%.2f (window mean: user %.2f sys %.2f; derived capacity %.0f sessions/s/core)\n",
		v["vodserver.cpu_us_per_session"], v["vodserver.cpu_user_us_per_session"], v["vodserver.cpu_sys_us_per_session"], div(1e6, v["vodserver.cpu_us_per_session"]))
	fmt.Fprintf(e.Log, "   server: %.2f writes %.2f reads per session, %.2f MB/s egress, tick %.1f us (busy %.3f), clock slip %.4f\n",
		v["vodserver.write_syscalls_per_session"], v["vodserver.read_syscalls_per_session"], v["vodserver.egress_mb_per_s"],
		v["fanout.tick_us_mean"], v["fanout.tick_busy_ratio"], v["station.clock_slip_ratio"])
	fmt.Fprintf(e.Log, "   driver: cpu_util=%.2f inflight_max=%d gen_late p50=%.3f p99=%.3f ms (n=%d) admit_rtt p50=%.0f p99=%.0f us (n=%d) first_byte p99=%.2f ms (n=%d) slot_gap p99=%.2f ms (n=%d)\n",
		v["driver.cpu_util"], d.inflightMax, v["driver.gen_late_p50_ms"], v["driver.gen_late_p99_ms"], len(genLate),
		v["driver.admit_rtt_p50_us"], v["driver.admit_rtt_p99_us"], len(admitRTT), v["driver.first_byte_p99_ms"], len(firstByte), v["driver.slot_gap_p99_ms"], len(gaps))
	fmt.Fprintf(e.Log, "   sub-windows (%v each): server cpu util %.3f, server/driver cpu %.3f, admit_rtt p50 us %.0f, first_byte p50 ms %.2f\n", subWindow, utilBySub, ratioBySub, admitBySub, firstByteBySub)
	if valid {
		fmt.Fprintf(e.Log, "   valid=true\n")
	} else {
		fmt.Fprintf(e.Log, "   valid=false, not comparable with other runs: %s\n", strings.Join(reasons, "; "))
	}
}

// runTrace fills in the kernel, replay and ledger rows of res, after the
// live window, with the server stopped and the host quiet.
func runTrace(e *env, res *runResult, live *liveRun, horizon time.Duration, traceOut string) error {
	w, v := res.Workload, res.Values
	writes := live.Shut.Proc.WriteOps - live.Open.Proc.WriteOps
	bytesPerWrite := int(div(float64(live.Shut.Proc.WriteBytes-live.Open.Proc.WriteBytes), float64(writes)))
	kernel, err := calibrateKernel(bytesPerWrite)
	if err != nil {
		return err
	}
	v["kernel.write_us"], v["kernel.read_us"], v["kernel.accept_close_us"] = kernel.WriteUs, kernel.ReadUs, kernel.AcceptCloseUs

	// The same schedule three times: spans off, on, off. The traced pass
	// yields the rows; its wall time over the faster untraced pass (the first
	// one also pays for growing the heap) is what tracing costs.
	shards := min(e.Placement.ServerProcs, w.Videos)
	rec := newRecorder()
	var stats replayStats
	untraced := time.Duration(math.MaxInt64)
	for _, r := range []*recorder{nil, rec, nil} {
		st, err := replay(w, live.Sched, live.Table, shards, e.Warmup, horizon, r)
		if err != nil {
			return err
		}
		if r != nil {
			stats = st
		} else {
			untraced = min(untraced, st.Wall)
		}
	}
	if err := writeSpansJSONL(traceOut, rec.spans); err != nil {
		return err
	}
	v["replay.trace_overhead_ratio"] = div(stats.Wall.Seconds(), untraced.Seconds())

	t := selfTimes(rec.spans)
	sessions := float64(stats.WindowSessions)
	v["wire.request_decode_ns"] = t[spanRequestDecode].perSpan()
	v["wire.schedinfo_encode_ns"] = t[spanInfoEncode].perSpan()
	v["wire.schedinfo_bytes"] = div(float64(t[spanInfoEncode].Bytes), sessions)
	v["wire.report_decode_ns"] = t[spanReportDecode].perSpan()
	v["wire.segment_decode_ns"] = t[spanSegmentDecode].perOp()
	v["station.admit_ns"] = t[spanAdmit].perSpan()
	v["station.instances_per_request"] = div(float64(stats.Placed), sessions)
	v["station.advance_ns_per_tick"] = t[spanAdvance].perSpan()
	v["station.advance_ns_per_video"] = t[spanAdvance].perOp()
	v["fanout.encode_ns_per_video_tick"] = t[spanEncode].perOp()
	v["fanout.encode_ns_per_kb"] = div(float64(t[spanEncode].SelfNs), float64(t[spanEncode].Bytes)/1024)
	v["fanout.push_ns_per_sub"] = t[spanPush].perOp()
	v["fanout.drain_ns_per_batch"] = t[spanDrain].perOp()
	v["fanout.subscribe_ns"] = t[spanSubscribe].perSpan()
	v["fanout.retire_ns"] = t[spanRetire].perOp()
	v["vodserver.schedinfo_build_ns"] = t[spanInfoBuild].perSpan()

	// The ledger: what the live server spent per session, beside what the
	// replayed layers and the calibrated kernel calls account for.
	fmt.Fprintf(e.Log, "   replay: %d sessions (%d in window, %d with the STB oracle), %d ticks, %d spans -> %s\n",
		stats.Sessions, stats.WindowSessions, stats.OracleSessions, stats.WindowTicks, len(rec.spans), traceOut)
	fmt.Fprintf(e.Log, "   replay: wall %v traced, %v untraced, replay.trace_overhead_ratio=%.3f\n", stats.Wall, untraced, v["replay.trace_overhead_ratio"])
	layers := 0.0
	for _, name := range serverLayers {
		us := div(float64(t[name].SelfNs)/1e3, sessions)
		layers += us
		fmt.Fprintf(e.Log, "   ledger %-9s %-26s %10.3f us/session  (%d spans, %d ops)\n", w.Name, name, us, t[name].Count, t[name].Ops)
	}
	writesPerSession, readsPerSession := v["vodserver.write_syscalls_per_session"], v["vodserver.read_syscalls_per_session"]
	kernelUs := writesPerSession*kernel.WriteUs + readsPerSession*kernel.ReadUs + kernel.AcceptCloseUs
	v["vodserver.layers_us_per_session"] = layers
	v["vodserver.kernel_us_per_session"] = kernelUs
	v["vodserver.unattributed_us_per_session"] = v["vodserver.cpu_us_per_session"] - layers - kernelUs
	fmt.Fprintf(e.Log, "   ledger %-9s kernel: %.2f writes x %.2f us + %.2f reads x %.2f us + accept/close %.2f us (%d B per write)\n",
		w.Name, writesPerSession, kernel.WriteUs, readsPerSession, kernel.ReadUs, kernel.AcceptCloseUs, bytesPerWrite)
	fmt.Fprintf(e.Log, "   ledger %-9s vodserver.cpu_us_per_session=%.2f = layers %.2f + kernel %.2f + vodserver.unattributed_us_per_session %.2f\n",
		w.Name, v["vodserver.cpu_us_per_session"], layers, kernelUs, v["vodserver.unattributed_us_per_session"])
	return nil
}

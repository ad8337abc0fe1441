// Package station is the concurrent multi-video broadcast engine: it owns
// one DHB scheduler per catalogue video and partitions them across worker
// shards so admissions for different videos proceed in parallel.
//
// The paper's introduction motivates a server distributing a whole catalogue
// under per-video demand; core.Scheduler deliberately has no concurrency
// story (one goroutine per scheduler), so catalogue-scale service is a
// sharding problem, exactly as Viennot et al. treat distributed VoD as a
// parallel-channel problem. The design:
//
//   - Sharding. Videos are assigned round-robin to S shards; each shard
//     guards its schedulers with its own mutex. Admissions for videos on
//     different shards never contend.
//   - One clock. A single optional clock goroutine fans AdvanceSlot ticks
//     out to every shard (in parallel) so all videos share the slot grid;
//     deterministic drivers call AdvanceSlot themselves instead.
//
// Within one slot, admissions for the same video are identical operations,
// so any interleaving of shard work yields the same per-video schedule as a
// sequential run with the same per-slot arrival counts; station_test.go
// proves this equivalence against K independent core schedulers.
package station

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vodcast/internal/core"
	"vodcast/internal/obs"
)

// Sentinel errors. Construction errors wrap these (and the core sentinels
// for per-video scheduler problems) with context; runtime errors from Admit
// are classifiable with errors.Is.
var (
	// ErrEmptyCatalogue reports a Config with no videos.
	ErrEmptyCatalogue = errors.New("station: empty catalogue")
	// ErrBadShards reports a negative Config.Shards.
	ErrBadShards = errors.New("station: shard count must be non-negative")
	// ErrBadSlotDuration reports a non-positive StartClock interval.
	ErrBadSlotDuration = errors.New("station: slot duration must be positive")
	// ErrUnknownVideo reports a video index outside the catalogue.
	ErrUnknownVideo = errors.New("station: unknown video")
	// ErrClosed reports an operation against a closed station.
	ErrClosed = errors.New("station: closed")
	// ErrClockRunning reports a second StartClock without a StopClock.
	ErrClockRunning = errors.New("station: clock already running")
)

// VideoConfig describes one catalogue video of a station.
type VideoConfig struct {
	// Name labels the video in reports and metrics ("" is allowed).
	Name string
	// Segments is the DHB segment count n.
	Segments int
	// Periods optionally carries a DHB-d period vector; nil selects the CBR
	// default T[i] = i.
	Periods []int
	// TrackSegments records which segment ids occupy each slot (needed when
	// slot reports feed a data plane, as in vodserver).
	TrackSegments bool
	// Observer optionally receives the video's scheduling decisions. It is
	// invoked under the owning shard's lock, from admitting goroutines and
	// the clock's, so it must be safe for use from multiple goroutines over
	// time (obs.SchedObserver over a Tracer is).
	Observer core.Observer
}

// Config parameterizes a station.
type Config struct {
	// Videos is the catalogue. Video indices in the station API are indices
	// into this slice.
	Videos []VideoConfig
	// Shards is the number of worker shards; 0 selects
	// min(GOMAXPROCS, len(Videos)).
	Shards int
	// Registry optionally receives the per-shard counters
	// (station_shard_admits_total, station_shard_rejects_total).
	Registry *obs.Registry
}

// stage is one instrumented pipeline stage: a histogram for scrape-horizon
// distributions and a rolling window for the live p50/p95/p99 that /statusz
// and vodtop render.
type stage struct {
	hist *obs.Histogram
	win  *obs.Window
}

func (s *stage) observe(v float64) {
	s.hist.Observe(v)
	s.win.Observe(v)
}

// Stage names of the admission pipeline, the keys of Status.Stages.
const (
	// StageLockWait is the time an admission waits for its shard's lock.
	StageLockWait = "lock_wait"
	// StageAdmit is the scheduler service time under the shard lock.
	StageAdmit = "admit"
)

// stageBuckets bound the stage histograms: admission stages complete in
// microseconds unloaded and the interesting tail is milliseconds, so the
// default 5ms-and-up latency buckets would flatten everything into one bin.
var stageBuckets = []float64{
	5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 5e-2, 0.25, 1,
}

// stationObs carries every instrument of an observed station; a nil
// *stationObs disables the whole layer for one predictable branch per hot
// path.
type stationObs struct {
	lockWait stage
	admit    stage

	clockLag   *obs.Gauge
	clockDrift *obs.Gauge
	clockTicks *obs.Counter
	clockWin   *obs.Window
}

// newStationObs registers the pipeline instruments on reg.
func newStationObs(reg *obs.Registry) *stationObs {
	o := &stationObs{}
	latency := func(name string, st *stage) {
		st.hist = reg.HistogramWith("station_stage_seconds",
			"Admission pipeline stage latencies.", stageBuckets, obs.Labels{"stage": name})
		st.win = obs.NewWindow(0)
	}
	latency(StageLockWait, &o.lockWait)
	latency(StageAdmit, &o.admit)
	o.clockLag = reg.Gauge("station_clock_tick_lag_seconds",
		"Lag of the most recent clock tick behind its scheduled time.")
	o.clockDrift = reg.Gauge("station_clock_slot_drift_slots",
		"Clock tick lag expressed in slot durations; >=1 means a whole slot slipped.")
	o.clockTicks = reg.Counter("station_clock_ticks_total",
		"Slot ticks fanned out by the clock goroutine.")
	o.clockWin = obs.NewWindow(0)
	return o
}

// stationVideo binds one catalogue video to its scheduler and shard.
type stationVideo struct {
	name  string
	sched *core.Scheduler
	shard int
}

// shard is one worker partition: a mutex and the videos it owns.
type shard struct {
	mu     sync.Mutex
	videos []int // station video indices owned by this shard
	// assign is the shard's reusable assignment scratch: Admit serves
	// WantAssignment from it (growing it on demand) when the caller supplies
	// no buffer of their own, keeping the traced admit path allocation-free
	// in steady state. Guarded by mu.
	assign []int

	// Per-shard observability (nil without a Registry).
	admits  *obs.Counter
	rejects *obs.Counter
}

// Station is a sharded multi-video DHB broadcast engine. All methods are
// safe for concurrent use.
type Station struct {
	videos []*stationVideo
	shards []*shard

	// obs is the pipeline instrumentation, nil when Config.Registry was
	// nil: every hot path pays exactly one branch for the disabled layer.
	obs *stationObs

	closed atomic.Bool

	clockMu   sync.Mutex
	clockStop chan struct{}
	clockWG   sync.WaitGroup

	// Clock health, readable without the clock mutex: tick count, the last
	// tick's lag behind schedule (nanoseconds) and the configured interval
	// (nanoseconds; 0 when no clock is running).
	clockTicks    atomic.Uint64
	clockLagNanos atomic.Int64
	clockInterval atomic.Int64
}

// New validates cfg and builds the station with every scheduler at slot 0.
func New(cfg Config) (*Station, error) {
	if len(cfg.Videos) == 0 {
		return nil, ErrEmptyCatalogue
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("%w: got %d", ErrBadShards, cfg.Shards)
	}
	shards := cfg.Shards
	if shards == 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > len(cfg.Videos) {
		shards = len(cfg.Videos)
	}
	st := &Station{
		videos: make([]*stationVideo, len(cfg.Videos)),
		shards: make([]*shard, shards),
	}
	if cfg.Registry != nil {
		st.obs = newStationObs(cfg.Registry)
	}
	for i := range st.shards {
		sh := &shard{}
		if cfg.Registry != nil {
			ls := obs.Labels{"shard": fmt.Sprint(i)}
			sh.admits = cfg.Registry.CounterWith("station_shard_admits_total",
				"Requests admitted through the shard.", ls)
			sh.rejects = cfg.Registry.CounterWith("station_shard_rejects_total",
				"Requests refused by the shard: invalid resume points.", ls)
		}
		st.shards[i] = sh
	}
	for i, vc := range cfg.Videos {
		sched, err := core.New(core.Config{
			Segments:      vc.Segments,
			Periods:       vc.Periods,
			TrackSegments: vc.TrackSegments,
			Observer:      vc.Observer,
		})
		if err != nil {
			return nil, fmt.Errorf("station: video %d (%q): %w", i, vc.Name, err)
		}
		shardIdx := i % shards
		st.videos[i] = &stationVideo{name: vc.Name, sched: sched, shard: shardIdx}
		sh := st.shards[shardIdx]
		sh.videos = append(sh.videos, i)
	}
	return st, nil
}

// Videos reports the catalogue size.
func (st *Station) Videos() int { return len(st.videos) }

// Shards reports the number of worker shards.
func (st *Station) Shards() int { return len(st.shards) }

// ShardOf reports which shard owns the video.
func (st *Station) ShardOf(video int) int { return st.videos[video].shard }

// Name reports the video's configured label.
func (st *Station) Name(video int) string { return st.videos[video].name }

// FanoutSpans partitions the catalogue's video index range [0, Videos())
// into at most n contiguous near-equal half-open spans — the work
// assignment hint for a parallel fan-out walking the clock's per-slot
// reports, which are indexed by video. Contiguity is what matters for the
// consumer: each span worker touches a dense range of the report slice and
// of the caller's parallel video array, never interleaving cache lines
// with its neighbours. Spans differ in length by at most one video; fewer
// than n spans come back when the catalogue is smaller than n.
func (st *Station) FanoutSpans(n int) [][2]int {
	videos := len(st.videos)
	if n > videos {
		n = videos
	}
	if n < 1 {
		n = 1
	}
	spans := make([][2]int, n)
	base, rem := videos/n, videos%n
	lo := 0
	for i := range spans {
		size := base
		if i < rem {
			size++
		}
		spans[i] = [2]int{lo, lo + size}
		lo += size
	}
	return spans
}

// Periods returns a copy of the video's resolved 1-based period vector
// (CBR defaults applied).
func (st *Station) Periods(video int) []int {
	sched := st.videos[video].sched
	periods := make([]int, sched.N()+1)
	for j := 1; j <= sched.N(); j++ {
		periods[j] = sched.Period(j)
	}
	return periods
}

// checkVideo validates a video index.
func (st *Station) checkVideo(video int) error {
	if video < 0 || video >= len(st.videos) {
		return fmt.Errorf("%w: index %d outside 0..%d", ErrUnknownVideo, video, len(st.videos)-1)
	}
	return nil
}

// Admit synchronously admits one request for the video under its shard's
// lock. Admissions for videos on different shards run in parallel.
//
// When opts.WantAssignment is set without a caller-supplied
// opts.Assignment buffer, the returned assignment aliases a per-shard
// scratch buffer that the shard's next assignment-carrying admission
// overwrites: callers that retain it must copy it out, or pass their own
// AdmitOptions.Assignment.
func (st *Station) Admit(video int, opts core.AdmitOptions) (core.AdmitResult, error) {
	if st.closed.Load() {
		return core.AdmitResult{}, ErrClosed
	}
	if err := st.checkVideo(video); err != nil {
		return core.AdmitResult{}, err
	}
	sh := st.shards[st.videos[video].shard]
	// The instrumented path brackets the lock acquisition and the
	// scheduler service with clock reads; the disabled path pays one nil
	// check and no clock.
	var t0 time.Time
	if st.obs != nil {
		t0 = time.Now()
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var tLocked time.Time
	if st.obs != nil {
		tLocked = time.Now()
		st.obs.lockWait.observe(tLocked.Sub(t0).Seconds())
	}
	useScratch := opts.WantAssignment && opts.Assignment == nil
	if useScratch {
		opts.Assignment = sh.assign
	}
	res, err := st.videos[video].sched.AdmitRequest(opts)
	if st.obs != nil {
		st.obs.admit.observe(time.Since(tLocked).Seconds())
	}
	if err != nil {
		if sh.rejects != nil {
			sh.rejects.Inc()
		}
		return core.AdmitResult{}, err
	}
	if useScratch {
		// Keep the (possibly grown) buffer for the shard's next admission.
		sh.assign = res.Assignment
	}
	if sh.admits != nil {
		sh.admits.Inc()
	}
	return res, nil
}

// AdvanceSlot finishes the current slot of every video and returns the
// retired slot reports, indexed by video. Shards advance in parallel. The
// returned slice is owned by the caller; steady-state drivers reuse one via
// AdvanceSlotInto.
func (st *Station) AdvanceSlot() []core.SlotReport {
	return st.AdvanceSlotInto(nil)
}

// AdvanceSlotInto is AdvanceSlot writing the reports into dst (grown when
// its capacity is below the catalogue size) so a steady-state driver — the
// clock goroutine reuses one buffer across ticks — retires slots without a
// per-tick allocation. Every entry is overwritten. It returns dst resliced
// to the catalogue size.
func (st *Station) AdvanceSlotInto(dst []core.SlotReport) []core.SlotReport {
	if cap(dst) < len(st.videos) {
		dst = make([]core.SlotReport, len(st.videos))
	}
	dst = dst[:len(st.videos)]
	if len(st.shards) == 1 {
		st.advanceShard(0, dst)
		return dst
	}
	// The parallel fan-out lives in a helper so its goroutine closures
	// never capture dst: a captured-and-reassigned slice header would be
	// forced onto the heap, costing the single-shard fast path above one
	// allocation per tick.
	st.advanceParallel(dst)
	return dst
}

// advanceParallel advances every shard concurrently.
func (st *Station) advanceParallel(reports []core.SlotReport) {
	var wg sync.WaitGroup
	for i := range st.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// The pprof label makes shard workers attributable in CPU
			// profiles: /debug/pprof/profile breaks slot-advance time down
			// by station_shard.
			pprof.Do(context.Background(), pprof.Labels("station_shard", strconv.Itoa(i)),
				func(context.Context) { st.advanceShard(i, reports) })
		}(i)
	}
	wg.Wait()
}

// advanceShard advances one shard. Shards own disjoint video
// index sets, so concurrent writes into reports never alias.
func (st *Station) advanceShard(i int, reports []core.SlotReport) {
	sh := st.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, v := range sh.videos {
		reports[v] = st.videos[v].sched.AdvanceSlot()
	}
}

// CurrentSlot reports the video's current transmission slot.
func (st *Station) CurrentSlot(video int) int {
	sh := st.shards[st.videos[video].shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return st.videos[video].sched.CurrentSlot()
}

// NextLoads fills dst (grown as needed) with each video's scheduled
// instance count for its next transmission slot — the quantity admission
// control gates on — taking each shard's lock once. It returns dst.
func (st *Station) NextLoads(dst []int) []int {
	if cap(dst) < len(st.videos) {
		dst = make([]int, len(st.videos))
	}
	dst = dst[:len(st.videos)]
	for _, sh := range st.shards {
		sh.mu.Lock()
		for _, v := range sh.videos {
			sched := st.videos[v].sched
			dst[v] = sched.LoadAt(sched.CurrentSlot() + 1)
		}
		sh.mu.Unlock()
	}
	return dst
}

// VideoTotals reports the video's admitted request and scheduled instance
// counts.
func (st *Station) VideoTotals(video int) (requests, instances int64) {
	sh := st.shards[st.videos[video].shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sched := st.videos[video].sched
	return sched.Requests(), sched.Instances()
}

// Totals reports the station-wide admitted request and scheduled instance
// counts.
func (st *Station) Totals() (requests, instances int64) {
	for _, sh := range st.shards {
		sh.mu.Lock()
		for _, v := range sh.videos {
			sched := st.videos[v].sched
			requests += sched.Requests()
			instances += sched.Instances()
		}
		sh.mu.Unlock()
	}
	return requests, instances
}

// StartClock launches the single clock goroutine: every interval it fans an
// AdvanceSlot tick out to all shards and, when onTick is non-nil, hands the
// slot reports to onTick (on the clock goroutine; onTick must not call
// StopClock or Close). The reports slice is borrowed for the duration of
// the callback — the clock reuses its backing array on the next tick — so
// an onTick that retains reports must copy them.
func (st *Station) StartClock(interval time.Duration, onTick func([]core.SlotReport)) error {
	if interval <= 0 {
		return fmt.Errorf("%w: got %v", ErrBadSlotDuration, interval)
	}
	if st.closed.Load() {
		return ErrClosed
	}
	st.clockMu.Lock()
	defer st.clockMu.Unlock()
	if st.clockStop != nil {
		return ErrClockRunning
	}
	stop := make(chan struct{})
	st.clockStop = stop
	st.clockInterval.Store(int64(interval))
	st.clockWG.Add(1)
	go func() {
		defer st.clockWG.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		start := time.Now()
		ticks := uint64(0)
		// One report buffer serves every tick: onTick runs synchronously on
		// this goroutine, so the slice is never reused while borrowed.
		var reports []core.SlotReport
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				// Tick-lag: how far behind its scheduled instant this tick
				// fired. time.Ticker drops ticks under load, so lag past a
				// whole interval means the slot grid itself is drifting —
				// the drift gauge expresses the same lag in slot units.
				ticks++
				lag := time.Since(start) - time.Duration(ticks)*interval
				if lag < 0 {
					lag = 0
				}
				st.clockTicks.Store(ticks)
				st.clockLagNanos.Store(int64(lag))
				if st.obs != nil {
					lagSec := lag.Seconds()
					st.obs.clockTicks.Inc()
					st.obs.clockLag.Set(lagSec)
					st.obs.clockDrift.Set(lagSec / interval.Seconds())
					st.obs.clockWin.Observe(lagSec)
				}
				reports = st.AdvanceSlotInto(reports)
				if onTick != nil {
					onTick(reports)
				}
			}
		}
	}()
	return nil
}

// StopClock stops the clock goroutine and waits for it to exit (including
// any in-flight onTick). It is a no-op when no clock is running.
func (st *Station) StopClock() {
	st.clockMu.Lock()
	stop := st.clockStop
	st.clockStop = nil
	st.clockMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	st.clockWG.Wait()
	st.clockInterval.Store(0)
}

// ShardStatus is one row of the /statusz (and vodtop) shard table.
type ShardStatus struct {
	// Shard is the worker index; Videos the catalogue entries it owns.
	Shard  int `json:"shard"`
	Videos int `json:"videos"`
	// Admits and Rejects mirror the shard's registry counters (zero when
	// the station is uninstrumented).
	Admits  float64 `json:"admits"`
	Rejects float64 `json:"rejects"`
}

// ClockStatus describes the clock goroutine's health.
type ClockStatus struct {
	// Running reports an active clock; IntervalSeconds its slot duration.
	Running         bool    `json:"running"`
	IntervalSeconds float64 `json:"interval_seconds"`
	// Ticks counts fanned-out slot ticks; LagSeconds is the last tick's
	// lag behind schedule and DriftSlots the same lag in slot units.
	Ticks      uint64  `json:"ticks"`
	LagSeconds float64 `json:"lag_seconds"`
	DriftSlots float64 `json:"drift_slots"`
	// Lag is the rolling window over recent tick lags (zero when the
	// station is uninstrumented).
	Lag obs.WindowSnapshot `json:"lag"`
}

// VideoStatus is one catalogue row of the operator snapshot: which shard
// owns the video, how far its schedule has advanced, and its admission
// totals. The QoE pipeline joins client_miss_total{video} against these rows
// by name.
type VideoStatus struct {
	// Video is the station catalogue index; Name the configured name (the
	// wire-facing video ID for vodserver catalogues).
	Video int    `json:"video"`
	Name  string `json:"name"`
	Shard int    `json:"shard"`
	// Slot is the video's current schedule slot; Requests and Instances are
	// its lifetime admission and transmission totals.
	Slot      int   `json:"slot"`
	Requests  int64 `json:"requests"`
	Instances int64 `json:"instances"`
}

// Status is one consistent snapshot of the station for operators: the shard
// table, the per-video rows, the per-stage rolling latency windows, and
// clock health.
type Status struct {
	Videos int           `json:"videos"`
	Shards []ShardStatus `json:"shards"`
	// PerVideo lists every catalogue video; rows are in catalogue order.
	PerVideo []VideoStatus `json:"per_video"`
	// Stages maps the Stage* names to their rolling windows, in seconds
	// (empty when the station is uninstrumented).
	Stages map[string]obs.WindowSnapshot `json:"stages,omitempty"`
	Clock  ClockStatus                   `json:"clock"`
	// Requests and Instances are the station-wide admission totals.
	Requests  int64 `json:"requests"`
	Instances int64 `json:"instances"`
}

// Status assembles the operator snapshot behind /statusz. It takes each
// shard lock once (like Totals) and never blocks the clock beyond one shard
// advance.
func (st *Station) Status() Status {
	s := Status{
		Videos:   len(st.videos),
		Shards:   make([]ShardStatus, len(st.shards)),
		PerVideo: make([]VideoStatus, len(st.videos)),
	}
	for i, sh := range st.shards {
		row := ShardStatus{Shard: i, Videos: len(sh.videos)}
		sh.mu.Lock()
		for _, v := range sh.videos {
			sv := st.videos[v]
			s.Requests += sv.sched.Requests()
			s.Instances += sv.sched.Instances()
			s.PerVideo[v] = VideoStatus{
				Video: v, Name: sv.name, Shard: i,
				Slot:      sv.sched.CurrentSlot(),
				Requests:  sv.sched.Requests(),
				Instances: sv.sched.Instances(),
			}
		}
		sh.mu.Unlock()
		if sh.admits != nil {
			row.Admits = sh.admits.Value()
			row.Rejects = sh.rejects.Value()
		}
		s.Shards[i] = row
	}
	interval := time.Duration(st.clockInterval.Load())
	s.Clock = ClockStatus{
		Running:         interval > 0,
		IntervalSeconds: interval.Seconds(),
		Ticks:           st.clockTicks.Load(),
		LagSeconds:      time.Duration(st.clockLagNanos.Load()).Seconds(),
	}
	if interval > 0 && s.Clock.LagSeconds > 0 {
		s.Clock.DriftSlots = s.Clock.LagSeconds / interval.Seconds()
	}
	if st.obs != nil {
		s.Stages = map[string]obs.WindowSnapshot{
			StageLockWait: st.obs.lockWait.win.Snapshot(),
			StageAdmit:    st.obs.admit.win.Snapshot(),
		}
		s.Clock.Lag = st.obs.clockWin.Snapshot()
	}
	return s
}

// Close stops the clock and marks the station closed: subsequent Admit
// calls fail with ErrClosed. It is safe to call more than once.
func (st *Station) Close() {
	st.closed.Store(true)
	st.StopClock()
}

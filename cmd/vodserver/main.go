// Command vodserver runs the networked DHB video server: it admits customer
// requests over TCP, schedules segment transmissions with the DHB protocol
// in real time and broadcasts deterministic segment payloads to every
// subscriber.
//
// Usage:
//
//	vodserver -addr 127.0.0.1:4800 -videos 3 -segments 99 -slot-ms 500
//
// then point cmd/vodclient at it. The server prints its statistics once a
// second and exits cleanly on interrupt.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vodcast/internal/vodserver"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:4800", "TCP listen address")
		videos        = flag.Int("videos", 1, "number of videos in the catalogue (ids 1..n)")
		segments      = flag.Int("segments", 99, "segments per video")
		slotMillis    = flag.Int("slot-ms", 500, "slot duration in milliseconds")
		segmentBytes  = flag.Int("segment-bytes", 4096, "payload bytes per segment")
		shards        = flag.Int("shards", 0, "how many contiguous catalogue spans the broadcast tick is split over, one pool goroutine each (0 = one per CPU capped at the catalogue size, 1 = a serial tick on the clock goroutine)")
		statsAddr     = flag.String("stats-addr", "", "optional HTTP monitoring address serving /statusz, /healthz, /metricsz, /spanz and /debug/pprof")
		spanPath      = flag.String("span-trace", "", "optional JSONL file capturing sampled admission pipeline spans")
		spanSample    = flag.Int("span-sample", 0, "keep 1 in N admission span trees (0 = default, 1 = everything)")
		sloMillis     = flag.Float64("slo-ms", 0, "admit-to-first-byte SLO threshold in milliseconds (0 = two slot durations)")
		sloObjective  = flag.Float64("slo-objective", 0, "fraction of admissions that must meet the SLO threshold (0 = 0.99)")
		alertInterval = flag.Duration("alert-interval", 0, "alert rule evaluation interval (0 = 1s)")
		alertFor      = flag.Duration("alert-for", 0, "how long a breach must hold before a rule fires (0 = fire immediately)")
		missThreshold = flag.Float64("miss-threshold", 0, "windowed mean deadline misses per client report that fires the miss alert (0 = 0.5)")
		reportStale   = flag.Duration("report-stale", 0, "fire a staleness alert when no client report arrives for this long (0 = disabled)")
		historyEvery  = flag.Duration("history-interval", 0, "metric history scrape interval (0 = 1s)")
		noHistory     = flag.Bool("no-history", false, "disable the in-process metric history (and /queryz)")
		historyBytes  = flag.Int("history-max-bytes", 0, "metric history memory cap in bytes (0 = 8 MiB)")
		flightDir     = flag.String("flight-dir", "", "directory for flight-recorder diagnostic bundles (empty = disabled)")
		flightCool    = flag.Duration("flight-cooldown", 0, "minimum gap between alert-triggered bundles (0 = 5m)")
		flightKeep    = flag.Int("flight-keep", 0, "diagnostic bundles retained before pruning the oldest (0 = 8)")
		noConntrack   = flag.Bool("no-conntrack", false, "disable per-subscriber transport telemetry (and /connz)")
		connEvery     = flag.Duration("conntrack-interval", 0, "transport telemetry sampling interval (0 = 1s)")
		connStalled   = flag.Float64("conn-stalled-ratio", 0, "fraction of tracked connections classified stalled that fires the stall alert (0 = 0.5)")
	)
	flag.Parse()
	opts := serveOpts{
		addr: *addr, statsAddr: *statsAddr, spanPath: *spanPath,
		videos: *videos, segments: *segments, slotMillis: *slotMillis,
		segmentBytes: *segmentBytes, shards: *shards, spanSample: *spanSample,
		sloMillis: *sloMillis, sloObjective: *sloObjective,
		alertInterval: *alertInterval, alertFor: *alertFor,
		missThreshold: *missThreshold, reportStale: *reportStale,
		historyEvery: *historyEvery, noHistory: *noHistory, historyBytes: *historyBytes,
		flightDir: *flightDir, flightCool: *flightCool, flightKeep: *flightKeep,
		noConntrack: *noConntrack, connEvery: *connEvery, connStalled: *connStalled,
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "vodserver:", err)
		os.Exit(1)
	}
}

// serveOpts carries the parsed flag set.
type serveOpts struct {
	addr, statsAddr, spanPath                  string
	videos, segments, slotMillis, segmentBytes int
	shards, spanSample                         int
	sloMillis, sloObjective                    float64
	alertInterval, alertFor, reportStale       time.Duration
	missThreshold                              float64
	historyEvery                               time.Duration
	noHistory                                  bool
	historyBytes                               int
	flightDir                                  string
	flightCool                                 time.Duration
	flightKeep                                 int
	noConntrack                                bool
	connEvery                                  time.Duration
	connStalled                                float64
}

func run(o serveOpts) error {
	if o.videos <= 0 {
		return fmt.Errorf("video count %d must be positive", o.videos)
	}
	catalogue := make([]vodserver.VideoConfig, o.videos)
	for i := range catalogue {
		catalogue[i] = vodserver.VideoConfig{
			ID:           uint32(i + 1),
			Segments:     o.segments,
			SegmentBytes: o.segmentBytes,
		}
	}
	cfg := vodserver.Config{
		Addr:              o.addr,
		Videos:            catalogue,
		SlotDuration:      time.Duration(o.slotMillis) * time.Millisecond,
		Shards:            o.shards,
		StatsAddr:         o.statsAddr,
		SpanSampleEvery:   o.spanSample,
		SLOTargetSeconds:  o.sloMillis / 1000,
		SLOObjective:      o.sloObjective,
		AlertInterval:     o.alertInterval,
		AlertFor:          o.alertFor,
		MissRateThreshold: o.missThreshold,
		ReportStaleAfter:  o.reportStale,
		HistoryInterval:   o.historyEvery,
		HistoryDisabled:   o.noHistory,
		HistoryMaxBytes:   o.historyBytes,
		FlightDir:         o.flightDir,
		FlightCooldown:    o.flightCool,
		FlightKeep:        o.flightKeep,
		ConntrackDisabled: o.noConntrack,
		ConntrackInterval: o.connEvery,
		ConnStalledRatio:  o.connStalled,
	}
	if o.spanPath != "" {
		spanFile, err := os.Create(o.spanPath)
		if err != nil {
			return fmt.Errorf("span trace file: %w", err)
		}
		defer spanFile.Close()
		cfg.SpanWriter = spanFile
	}
	srv, err := vodserver.Start(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("vodserver listening on %s (%d videos, %d segments, %d ms slots, %d tick spans)\n",
		srv.Addr(), o.videos, o.segments, o.slotMillis, srv.Station().Shards())
	if srv.StatsAddr() != "" {
		fmt.Printf("introspection on http://%s/{statusz,healthz,metricsz,spanz,alertz,queryz,connz,debug/pprof}\n", srv.StatsAddr())
		fmt.Printf("live dashboard: go run ./cmd/vodtop -addr %s\n", srv.StatsAddr())
	}
	if o.flightDir != "" {
		fmt.Printf("flight recorder writing diagnostic bundles to %s (SIGQUIT or GET /debug/flightrecord forces one)\n", o.flightDir)
	}
	if o.spanPath != "" {
		fmt.Printf("tracing pipeline spans to %s\n", o.spanPath)
	}

	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt)
	// SIGQUIT is the operator's "dump everything now": capture a diagnostic
	// bundle instead of dying with a stack dump. Go's runtime handler is
	// replaced for the process; interrupt still exits cleanly.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-interrupt:
			fmt.Println("\nshutting down")
			return nil
		case <-quit:
			if dir, err := srv.FlightRecord("sigquit"); err != nil {
				fmt.Fprintln(os.Stderr, "flight record:", err)
			} else {
				fmt.Println("flight record:", dir)
			}
		case <-ticker.C:
			st := srv.Stats()
			fmt.Printf("requests=%d instances=%d broadcastMB=%.1f subscribers=%d dropped=%d\n",
				st.Requests, st.Instances, float64(st.BroadcastBytes)/1e6,
				st.ActiveSubscribers, st.Dropped)
		}
	}
}

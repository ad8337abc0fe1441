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
// second and exits cleanly on SIGINT or SIGTERM.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vodcast/internal/vodserver"
)

func main() {
	cfg, spanPath, err := parseFlags(os.Args[1:])
	if err == nil {
		err = run(cfg, spanPath)
	}
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "vodserver:", err)
		os.Exit(1)
	}
}

// parseFlags binds the flag set straight into the server's Config; the span
// trace path is returned beside it because run owns the file.
func parseFlags(args []string) (vodserver.Config, string, error) {
	var cfg vodserver.Config
	var spanPath string
	fs := flag.NewFlagSet("vodserver", flag.ContinueOnError)
	fs.StringVar(&cfg.Addr, "addr", "127.0.0.1:4800", "TCP listen address")
	videos := fs.Int("videos", 1, "number of videos in the catalogue (ids 1..n)")
	segments := fs.Int("segments", 99, "segments per video")
	slotMillis := fs.Int("slot-ms", 500, "slot duration in milliseconds")
	segmentBytes := fs.Int("segment-bytes", 4096, "payload bytes per segment")
	fs.StringVar(&cfg.StatsAddr, "stats-addr", "", "optional HTTP monitoring address serving /statusz, /metricsz, /connz, /queryz, /debug/flightrecord and /debug/pprof")
	fs.StringVar(&spanPath, "span-trace", "", "optional JSONL file capturing sampled admission pipeline spans")
	fs.IntVar(&cfg.SpanSampleEvery, "span-sample", 0, "keep 1 in N admission span trees (0 = default, 1 = everything)")
	fs.DurationVar(&cfg.AlertFor, "alert-for", 0, "how long a breach must hold before a rule fires (0 = fire immediately)")
	fs.DurationVar(&cfg.ReportStaleAfter, "report-stale", 0, "fire a staleness alert when no client report arrives for this long (0 = disabled)")
	fs.StringVar(&cfg.FlightDir, "flight-dir", "", "directory for flight-recorder diagnostic bundles (empty = disabled)")
	if err := fs.Parse(args); err != nil {
		return vodserver.Config{}, "", err
	}
	if *videos <= 0 {
		return vodserver.Config{}, "", fmt.Errorf("video count %d must be positive", *videos)
	}
	cfg.Videos = make([]vodserver.VideoConfig, *videos)
	for i := range cfg.Videos {
		cfg.Videos[i] = vodserver.VideoConfig{ID: uint32(i + 1), Segments: *segments, SegmentBytes: *segmentBytes}
	}
	cfg.SlotDuration = time.Duration(*slotMillis) * time.Millisecond
	return cfg, spanPath, nil
}

// firstErrWriter passes writes through to w and keeps the first error one
// returns. The span tracer stops writing after a failed write, so that error
// is the only sign the trace is short.
type firstErrWriter struct {
	w   io.Writer
	err error
}

func (f *firstErrWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	if f.err == nil {
		f.err = err
	}
	return n, err
}

// run serves cfg until SIGINT or SIGTERM. A span trace that could not be
// written or closed makes it return an error once the server has closed.
func run(cfg vodserver.Config, spanPath string) (runErr error) {
	if spanPath != "" {
		spanFile, err := os.Create(spanPath)
		if err != nil {
			return fmt.Errorf("span trace file: %w", err)
		}
		sink := &firstErrWriter{w: spanFile}
		cfg.SpanWriter = sink
		// Deferred before srv.Close, so this runs after Close has joined
		// every goroutine that writes spans.
		defer func() {
			err := sink.err
			if cerr := spanFile.Close(); err == nil {
				err = cerr
			}
			if err != nil && runErr == nil {
				runErr = fmt.Errorf("span trace %s: %w", spanPath, err)
			}
		}()
	}
	srv, err := vodserver.Start(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("vodserver listening on %s (%d videos, %d segments, %d ms slots, %d tick spans)\n",
		srv.Addr(), len(cfg.Videos), cfg.Videos[0].Segments, cfg.SlotDuration.Milliseconds(), srv.Station().Shards())
	if srv.StatsAddr() != "" {
		fmt.Printf("introspection on http://%s/{statusz,metricsz,connz,queryz,debug/flightrecord,debug/pprof}\n", srv.StatsAddr())
		fmt.Printf("live dashboard: go run ./cmd/vodtop -addr %s\n", srv.StatsAddr())
	}
	if cfg.FlightDir != "" {
		fmt.Printf("flight recorder writing diagnostic bundles to %s (SIGQUIT or GET /debug/flightrecord forces one)\n", cfg.FlightDir)
	}
	if spanPath != "" {
		fmt.Printf("tracing pipeline spans to %s\n", spanPath)
	}

	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt, syscall.SIGTERM)
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

package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"testing"
	"time"

	"vodcast/internal/conntrack"
	"vodcast/internal/obs"
	"vodcast/internal/obs/history"
	"vodcast/internal/station"
	"vodcast/internal/vodclient"
	"vodcast/internal/vodserver"
)

// TestRenderFrame drives render with a synthetic snapshot and checks every
// dashboard section appears with the right units.
func TestRenderFrame(t *testing.T) {
	snap := vodserver.StatusSnapshot{
		UptimeSeconds: 12.5,
		Stats:         vodserver.Stats{Requests: 42, Instances: 7, BroadcastBytes: 3_500_000, ActiveSubscribers: 3, Dropped: 1},
		Station: station.Status{
			Videos: 2,
			Active: 1,
			Stages: map[string]obs.WindowSnapshot{
				"lock_wait": {Count: 42, P50: 0.000004, P95: 0.00002, P99: 0.00005, Max: 0.0001},
				"admit":     {Count: 42, P50: 0.0012, P95: 0.004, P99: 0.009, Max: 0.02},
			},
			Clock: station.ClockStatus{
				Running: true, IntervalSeconds: 0.5, Ticks: 25,
				Lag: obs.WindowSnapshot{Count: 25, Total: 25, P50: 0.0004, P99: 0.0015, Max: 0.002},
			},
		},
		FirstByte: obs.WindowSnapshot{
			Count: 42, P50: 0.003, P95: 0.008, P99: 0.012, Max: 0.02,
			SLOThreshold: 0.01, SLOObjective: 0.99, Good: 40, Bad: 2, BurnRate: 4.76,
		},
		Fanout: obs.WindowSnapshot{Count: 25, P50: 0.0001, P95: 0.0004, P99: 0.0006, Max: 0.001},
		Spans:  obs.SpanStats{Roots: 42, Sampled: 6, Finished: 18, SampleEvery: 8},
		QoE: vodserver.QoESnapshot{
			Reports:  9,
			Startup:  obs.WindowSnapshot{Count: 9, P50: 2, P95: 5},
			Slack:    obs.WindowSnapshot{Count: 9, Mean: 3.5},
			MissRate: obs.WindowSnapshot{Count: 9, Mean: 0.25},
		},
		Alerts: []obs.AlertStatus{
			{Name: "client_deadline_miss_rate", Severity: "critical", State: obs.StateFiring,
				Value: 0.75, Op: ">", Threshold: 0.5, Fired: 2},
			{Name: "client_reports_stale", Severity: "warning", State: obs.StateInactive,
				Value: math.NaN(), Op: "stale", Threshold: 30},
		},
	}
	snap.Station.PerVideo = []station.VideoStatus{
		{Video: 0, Name: "trailer", Slot: 7, Requests: 30, Instances: 19},
		{Video: 1, Name: "feature", Slot: 7, Requests: 12, Instances: 11},
	}
	var b strings.Builder
	render(&b, "127.0.0.1:4900", snap)
	out := b.String()
	for _, want := range []string{
		"vodtop — 127.0.0.1:4900",
		"requests=42 instances=7 broadcast=3.5MB subscribers=3 dropped=1",
		"clock: running  slot=500.00ms  ticks=25  active=1/2 videos  lag p50=400µs p99=1.50ms max=2.00ms",
		"spans: 42 roots, 6 sampled (1 in 8), 18 finished",
		"target<=10.00ms @ 99.0%",
		"good=40 bad=2  burn=4.76",
		"lock_wait", "admit", "fanout", "first_byte",
		"VIDEO  NAME     SLOT  REQUESTS  INSTANCES",
		"0      trailer  7     30        19",
		"QoE  : reports=9  startup p50=2 p95=5 slots  slack mean=3.5 slots  miss/report mean=0.25",
		"feature",
		"ALERT", "SEVERITY",
		"client_deadline_miss_rate", "critical", "FIRING", "> 0.5",
		"client_reports_stale", "inactive", "stale 30",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("frame missing %q:\n%s", want, out)
		}
	}
	// The sub-millisecond stage renders in microseconds.
	if !strings.Contains(out, "4µs") {
		t.Fatalf("lock_wait not rendered in µs:\n%s", out)
	}
	// The no-data staleness value renders as a dash, not NaN.
	if strings.Contains(out, "NaN") {
		t.Fatalf("alert pane leaked NaN:\n%s", out)
	}
}

// TestOnceFiringExitPath: run's firing result — the source of the -once exit
// code — follows the alert table served by the endpoint, and an empty table
// stays quiet.
func TestOnceFiringExitPath(t *testing.T) {
	serve := func(snap vodserver.StatusSnapshot) (addr string, done func()) {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/statusz" {
				http.NotFound(w, r)
				return
			}
			json.NewEncoder(w).Encode(snap)
		}))
		return strings.TrimPrefix(srv.URL, "http://"), srv.Close
	}

	quiet := vodserver.StatusSnapshot{Alerts: []obs.AlertStatus{
		{Name: "client_deadline_miss_rate", State: obs.StatePending, Value: 0.75, Op: ">", Threshold: 0.5},
	}}
	addr, done := serve(quiet)
	var b strings.Builder
	firing, err := run(&b, addr, time.Second, true)
	done()
	if err != nil || firing {
		t.Fatalf("pending-only frame: firing=%v err=%v", firing, err)
	}

	hot := vodserver.StatusSnapshot{Alerts: []obs.AlertStatus{
		{Name: "first_byte_slo_burn", State: obs.StateResolved},
		{Name: "client_deadline_miss_rate", Severity: "critical", State: obs.StateFiring,
			Value: 2, Op: ">", Threshold: 0.5, Fired: 1},
	}}
	addr, done = serve(hot)
	b.Reset()
	firing, err = run(&b, addr, time.Second, true)
	done()
	if err != nil || !firing {
		t.Fatalf("firing frame: firing=%v err=%v", firing, err)
	}
	// The frame the probe rendered shows why it will exit non-zero.
	if !strings.Contains(b.String(), "FIRING") {
		t.Fatalf("firing frame missing alert pane:\n%s", b.String())
	}
}

// TestSparkline pins the sparkline contract: scaling to the window's own
// range, max-preserving downsampling, flat and empty series.
func TestSparkline(t *testing.T) {
	if got := sparkline(nil, 10); got != "" {
		t.Fatalf("empty series rendered %q", got)
	}
	if got := sparkline([]float64{1, 2}, 0); got != "" {
		t.Fatalf("zero width rendered %q", got)
	}
	// A monotone ramp uses the full block range, lowest to highest.
	got := sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if got != "▁▂▃▄▅▆▇█" {
		t.Fatalf("ramp = %q", got)
	}
	// A flat series renders at the lowest block, not mid-scale noise.
	if got := sparkline([]float64{5, 5, 5}, 8); got != "▁▁▁" {
		t.Fatalf("flat = %q", got)
	}
	// Downsampling keeps the bucket max: the single spike at index 5 of 12
	// must survive into the 4-cell line.
	vs := make([]float64, 12)
	vs[5] = 9
	got = sparkline(vs, 4)
	if len([]rune(got)) != 4 || !strings.Contains(got, "█") {
		t.Fatalf("downsampled spike lost: %q", got)
	}
}

// TestCounterRate: cumulative counters become per-second rates; resets and
// bad timestamps clamp to zero.
func TestCounterRate(t *testing.T) {
	if got := counterRate([]history.Point{{Unix: 1, Value: 5}}); got != nil {
		t.Fatalf("single point produced rates %v", got)
	}
	pts := []history.Point{
		{Unix: 10, Value: 100},
		{Unix: 11, Value: 130}, // +30 over 1s
		{Unix: 13, Value: 140}, // +10 over 2s
		{Unix: 14, Value: 20},  // counter reset
		{Unix: 14, Value: 25},  // zero dt
	}
	got := counterRate(pts)
	want := []float64{30, 5, 0, 0}
	if len(got) != len(want) {
		t.Fatalf("rates = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rates = %v, want %v", got, want)
		}
	}
}

// TestRenderHistoryPane drives the pure pane renderer with synthetic
// ranges and checks each trend row.
func TestRenderHistoryPane(t *testing.T) {
	pane := &historyPane{
		startup: []history.Point{{Unix: 1, Value: 2}, {Unix: 2, Value: 3}, {Unix: 3, Value: 7}},
		requests: []history.Point{
			{Unix: 1, Value: 0}, {Unix: 2, Value: 10}, {Unix: 3, Value: 25},
		},
		firing: []history.Point{{Unix: 1, Value: 0}, {Unix: 2, Value: 0}, {Unix: 3, Value: 1}},
	}
	var b strings.Builder
	renderHistory(&b, pane)
	out := b.String()
	for _, want := range []string{
		"TREND (1m)",
		"startup p99", "7 slots",
		"admits/sec", "15.0", // last rate: (25-10)/1s
		"alerts firing", "1",
		"█", // some cell reaches full height
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("history pane missing %q:\n%s", want, out)
		}
	}

	// Empty ranges degrade to dashes, never NaN or a panic.
	b.Reset()
	renderHistory(&b, &historyPane{})
	if out := b.String(); !strings.Contains(out, "-") || strings.Contains(out, "NaN") {
		t.Fatalf("empty pane rendered %q", out)
	}
}

// TestRenderConnPane drives the pure CONN-pane renderer with a synthetic
// /connz summary: the state histogram on the headline, worst-first row
// ordering and the row cap.
func TestRenderConnPane(t *testing.T) {
	sum := &conntrack.Summary{
		Tracked: 3,
		States: map[string]int{
			"healthy": 1, "receiver_limited": 1, "path_limited": 0,
			"sender_backpressured": 0, "stalled": 1,
		},
		StalledRatio: 1.0 / 3,
		Conns: []conntrack.ConnSnapshot{
			{ID: 1, Remote: "10.0.0.1:999", State: "healthy", RingDepth: 1, RingCap: 64, RTTMillis: 0.2, BytesPerSec: 2048},
			{ID: 2, Remote: "10.0.0.2:999", State: "stalled", StateAgeSeconds: 4.5, RingDepth: 60, RingCap: 64, Retrans: 7},
			{ID: 3, Remote: "10.0.0.3:999", State: "receiver_limited", RingDepth: 30, RingCap: 64, BytesPerSec: 512},
		},
	}
	var b strings.Builder
	renderConns(&b, sum)
	out := b.String()
	for _, want := range []string{
		"CONN : tracked=3 stalled_ratio=0.33",
		"healthy=1 recv_limited=1 path_limited=0 backpressured=0 stalled=1",
		"REMOTE", "STATE", "RETRANS", "RING",
		"10.0.0.2:999", "stalled", "60/64",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("conn pane missing %q:\n%s", want, out)
		}
	}
	// Worst-first: the stalled row must render before the limited one, and
	// the limited one before the healthy one.
	if si, ri, hi := strings.Index(out, "10.0.0.2"), strings.Index(out, "10.0.0.3"), strings.Index(out, "10.0.0.1"); !(si < ri && ri < hi) {
		t.Fatalf("rows not worst-first (stalled=%d recv=%d healthy=%d):\n%s", si, ri, hi, out)
	}

	// A crowded table keeps only the connRows worst offenders.
	big := &conntrack.Summary{States: map[string]int{}, Tracked: connRows + 5}
	for i := 0; i < connRows+5; i++ {
		big.Conns = append(big.Conns, conntrack.ConnSnapshot{ID: uint64(i + 1), State: "healthy"})
	}
	big.Conns[connRows+2].State = "stalled"
	b.Reset()
	renderConns(&b, big)
	out = b.String()
	if lines := strings.Count(out, "\n"); lines > connRows+4 {
		t.Fatalf("crowded pane rendered %d lines:\n%s", lines, out)
	}
	// The lone stalled row survives the cap even though it registered last.
	if !strings.Contains(out, "stalled") {
		t.Fatalf("row cap dropped the stalled connection:\n%s", out)
	}

	// Empty summary: headline only, no table header.
	b.Reset()
	renderConns(&b, &conntrack.Summary{States: map[string]int{}})
	if out := b.String(); strings.Contains(out, "REMOTE") {
		t.Fatalf("empty summary rendered a table:\n%s", out)
	}
}

// TestConnPaneAgainstLiveServer: a default server serves the CONN pane end
// to end, and a server without /connz has it skipped silently.
func TestConnPaneAgainstLiveServer(t *testing.T) {
	s, err := vodserver.Start(vodserver.Config{
		Addr:         "127.0.0.1:0",
		Videos:       []vodserver.VideoConfig{{ID: 1, Segments: 6, SegmentBytes: 64}},
		SlotDuration: 10 * time.Millisecond,
		StatsAddr:    "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	client := &http.Client{Timeout: 5 * time.Second}
	if sum := fetchConns(client, s.StatsAddr()); sum == nil {
		t.Fatal("fetchConns returned nil from a conntrack-enabled server")
	}
	var b strings.Builder
	if _, err := run(&b, s.StatsAddr(), time.Second, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "CONN : tracked=") {
		t.Fatalf("live frame missing CONN pane:\n%s", b.String())
	}

	// A server without /connz: the pane is skipped, the frame still renders.
	old := hidingProxy(t, s.StatsAddr(), "/connz")
	if sum := fetchConns(client, old); sum != nil {
		t.Fatal("fetchConns returned a pane from a server without /connz")
	}
	b.Reset()
	if _, err := run(&b, old, time.Second, true); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "CONN : tracked=") {
		t.Fatalf("frame without /connz rendered CONN pane:\n%s", b.String())
	}
}

// hidingProxy fronts the stats endpoint at addr and answers 404 on path, as
// an older server without that endpoint does; it returns the proxy's address.
func hidingProxy(t *testing.T, addr, path string) string {
	target := httputil.NewSingleHostReverseProxy(&url.URL{Scheme: "http", Host: addr})
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == path {
			http.NotFound(w, r)
			return
		}
		target.ServeHTTP(w, r)
	}))
	t.Cleanup(proxy.Close)
	return proxy.Listener.Addr().String()
}

// TestHistoryPaneAgainstLiveServer: a live server's history serves the
// trend pane end to end, and a server without /queryz has it skipped
// silently.
func TestHistoryPaneAgainstLiveServer(t *testing.T) {
	s, err := vodserver.Start(vodserver.Config{
		Addr:   "127.0.0.1:0",
		Videos: []vodserver.VideoConfig{{ID: 1, Segments: 6, SegmentBytes: 64}},
		// The SLO is two slots: at 100 ms the session's first byte, due
		// within one slot, stays under it on a loaded machine too, so the
		// burn rule stays quiet and the frame reads "not firing".
		SlotDuration: 100 * time.Millisecond,
		StatsAddr:    "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := vodclient.FetchWith(s.Addr(), vodclient.FetchOptions{VideoID: 1, Timeout: 10 * time.Second, StrictDeadlines: true}); err != nil {
		t.Fatal(err)
	}
	// Let two of the telemetry loop's once-a-second scrapes land, so the
	// counter rate has a delta to work with.
	deadline := time.Now().Add(10 * time.Second)
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		if pane := fetchHistory(client, s.StatsAddr()); pane != nil && len(pane.requests) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("history never accumulated two request points")
		}
		time.Sleep(20 * time.Millisecond)
	}

	var b strings.Builder
	firing, err := run(&b, s.StatsAddr(), time.Second, true)
	if err != nil || firing {
		t.Fatalf("once frame: firing=%v err=%v", firing, err)
	}
	if !strings.Contains(b.String(), "TREND (1m)") {
		t.Fatalf("live frame missing trend pane:\n%s", b.String())
	}

	// A server without /queryz: the pane is skipped, the frame still renders.
	old := hidingProxy(t, s.StatsAddr(), "/queryz")
	if pane := fetchHistory(client, old); pane != nil {
		t.Fatal("fetchHistory returned a pane from a server without /queryz")
	}
	b.Reset()
	if _, err := run(&b, old, time.Second, true); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "TREND (1m)") {
		t.Fatalf("frame without /queryz rendered trend pane:\n%s", b.String())
	}
}

// TestOnceAgainstLiveServer is the acceptance path: a real vodserver, one
// fetched video, then run(..., once=true) renders a populated frame from
// the live /statusz endpoint and returns.
func TestOnceAgainstLiveServer(t *testing.T) {
	s, err := vodserver.Start(vodserver.Config{
		Addr:            "127.0.0.1:0",
		Videos:          []vodserver.VideoConfig{{ID: 1, Segments: 6, SegmentBytes: 64}},
		SlotDuration:    10 * time.Millisecond,
		StatsAddr:       "127.0.0.1:0",
		SpanSampleEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := vodclient.FetchWith(s.Addr(), vodclient.FetchOptions{VideoID: 1, Timeout: 10 * time.Second, StrictDeadlines: true}); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	firing, err := run(&b, s.StatsAddr(), time.Second, true)
	if err != nil {
		t.Fatal(err)
	}
	if firing {
		t.Fatal("healthy server reported a firing alert")
	}
	out := b.String()
	if strings.Contains(out, "\x1b[2J") {
		t.Fatalf("-once frame must not clear the screen:\n%q", out)
	}
	for _, want := range []string{"requests=1", "clock: running", "lock_wait", "VIDEO"} {
		if !strings.Contains(out, want) {
			t.Fatalf("live frame missing %q:\n%s", want, out)
		}
	}

	// A dead endpoint is an error, not a hang or a zero frame.
	if _, err := run(&b, "127.0.0.1:1", time.Second, true); err == nil {
		t.Fatal("run against dead endpoint succeeded")
	}
	// A non-statusz HTTP server yields a decode/status error.
	if _, err := fetch(&http.Client{Timeout: time.Second}, "0.0.0.0:0"); err == nil {
		t.Fatal("fetch from invalid address succeeded")
	}
	// And a non-positive interval is rejected up front.
	if _, err := run(&b, s.StatsAddr(), 0, true); err == nil {
		t.Fatal("run accepted zero interval")
	}
}

package vodserver

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vodcast/internal/obs"
	"vodcast/internal/vodclient"
)

// This file is the end-to-end test of the client QoE loop: a real server, N
// concurrent real clients, reports landing in /statusz, client spans joining
// the admit traces in the span ring, and an injected fault walking the miss
// alert through pending → firing → resolved in /statusz alerts.

// statuszAlerts returns the alert rule table /statusz serves.
func statuszAlerts(t *testing.T, s *Server) []obs.AlertStatus {
	t.Helper()
	code, body := get(t, s, "/statusz")
	if code != http.StatusOK {
		t.Fatalf("statusz status = %d", code)
	}
	var doc struct {
		Alerts []obs.AlertStatus `json:"alerts"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("statusz body: %v\n%s", err, body)
	}
	return doc.Alerts
}

func ruleState(t *testing.T, s *Server, name string) obs.AlertState {
	t.Helper()
	for _, r := range statuszAlerts(t, s) {
		if r.Name == name {
			return r.State
		}
	}
	t.Fatalf("rule %q not served in /statusz alerts", name)
	return ""
}

func TestE2EClientQoELoop(t *testing.T) {
	// dropping suppresses every transmission of video 1's segment 1, so
	// video-1 customers provably miss its deadline — the wire-level stand-in
	// for sustained packet loss on one channel.
	var dropping atomic.Bool
	s := serveTuned(t, Config{
		Addr:             "127.0.0.1:0",
		Videos:           []VideoConfig{{ID: 1, Segments: 6, SegmentBytes: 64}, {ID: 2, Segments: 6, SegmentBytes: 64}},
		SlotDuration:     10 * time.Millisecond,
		StatsAddr:        "127.0.0.1:0",
		SpanSampleEvery:  1,
		AlertFor:         50 * time.Millisecond,
		ReportStaleAfter: time.Hour,
		DropInstance: func(video uint32, segment, _ int) bool {
			return dropping.Load() && video == 1 && segment == 1
		},
	}, func(s *Server) {
		// The test drives evaluations by hand for determinism; the
		// telemetry loop is parked out of the way.
		s.telemetryInterval = time.Hour
	})

	// Phase 1 — healthy fleet: N concurrent clients across both videos,
	// every session reporting back.
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		videoID := uint32(1 + i%2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := vodclient.FetchWith(s.Addr(), vodclient.FetchOptions{
				VideoID: videoID, Timeout: 10 * time.Second,
			})
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// The report read is concurrent with the client's return: poll until
	// every one of the N reports has been folded in.
	waitFor(t, "all reports ingested", func() bool {
		return s.QoE().Reports >= n
	})
	snap := s.Status()
	if snap.QoE.Slack.Count == 0 || snap.QoE.Startup.Count == 0 {
		t.Fatalf("QoE windows empty after %d reports: %+v", n, snap.QoE)
	}

	// Every session was sampled, so every admit tree must have gained
	// client-side children with intact parent links.
	spans := s.spans.Recent()
	byID := make(map[uint64]obs.SpanRecord, len(spans))
	for _, r := range spans {
		byID[r.ID] = r
	}
	sessions, startups := 0, 0
	for _, r := range spans {
		switch r.Name {
		case "client_session":
			parent, ok := byID[r.Parent]
			if !ok || parent.Name != "admit" {
				t.Fatalf("client_session %+v not parented to an admit root", r)
			}
			sessions++
		case "client_startup":
			parent, ok := byID[r.Parent]
			if !ok || parent.Name != "client_session" {
				t.Fatalf("client_startup %+v not parented to a client_session", r)
			}
			startups++
		}
	}
	if sessions < n || startups < n {
		t.Fatalf("synthesized %d session / %d startup spans, want >= %d each", sessions, startups, n)
	}

	// The healthy window keeps the miss alert quiet.
	s.alerts.Eval()
	if st := ruleState(t, s, "client_deadline_miss_rate"); st != obs.StateInactive {
		t.Fatalf("healthy miss alert state = %s, want inactive", st)
	}

	// Phase 2 — fault injection: drop video 1 segment 1 so its customers
	// miss a deadline, and watch the rule walk pending → firing. The window
	// holds every report so far, so n+1 faulted sessions (one miss each)
	// lift its mean above 0.5 misses per report.
	dropping.Store(true)
	const faulted = n + 1
	for i := 0; i < faulted; i++ {
		res, err := vodclient.FetchWith(s.Addr(), vodclient.FetchOptions{
			VideoID: 1, Timeout: 10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.DeadlineMisses == 0 || res.MissingSegments == 0 {
			t.Fatalf("dropped segment not observed by client: %+v", res)
		}
	}
	waitFor(t, "miss reports ingested", func() bool {
		return s.QoE().Reports >= n+faulted
	})
	s.alerts.Eval()
	if st := ruleState(t, s, "client_deadline_miss_rate"); st != obs.StatePending {
		t.Fatalf("breached miss alert state = %s, want pending (For not yet elapsed)", st)
	}
	time.Sleep(60 * time.Millisecond) // AlertFor is 50ms
	s.alerts.Eval()
	if st := ruleState(t, s, "client_deadline_miss_rate"); st != obs.StateFiring {
		t.Fatalf("held breach state = %s, want firing", st)
	}
	// The firing count vod_alerts_firing exports agrees with the table.
	firing := 0
	for _, r := range statuszAlerts(t, s) {
		if r.State == obs.StateFiring {
			firing++
		}
	}
	if firing == 0 || firing != s.alerts.Firing() {
		t.Fatalf("/statusz alerts show %d firing, engine %d; want equal and > 0", firing, s.alerts.Firing())
	}

	// Phase 3 — recovery: two healthy sessions bring the window's mean back
	// under 0.5 and the rule resolves.
	dropping.Store(false)
	for i := 0; i < 2; i++ {
		if _, err := vodclient.FetchWith(s.Addr(), vodclient.FetchOptions{
			VideoID: 1, Timeout: 10 * time.Second,
		}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "recovery reports ingested", func() bool {
		return s.QoE().Reports >= n+faulted+2
	})
	s.alerts.Eval()
	if st := ruleState(t, s, "client_deadline_miss_rate"); st != obs.StateResolved {
		t.Fatalf("recovered miss alert state = %s, want resolved", st)
	}

	// The lifetime counters keep the evidence of every faulted session.
	if misses := s.videos[1].rec.Load().miss.Value(); misses < faulted {
		t.Fatalf("client_miss_total{video=1} = %v, want >= %d", misses, faulted)
	}
	if misses := s.videos[2].rec.Load().miss.Value(); misses != 0 {
		t.Fatalf("client_miss_total{video=2} = %v, want 0", misses)
	}
}

// waitFor polls cond with a generous deadline, failing the test with the
// label on timeout.
func waitFor(t *testing.T, label string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", label)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSlipAlertLifecycle: the station_clock_skipped_ticks rule fires on the
// first evaluation after the clock skipped grid points, and that firing
// writes a flight bundle; it resolves on its own once a window of
// evaluations (slipWindow over the telemetry interval: 3 here) passes with
// no skip.
func TestSlipAlertLifecycle(t *testing.T) {
	const interval = 20 * time.Second
	flightDir := t.TempDir()
	// A built server's clock never ticks, so never skips. Its rules are
	// armed by hand, as serve arms them, and evaluated by hand, one
	// telemetry interval apart on the alert clock.
	s := buildServer(t, Config{
		Videos:       []VideoConfig{{ID: 1, Segments: 4, SegmentBytes: 64}},
		SlotDuration: 10 * time.Millisecond,
		FlightDir:    flightDir,
	})
	s.telemetryInterval = interval
	if err := s.armAlerts(); err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_000_000, 0)
	s.alerts.SetClock(func() time.Time { return now })
	eval := func(want obs.AlertState) {
		t.Helper()
		now = now.Add(interval)
		s.alerts.Eval()
		for _, r := range s.alerts.Snapshot() {
			if r.Name != "station_clock_skipped_ticks" {
				continue
			}
			if r.State != want || r.Severity != "critical" {
				t.Fatalf("slip rule %s (%s) at value %v, want %s", r.State, r.Severity, r.Value, want)
			}
			return
		}
		t.Fatal("slip rule not armed")
	}
	eval(obs.StateInactive)
	s.reg.Counter("station_clock_skipped_ticks_total", "").Add(9)
	eval(obs.StateFiring)
	bundles := bundleDirs(t, flightDir)
	if len(bundles) != 1 || !strings.Contains(bundles[0], "alert_station_clock_skipped_ticks") {
		t.Fatalf("firing wrote bundles %v, want one for the slip rule", bundles)
	}
	eval(obs.StateFiring)
	eval(obs.StateFiring)
	eval(obs.StateResolved)
	if got := len(bundleDirs(t, flightDir)); got != 1 {
		t.Fatalf("resolution grew bundles to %d", got)
	}
}

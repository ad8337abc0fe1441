package vodserver

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vodcast/internal/obs"
	"vodcast/internal/obs/history"
	"vodcast/internal/vodclient"
	"vodcast/internal/wire"
)

// This file tests the retained-telemetry surface end to end: the /metricsz
// prefix filter, the /queryz range API, the ring-depth high-watermark wiring,
// and the flight recorder — including the full fault-injection E2E where a
// firing miss alert captures a bundle whose history explains the firing.

// queryzRange mirrors the /queryz range response shape.
type queryzRange struct {
	Series string          `json:"series"`
	From   float64         `json:"from"`
	To     float64         `json:"to"`
	StepMS int64           `json:"step_ms"`
	Points []history.Point `json:"points"`
}

// queryzIndex mirrors the /queryz series-listing response shape.
type queryzIndex struct {
	Series []string      `json:"series"`
	Stats  history.Stats `json:"stats"`
}

// TestMetricszPrefix pins the ?prefix= family filter: the filtered dump
// carries exactly the matching families and the default stays the full dump.
func TestMetricszPrefix(t *testing.T) {
	// A built server runs no session, no clock and no telemetry: no
	// station_ value can move between the two scrapes, so the filtered lines
	// must appear in the full dump byte for byte.
	s := buildServer(t, Config{
		Videos:       []VideoConfig{{ID: 1, Segments: 6, SegmentBytes: 64}},
		SlotDuration: 10 * time.Millisecond,
	})
	code, full := getBuilt(s, "/metricsz")
	if code != http.StatusOK {
		t.Fatalf("metricsz = %d", code)
	}
	code, filtered := getBuilt(s, "/metricsz?prefix=station_")
	if code != http.StatusOK {
		t.Fatalf("metricsz?prefix= = %d", code)
	}
	if !strings.Contains(full, "vod_requests_total") || !strings.Contains(full, "station_clock_ticks_total") {
		t.Fatalf("full dump incomplete:\n%s", full)
	}
	if !strings.Contains(filtered, "station_clock_ticks_total") {
		t.Fatalf("prefix dump missing matching family:\n%s", filtered)
	}
	for _, line := range strings.Split(filtered, "\n") {
		if line == "" {
			continue
		}
		rest := strings.TrimPrefix(strings.TrimPrefix(line, "# HELP "), "# TYPE ")
		if !strings.HasPrefix(rest, "station_") {
			t.Fatalf("prefix dump leaked non-matching line %q", line)
		}
	}
	// The filtered dump is a verbatim subset of the full dump: same bytes,
	// same order — the golden property scrape diffing relies on.
	for _, line := range strings.Split(strings.TrimSpace(filtered), "\n") {
		if !strings.Contains(full, line) {
			t.Fatalf("filtered line %q not in full dump", line)
		}
	}
}

// TestRingDepthWatermarkWiring drives the server's watermark directly and
// reads it back through /metricsz twice: the spike survives to the first
// scrape after it and the read resets the interval.
func TestRingDepthWatermarkWiring(t *testing.T) {
	// A built server runs no telemetry loop, so no background scrape can
	// consume the watermark between Record and the /metricsz read.
	s := buildServer(t, Config{
		Videos:       []VideoConfig{{ID: 1, Segments: 6, SegmentBytes: 64}},
		SlotDuration: 10 * time.Millisecond,
	})
	// A spike tick followed by quieter ticks, as fanOut would record them.
	s.ringDepth.Record(17)
	s.ringDepth.Record(2)
	_, body := getBuilt(s, "/metricsz?prefix=vod_fanout_ring_depth_max")
	if !strings.Contains(body, "vod_fanout_ring_depth_max 17\n") {
		t.Fatalf("spike lost before first scrape:\n%s", body)
	}
	_, body = getBuilt(s, "/metricsz?prefix=vod_fanout_ring_depth_max")
	if !strings.Contains(body, "vod_fanout_ring_depth_max 0\n") {
		t.Fatalf("watermark not reset by scrape:\n%s", body)
	}
}

// TestQueryzEndpoint covers the /queryz API against a live store: the series
// listing, a range query with points, and the parameter validation.
func TestQueryzEndpoint(t *testing.T) {
	s := serveTuned(t, Config{
		Addr:         "127.0.0.1:0",
		Videos:       []VideoConfig{{ID: 1, Segments: 6, SegmentBytes: 64}},
		SlotDuration: 10 * time.Millisecond,
		StatsAddr:    "127.0.0.1:0",
	}, func(s *Server) {
		s.telemetryInterval = 20 * time.Millisecond
	})
	waitFor(t, "history scrapes", func() bool {
		return s.history.Stats().Scrapes >= 5
	})

	// No series: the discovery listing, with store stats.
	code, body := get(t, s, "/queryz")
	if code != http.StatusOK {
		t.Fatalf("queryz = %d", code)
	}
	var idx queryzIndex
	if err := json.Unmarshal([]byte(body), &idx); err != nil {
		t.Fatalf("queryz body: %v\n%s", err, body)
	}
	found := false
	for _, name := range idx.Series {
		if name == "station_clock_ticks_total" {
			found = true
		}
	}
	if !found || idx.Stats.Scrapes < 5 {
		t.Fatalf("queryz index wrong: %+v", idx)
	}

	// A range query returns timestamped points for the series.
	code, body = get(t, s, "/queryz?series=station_clock_ticks_total")
	if code != http.StatusOK {
		t.Fatalf("queryz?series = %d", code)
	}
	var rng queryzRange
	if err := json.Unmarshal([]byte(body), &rng); err != nil {
		t.Fatalf("queryz range body: %v", err)
	}
	if len(rng.Points) < 5 {
		t.Fatalf("queryz returned %d points, want >= 5: %+v", len(rng.Points), rng)
	}
	last := rng.Points[len(rng.Points)-1]
	if last.Value <= rng.Points[0].Value {
		t.Fatalf("clock tick series not increasing: %+v", rng.Points)
	}
	if last.Unix < rng.From || last.Unix > rng.To {
		t.Fatalf("point %v outside [%v, %v]", last.Unix, rng.From, rng.To)
	}

	// Unknown series: valid query, empty points.
	code, body = get(t, s, "/queryz?series=no_such_series")
	if code != http.StatusOK {
		t.Fatalf("unknown series = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &rng); err != nil || len(rng.Points) != 0 {
		t.Fatalf("unknown series points: %v %+v", err, rng.Points)
	}

	// The retained history agrees with the live counters exactly: after k
	// strict sessions and two further scrapes, the request series' last
	// point is k, and so is Stats().Requests.
	const k = 5
	for i := 0; i < k; i++ {
		if _, err := vodclient.FetchWith(s.Addr(), vodclient.FetchOptions{
			VideoID: 1, Timeout: 10 * time.Second, StrictDeadlines: true}); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	settled := s.history.Stats().Scrapes + 2
	waitFor(t, "two scrapes after the sessions", func() bool {
		return s.history.Stats().Scrapes >= settled
	})
	_, body = get(t, s, "/queryz?series=vod_requests_total")
	var reqs queryzRange
	if err := json.Unmarshal([]byte(body), &reqs); err != nil || len(reqs.Points) == 0 {
		t.Fatalf("queryz vod_requests_total: %v %+v", err, reqs)
	}
	if last, live := reqs.Points[len(reqs.Points)-1].Value, s.Stats().Requests; last != k || live != k {
		t.Fatalf("history's last vod_requests_total = %v, Stats().Requests = %d, want both %d", last, live, k)
	}

	// Parameter validation: every rejected shape answers 400 without
	// touching the store, and the boundary-adjacent valid shapes still pass.
	for _, tc := range []struct {
		name string
		url  string
		want int
	}{
		{"from not a time", "/queryz?series=x&from=notatime", http.StatusBadRequest},
		{"to not a time", "/queryz?series=x&to=alsonot", http.StatusBadRequest},
		{"from NaN", "/queryz?series=x&from=NaN", http.StatusBadRequest},
		{"to +Inf", "/queryz?series=x&to=%2BInf", http.StatusBadRequest},
		{"from 1e300", "/queryz?series=x&from=1e300", http.StatusBadRequest},
		{"step not a duration", "/queryz?series=x&step=sideways", http.StatusBadRequest},
		{"step negative", "/queryz?series=x&step=-5s", http.StatusBadRequest},
		{"step zero", "/queryz?series=x&step=0", http.StatusBadRequest},
		{"step zero with unit", "/queryz?series=x&step=0s", http.StatusBadRequest},
		{"from after to", "/queryz?series=x&from=2000000000&to=1000000000", http.StatusBadRequest},
		{"from after to rfc3339", "/queryz?series=x&from=2026-01-02T00:00:00Z&to=2026-01-01T00:00:00Z", http.StatusBadRequest},
		{"from equals to is valid", "/queryz?series=x&from=1000000000&to=1000000000", http.StatusOK},
		{"positive step is valid", "/queryz?series=x&step=5s", http.StatusOK},
		{"unix float bounds are valid", "/queryz?series=x&from=1000000000.5&to=2000000000.5", http.StatusOK},
	} {
		if code, _ := get(t, s, tc.url); code != tc.want {
			t.Fatalf("%s: GET %s = %d, want %d", tc.name, tc.url, code, tc.want)
		}
	}
}

// TestQueryzSeriesCapExcludesRefused pins the series-cap refusal accounting
// through the HTTP surface on the shape where the cap binds. A video exports
// its three per-video families from its first admission, so a 2048-video
// catalogue boots with the server-wide series only and nothing refused; once
// 500 distinct videos have been requested their series outnumber what the
// store's 8 MiB admits. The store fills to exactly its capacity, counts every
// refusal, keeps the server-wide series vodtop reads, and the /queryz
// discovery listing advertises exactly the admitted identities — never a
// refused series with no retained data behind it.
func TestQueryzSeriesCapExcludesRefused(t *testing.T) {
	const requested = 500
	videos := make([]VideoConfig, 2048)
	for i := range videos {
		videos[i] = VideoConfig{ID: uint32(i + 1), Segments: 20, SegmentBytes: 64}
	}
	s := serveTuned(t, Config{
		Addr:         "127.0.0.1:0",
		Videos:       videos,
		SlotDuration: 50 * time.Millisecond,
		StatsAddr:    "127.0.0.1:0",
	}, func(s *Server) {
		s.telemetryInterval = 50 * time.Millisecond
	})
	waitFor(t, "history scrapes", func() bool {
		return s.history.Stats().Scrapes >= 2
	})
	if st := s.history.Stats(); st.DroppedSeries != 0 || st.Series > 200 {
		t.Fatalf("boot store %+v: idle videos export series", st)
	}

	// Request the first videos: each admission builds the video's record and
	// its series. The request is all the test needs, so each connection closes
	// once the schedule arrives.
	var wg sync.WaitGroup
	next := atomic.Int64{}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := next.Add(1); id <= requested; id = next.Add(1) {
				conn, err := net.Dial("tcp", s.Addr())
				if err != nil {
					t.Error(err)
					return
				}
				err = wire.WriteFrame(conn, wire.Request{VideoID: uint32(id), Version: wire.ProtoV2})
				if err == nil {
					_, err = wire.ReadFrame(conn)
				}
				conn.Close()
				if err != nil {
					t.Errorf("video %d: %v", id, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	scraped := s.history.Stats().Scrapes
	waitFor(t, "history scrapes after the requests", func() bool {
		return s.history.Stats().Scrapes >= scraped+2
	})

	code, body := get(t, s, "/queryz")
	if code != http.StatusOK {
		t.Fatalf("queryz = %d", code)
	}
	var idx queryzIndex
	if err := json.Unmarshal([]byte(body), &idx); err != nil {
		t.Fatalf("queryz body: %v", err)
	}
	if idx.Stats.Series != 1394 || len(idx.Series) != 1394 || idx.Stats.DroppedSeries == 0 {
		t.Fatalf("capped store: stats %+v, listing of %d, want 1394 series and refusals counted",
			idx.Stats, len(idx.Series))
	}
	listed := make(map[string]bool, len(idx.Series))
	for _, name := range idx.Series {
		listed[name] = true
	}
	// The server-wide series vodtop's trend pane reads (and the clock's tick
	// count) were admitted at boot, ahead of every per-video family.
	for _, name := range []string{`client_startup_slots{quantile="0.99"}`, "vod_requests_total",
		"vod_alerts_firing", "station_clock_ticks_total"} {
		if !listed[name] {
			t.Fatalf("%s refused behind the per-video families", name)
		}
	}
	// A refused per-video series is absent from the listing, and querying it
	// over HTTP is a valid empty range, not an error and not fabricated points.
	refused := ""
	for id := 1; id <= requested; id++ {
		if name := fmt.Sprintf(`vod_channel_load{video="%d"}`, id); !listed[name] {
			refused = name
			break
		}
	}
	if refused == "" {
		t.Fatal("every vod_channel_load series was admitted despite the cap")
	}
	var rng queryzRange
	code, body = get(t, s, "/queryz?series="+url.QueryEscape(refused))
	if code != http.StatusOK {
		t.Fatalf("refused-series query = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &rng); err != nil {
		t.Fatalf("queryz range body: %v", err)
	}
	if len(rng.Points) != 0 {
		t.Fatalf("refused series %s served %d points", refused, len(rng.Points))
	}
	// An admitted series answers with real points over the same surface.
	code, body = get(t, s, "/queryz?series=station_clock_ticks_total")
	if code != http.StatusOK {
		t.Fatalf("admitted-series query = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &rng); err != nil {
		t.Fatalf("queryz range body: %v", err)
	}
	if len(rng.Points) < 2 {
		t.Fatalf("admitted series has %d points, want >= 2", len(rng.Points))
	}
}

// TestQueryzAndFlightDisabled: a server without a flight dir answers
// /debug/flightrecord 503, and it and /queryz keep the shared routing guards.
func TestQueryzAndFlightDisabled(t *testing.T) {
	s, err := Start(Config{
		Addr:         "127.0.0.1:0",
		Videos:       []VideoConfig{{ID: 1, Segments: 6, SegmentBytes: 64}},
		SlotDuration: 10 * time.Millisecond,
		StatsAddr:    "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNoFrameLeak(t, s)
	if code, _ := get(t, s, "/debug/flightrecord"); code != http.StatusServiceUnavailable {
		t.Fatalf("flightrecord disabled = %d, want 503", code)
	}
	if _, err := s.FlightRecord("test"); err == nil {
		t.Fatal("FlightRecord without FlightDir returned no error")
	}
	// Routing guards hold on both paths, the disabled recorder's included.
	for _, path := range []string{"/queryz", "/debug/flightrecord"} {
		url := "http://" + s.StatsAddr() + path
		resp, err := http.Post(url, "text/plain", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s = %d, want 405", path, resp.StatusCode)
		}
		if code, _ := get(t, s, path+"/sub"); code != http.StatusNotFound {
			t.Fatalf("GET %s/sub did not 404", path)
		}
	}
}

// TestFlightRecordEndpoint forces a capture over HTTP and checks the bundle
// lands well-formed under the configured directory.
func TestFlightRecordEndpoint(t *testing.T) {
	dir := t.TempDir()
	s := serveTuned(t, Config{
		Addr:         "127.0.0.1:0",
		Videos:       []VideoConfig{{ID: 1, Segments: 6, SegmentBytes: 64}},
		SlotDuration: 10 * time.Millisecond,
		StatsAddr:    "127.0.0.1:0",
		FlightDir:    dir,
	}, func(s *Server) {
		s.telemetryInterval = 20 * time.Millisecond
	})
	waitFor(t, "history scrapes", func() bool {
		return s.history.Stats().Scrapes >= 3
	})

	code, body := get(t, s, "/debug/flightrecord")
	if code != http.StatusOK {
		t.Fatalf("flightrecord = %d: %s", code, body)
	}
	var doc struct {
		Bundle string                `json:"bundle"`
		Stats  history.RecorderStats `json:"stats"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("flightrecord body: %v", err)
	}
	if doc.Stats.Captured != 1 {
		t.Fatalf("recorder stats = %+v, want captured=1", doc.Stats)
	}
	// The bundle holds exactly these files: the alert table travels in
	// status.json, so there is no alerts.json beside it.
	entries, err := os.ReadDir(doc.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		files = append(files, e.Name())
	}
	if got, want := strings.Join(files, " "), "conns.json goroutine.pprof heap.pprof history.jsonl meta.json spans.jsonl status.json"; got != want {
		t.Fatalf("bundle files %q, want %q", got, want)
	}
	// status.json decodes as the same document /statusz serves, including
	// the uptime and flight sections.
	var snap StatusSnapshot
	raw, err := os.ReadFile(filepath.Join(doc.Bundle, "status.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("status.json: %v", err)
	}
	if snap.UptimeSeconds <= 0 || snap.Flight == nil {
		t.Fatalf("status.json missing uptime/flight sections: %+v", snap)
	}
}

// TestE2EFlightRecorder is the acceptance E2E: under DropInstance fault
// injection the miss-rate alert fires, exactly one bundle is captured within
// the cooldown window, the bundle's metric history shows the miss-rate
// step-up that preceded the transition, and /queryz serves the same series
// over HTTP.
func TestE2EFlightRecorder(t *testing.T) {
	flightDir := t.TempDir()
	var dropping atomic.Bool
	s := serveTuned(t, Config{
		Addr:         "127.0.0.1:0",
		Videos:       []VideoConfig{{ID: 1, Segments: 6, SegmentBytes: 64}},
		SlotDuration: 10 * time.Millisecond,
		StatsAddr:    "127.0.0.1:0",
		FlightDir:    flightDir,
		AlertFor:     50 * time.Millisecond,
		DropInstance: func(video uint32, segment, _ int) bool {
			return dropping.Load() && video == 1 && segment == 1
		},
	}, func(s *Server) {
		// A generous SLO keeps the first_byte_slo_burn rule quiet on slow CI
		// machines: the only firing rule must be the injected miss alert.
		s.sloTarget = 10
		// Scrapes and evaluations are driven by hand for determinism; the
		// telemetry loop is parked out of the way.
		s.telemetryInterval = time.Hour
	})

	// Phase 1 — healthy: sessions report zero misses, history records the
	// flat-zero miss-rate baseline the step-up will stand out against.
	for i := 0; i < 3; i++ {
		if _, err := vodclient.FetchWith(s.Addr(), vodclient.FetchOptions{
			VideoID: 1, Timeout: 10 * time.Second,
		}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "healthy reports ingested", func() bool { return s.QoE().Reports >= 3 })
	for i := 0; i < 3; i++ {
		s.history.Scrape()
	}
	s.alerts.Eval()
	if st := ruleState(t, s, "client_deadline_miss_rate"); st != obs.StateInactive {
		t.Fatalf("healthy miss alert = %s, want inactive", st)
	}
	if got := len(bundleDirs(t, flightDir)); got != 0 {
		t.Fatalf("%d bundles before any firing", got)
	}

	// Phase 2 — fault injection: the miss alert walks pending → firing, and
	// the firing transition captures exactly one bundle synchronously.
	dropping.Store(true)
	for i := 0; i < 4; i++ {
		res, err := vodclient.FetchWith(s.Addr(), vodclient.FetchOptions{
			VideoID: 1, Timeout: 10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.DeadlineMisses == 0 {
			t.Fatalf("dropped segment not observed: %+v", res)
		}
	}
	waitFor(t, "miss reports ingested", func() bool { return s.QoE().Reports >= 7 })
	// Let the elevated miss rate land in history before the transition.
	for i := 0; i < 2; i++ {
		s.history.Scrape()
	}
	s.alerts.Eval() // inactive → pending: no bundle yet
	if got := len(bundleDirs(t, flightDir)); got != 0 {
		t.Fatalf("%d bundles while merely pending", got)
	}
	time.Sleep(60 * time.Millisecond) // AlertFor is 50ms
	s.alerts.Eval()                   // pending → firing: captures the bundle
	if st := ruleState(t, s, "client_deadline_miss_rate"); st != obs.StateFiring {
		t.Fatalf("held breach = %s, want firing", st)
	}
	bundles := bundleDirs(t, flightDir)
	if len(bundles) != 1 {
		t.Fatalf("firing captured %d bundles, want exactly 1: %v", len(bundles), bundles)
	}
	if !strings.Contains(bundles[0], "alert_client_deadline_miss_rate") {
		t.Fatalf("bundle name missing triggering rule: %s", bundles[0])
	}
	// Re-evaluating while still firing captures nothing more (no transition,
	// and the cooldown holds regardless).
	s.alerts.Eval()
	if got := len(bundleDirs(t, flightDir)); got != 1 {
		t.Fatalf("still-firing eval grew bundles to %d", got)
	}

	// The bundle's miss-rate history shows the step-up preceding the
	// transition: a zero-valued healthy baseline followed by points above
	// the threshold.
	bundle := filepath.Join(flightDir, bundles[0])
	miss := bundleSeries(t, filepath.Join(bundle, "history.jsonl"), "vod_qoe_miss_rate")
	if len(miss) < 4 {
		t.Fatalf("bundled miss-rate history too short: %+v", miss)
	}
	sawZero, sawElevated := false, false
	for _, p := range miss {
		if p.Value == 0 {
			sawZero = true
		}
		if sawZero && p.Value > 0.5 {
			sawElevated = true
		}
	}
	if !sawZero || !sawElevated {
		t.Fatalf("miss-rate step-up not recorded (zero=%v elevated=%v): %+v",
			sawZero, sawElevated, miss)
	}
	// status.json was snapshotted after the transition: its alert table
	// shows the rule firing.
	var status StatusSnapshot
	rawStatus, err := os.ReadFile(filepath.Join(bundle, "status.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rawStatus, &status); err != nil {
		t.Fatal(err)
	}
	firingSeen := false
	for _, a := range status.Alerts {
		if a.Name == "client_deadline_miss_rate" && a.State == obs.StateFiring {
			firingSeen = true
		}
	}
	if !firingSeen {
		t.Fatalf("bundle status.json alerts do not show the firing rule: %+v", status.Alerts)
	}

	// /queryz serves the same series over HTTP with the same step-up.
	code, body := get(t, s, "/queryz?series=vod_qoe_miss_rate")
	if code != http.StatusOK {
		t.Fatalf("queryz = %d", code)
	}
	var rng queryzRange
	if err := json.Unmarshal([]byte(body), &rng); err != nil {
		t.Fatalf("queryz body: %v", err)
	}
	var maxV float64
	for _, p := range rng.Points {
		if p.Value > maxV {
			maxV = p.Value
		}
	}
	if len(rng.Points) < 4 || maxV <= 0.5 {
		t.Fatalf("queryz miss-rate history wrong (%d points, max %v)", len(rng.Points), maxV)
	}
}

// bundleDirs lists bundle directory names under dir.
func bundleDirs(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "bundle-") {
			names = append(names, e.Name())
		}
	}
	return names
}

// bundleSeries extracts one series' points from a bundle's history.jsonl.
func bundleSeries(t *testing.T, path, series string) []history.Point {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var line struct {
			Series string          `json:"series"`
			Points []history.Point `json:"points"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad history line %q: %v", sc.Text(), err)
		}
		if line.Series == series {
			return line.Points
		}
	}
	t.Fatalf("series %q not in %s", series, path)
	return nil
}

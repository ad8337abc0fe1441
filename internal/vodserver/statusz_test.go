package vodserver

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"vodcast/internal/obs"
	"vodcast/internal/vodclient"
)

// startStatusServer runs a fully observed server: span sampling keeps
// everything so assertions are deterministic, and two fetches populate every
// window.
func startStatusServer(t *testing.T, spanSink io.Writer) *Server {
	t.Helper()
	s, err := Start(Config{
		Addr:            "127.0.0.1:0",
		Videos:          []VideoConfig{{ID: 1, Segments: 6, SegmentBytes: 64}, {ID: 2, Segments: 6, SegmentBytes: 64}},
		SlotDuration:    10 * time.Millisecond,
		StatsAddr:       "127.0.0.1:0",
		SpanWriter:      spanSink,
		SpanSampleEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeNoFrameLeak(t, s) })
	for _, id := range []uint32{1, 2} {
		// Decline trace join and reporting so the span sink holds exactly the
		// server-side admit trees (client spans are covered by the QoE tests).
		if _, err := vodclient.FetchWith(s.Addr(), vodclient.FetchOptions{VideoID: id, Timeout: 10 * time.Second, StrictDeadlines: true, NoTrace: true, NoReport: true}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestStatuszSnapshot decodes /statusz and checks every section of the
// operator view: per-video rows, stage windows, first-byte SLO, fan-out and
// span accounting.
func TestStatuszSnapshot(t *testing.T) {
	s := startStatusServer(t, nil)
	code, body := get(t, s, "/statusz")
	if code != http.StatusOK {
		t.Fatalf("statusz status = %d", code)
	}
	var snap StatusSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("statusz body: %v\n%s", err, body)
	}
	if snap.UptimeSeconds <= 0 || snap.Stats.Requests != 2 {
		t.Fatalf("uptime=%v stats=%+v", snap.UptimeSeconds, snap.Stats)
	}
	st := snap.Station
	if st.Videos != 2 || len(st.PerVideo) != 2 || st.Requests != 2 {
		t.Fatalf("station snapshot %+v", st)
	}
	for _, row := range st.PerVideo {
		if row.Requests != 1 {
			t.Fatalf("per-video row %+v, want one request each", row)
		}
	}
	if len(st.Stages) != 2 {
		t.Fatalf("stages %+v, want exactly lock_wait and admit", st.Stages)
	}
	for _, stage := range []string{"lock_wait", "admit"} {
		if st.Stages[stage].Count == 0 {
			t.Fatalf("stage %q empty in %+v", stage, st.Stages)
		}
	}
	if !st.Clock.Running || st.Clock.Ticks == 0 {
		t.Fatalf("clock %+v", st.Clock)
	}
	if snap.FirstByte.Count < 2 || snap.FirstByte.P50 <= 0 {
		t.Fatalf("first-byte window %+v", snap.FirstByte)
	}
	// Default SLO: two slot durations at 99%.
	if snap.FirstByte.SLOThreshold != 0.02 || snap.FirstByte.SLOObjective != 0.99 {
		t.Fatalf("SLO config %+v", snap.FirstByte)
	}
	if snap.Fanout.Count == 0 {
		t.Fatalf("fan-out window empty: %+v", snap.Fanout)
	}
	if snap.Spans.Roots != 2 || snap.Spans.Sampled != 2 || snap.Spans.SampleEvery != 1 {
		t.Fatalf("span stats %+v", snap.Spans)
	}
}

// TestSpanzPipelineTree: /spanz carries the admit trees — roots attributed
// to their video, station_admit and first_byte_wait children linked to their
// parents.
func TestSpanzPipelineTree(t *testing.T) {
	sink := &syncBuffer{}
	s := startStatusServer(t, sink)
	code, body := get(t, s, "/spanz")
	if code != http.StatusOK {
		t.Fatalf("spanz status = %d", code)
	}
	var recs []obs.SpanRecord
	if err := json.Unmarshal([]byte(body), &recs); err != nil {
		t.Fatalf("spanz body: %v", err)
	}
	byID := make(map[uint64]obs.SpanRecord)
	names := make(map[string]int)
	for _, r := range recs {
		byID[r.ID] = r
		names[r.Name]++
	}
	if names["admit"] != 2 || names["station_admit"] != 2 || names["first_byte_wait"] != 2 {
		t.Fatalf("span names %v", names)
	}
	for _, r := range recs {
		switch r.Name {
		case "admit":
			if r.Parent != 0 || r.Video == 0 || r.Dur <= 0 {
				t.Fatalf("root span %+v", r)
			}
		case "station_admit", "first_byte_wait":
			parent, ok := byID[r.Parent]
			if !ok || parent.Name != "admit" {
				t.Fatalf("span %+v has no admit parent", r)
			}
			if r.Video != parent.Video {
				t.Fatalf("child %+v lost parent attribution %+v", r, parent)
			}
		}
	}
	if code, _ := get(t, s, "/spanz?n=-1"); code != http.StatusBadRequest {
		t.Fatalf("spanz?n=-1 = %d, want 400", code)
	}

	// The JSONL sink carries the same spans, one decodable object per line.
	s.Close()
	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("span sink has %d lines, want 6", len(lines))
	}
	for _, line := range lines {
		var r obs.SpanRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad span JSONL %q: %v", line, err)
		}
	}
}

// TestSpanAdmitAttributes: spans are the live server's only trace, so the
// station_admit child carries what the scheduler decided (admit slot,
// instances placed) and a refused request leaves an admit root with the
// reject reason and one vod_rejects_total, never reaching the station.
func TestSpanAdmitAttributes(t *testing.T) {
	s := startStatusServer(t, nil)
	admits := 0
	for _, r := range s.spans.Recent(0) {
		if r.Name != "station_admit" {
			continue
		}
		admits++
		if slot, err := strconv.Atoi(r.Attrs["slot"]); err != nil || slot < 0 {
			t.Fatalf("station_admit slot attr in %+v", r)
		}
		// Each fetch is the first request of an idle 6-segment video.
		if r.Attrs["placed"] != "6" {
			t.Fatalf("station_admit placed attr in %+v, want 6", r)
		}
	}
	if admits != 2 {
		t.Fatalf("%d station_admit spans, want 2", admits)
	}

	if _, err := vodclient.FetchWith(s.Addr(), vodclient.FetchOptions{VideoID: 99, Timeout: 2 * time.Second, StrictDeadlines: true}); err == nil {
		t.Fatal("unknown video accepted")
	}
	// The handler ends the root after answering the client.
	var rejected []obs.SpanRecord
	for deadline := time.Now().Add(5 * time.Second); len(rejected) == 0 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, r := range s.spans.Recent(0) {
			if r.Attrs["reject"] != "" {
				rejected = append(rejected, r)
			}
		}
	}
	if len(rejected) != 1 {
		t.Fatalf("rejected spans %+v, want one", rejected)
	}
	if r := rejected[0]; r.Name != "admit" || r.Parent != 0 || r.Video != 99 || !strings.Contains(r.Attrs["reject"], "unknown video 99") {
		t.Fatalf("reject root %+v", r)
	}
	for _, r := range s.spans.Recent(0) {
		if r.Parent == rejected[0].ID {
			t.Fatalf("refused request has child span %+v", r)
		}
	}
	if got := s.mRejects.Value(); got != 1 {
		t.Fatalf("vod_rejects_total = %v, want 1", got)
	}
	if st := s.Stats(); st.Requests != 2 {
		t.Fatalf("stats after reject %+v, want 2 requests", st)
	}
}

// TestRouteGuards: every introspection endpoint 405s non-GET methods with
// an Allow header, 404s sub-paths, and declares its Content-Type — no
// request falls through to a handler it did not name.
func TestRouteGuards(t *testing.T) {
	s := startStatusServer(t, nil)
	endpoints := []struct {
		path        string
		contentType string
	}{
		{"/statusz", "application/json"},
		{"/healthz", "application/json"},
		{"/metricsz", "text/plain; version=0.0.4; charset=utf-8"},
		{"/spanz", "application/json"},
		{"/alertz", "application/json"},
		{"/connz", "application/json"},
		{"/queryz", "application/json"},
	}
	client := &http.Client{}
	for _, ep := range endpoints {
		url := "http://" + s.StatsAddr() + ep.path

		resp, err := client.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", ep.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Content-Type"); got != ep.contentType {
			t.Fatalf("GET %s Content-Type = %q, want %q", ep.path, got, ep.contentType)
		}

		for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete, http.MethodHead} {
			req, err := http.NewRequest(method, url, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("%s %s = %d, want 405", method, ep.path, resp.StatusCode)
			}
			if got := resp.Header.Get("Allow"); got != http.MethodGet {
				t.Fatalf("%s %s Allow = %q, want GET", method, ep.path, got)
			}
		}

		if code, _ := get(t, s, ep.path+"/sub"); code != http.StatusNotFound {
			t.Fatalf("GET %s/sub did not 404", ep.path)
		}
	}
}

// familyReaders is the metric census: every family a fully wired server
// registers, with the one reader that justifies it — a BENCHMARK.json row or
// benchmark check, a vodtop pane, an alert rule, the flight bundle, the verify
// skill, or the operator question it answers.
var familyReaders = map[string]string{
	"client_deadline_slack_slots":       "vodtop QoE pane: slack mean (the /statusz window)",
	"client_miss_total":                 "benchmark correctness check: no client missed a deadline",
	"client_rebuffer_total":             "operator: which video's clients stalled playback?",
	"client_reports_total":              "alert rule client_reports_stale; benchmark report check",
	"client_startup_slots":              "vodtop trend pane: startup p99; QoE pane p50/p95",
	"conn_drain_bytes_total":            "operator: are bytes still reaching the subscribers?",
	"conn_retrans_total":                "operator: is the network retransmitting?",
	"conn_ring_occupancy":               "operator: how full are the subscriber rings?",
	"conn_rtt_seconds":                  "operator: what round trip do the subscribers see?",
	"conn_stalled_ratio":                "alert rule conn_stalled_ratio",
	"conn_state":                        "operator: how many connections are in each transport state?",
	"conn_tracked":                      "operator: how many connections does the sampler track?",
	"go_gc_cycles_total":                "BENCHMARK vodserver.gc_cycles_per_s",
	"go_goroutines":                     "BENCHMARK vodserver.goroutines_max",
	"go_heap_alloc_bytes":               "BENCHMARK vodserver.heap_alloc_mb",
	"station_clock_ticks_total":         "BENCHMARK station.clock_slip_ratio",
	"station_clock_skipped_ticks_total": "alert rule station_clock_skipped_ticks",
	"station_stage_seconds":             "BENCHMARK station.admit_us_mean, station.lock_wait_us_mean",
	"vod_active_subscribers":            "operator: how many clients are receiving right now?",
	"vod_admit_first_byte_seconds":      "BENCHMARK vodserver.first_byte_server_ms_mean; alert rule first_byte_slo_burn",
	"vod_alerts_firing":                 "vodtop trend pane: alerts firing",
	"vod_broadcast_bytes_total":         "operator: how many payload bytes has the broadcast cost?",
	"vod_channel_load":                  "verify skill: a cold video reads 0 once idle",
	"vod_dropped_subscribers_total":     "BENCHMARK fanout.dropped_subscribers",
	"vod_fanout_ring_depth_max":         "BENCHMARK fanout.ring_depth_max",
	"vod_fanout_seconds":                "BENCHMARK fanout.tick_us_mean, fanout.tick_busy_ratio",
	"vod_instances_total":               "benchmark bandwidth check: instances per video-slot",
	"vod_qoe_miss_rate":                 "flight bundle history (the miss alert's windowed signal)",
	"vod_rejects_total":                 "benchmark correctness check: nothing refused",
	"vod_requests_total":                "vodtop trend pane: admits/sec",
	"vod_uptime_seconds":                "operator: how long has the server been up?",
}

// TestRegisteredMetricNamesValid is the metric-name lint and the census: every
// family /metricsz serves from the fully wired server must pass the
// Prometheus charset predicate and have an entry in familyReaders, and every
// entry must be served. A video's families exist from its first admission, and
// startStatusServer serves a session on each video before the census.
// `make ci` runs this by name.
func TestRegisteredMetricNamesValid(t *testing.T) {
	s := startStatusServer(t, nil)
	code, body := get(t, s, "/metricsz")
	if code != http.StatusOK {
		t.Fatalf("/metricsz = %d", code)
	}
	have := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		name, ok := strings.CutPrefix(line, "# TYPE ")
		if !ok {
			continue
		}
		name, _, _ = strings.Cut(name, " ")
		if !obs.ValidMetricName(name) {
			t.Fatalf("registered metric %q fails validName", name)
		}
		if familyReaders[name] == "" {
			t.Errorf("registered family %q has no reader in familyReaders", name)
		}
		have[name] = true
	}
	for name := range familyReaders {
		if !have[name] {
			t.Errorf("familyReaders lists %q, which /metricsz does not serve", name)
		}
	}
}

package vodserver

import (
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"vodcast/internal/obs"
	"vodcast/internal/station"
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
	if st.Videos != 2 || len(st.PerVideo) != 2 {
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

// TestSpanPipelineTree: the span ring carries the admit trees — roots
// attributed to their video, station_admit and first_byte_wait children
// linked to their parents.
func TestSpanPipelineTree(t *testing.T) {
	sink := &syncBuffer{}
	s := startStatusServer(t, sink)
	recs := s.spans.Recent()
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
	for _, r := range s.spans.Recent() {
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
	// The clock's hook ends the reject root as it answers the client.
	var rejected []obs.SpanRecord
	for deadline := time.Now().Add(5 * time.Second); len(rejected) == 0 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, r := range s.spans.Recent() {
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
	for _, r := range s.spans.Recent() {
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

// endpointReaders is the endpoint census: every path the monitoring endpoint
// routes, with the reader that justifies it — a vodtop pane, a benchmark row
// or check, or an operator question no other surface answers. A fact served
// twice has one place; the other goes.
var endpointReaders = map[string]string{
	"/statusz":             "vodtop: every pane but the trend and connection panes",
	"/metricsz":            "benchmark: the vodserver.*, station.* and fanout.* rows it scrapes",
	"/connz":               "vodtop connection pane",
	"/queryz":              "vodtop trend pane",
	"/debug/flightrecord":  "operator: capture a flight bundle now, over the network",
	"/debug/pprof/":        "operator: which goroutines are alive, and what holds the heap?",
	"/debug/pprof/cmdline": "operator: what command line is this process running?",
	"/debug/pprof/profile": "operator: where does the server's CPU go?",
	"/debug/pprof/symbol":  "operator: go tool pprof resolves a remote profile's addresses here",
	"/debug/pprof/trace":   "operator: what did the scheduler and the GC do, goroutine by goroutine?",
}

// TestEndpointReaders is the endpoint census: every routed path has an entry
// in endpointReaders, and every entry is routed. `make ci` runs this by name.
func TestEndpointReaders(t *testing.T) {
	routes := (&Server{}).statsRoutes()
	for path := range routes {
		if endpointReaders[path] == "" {
			t.Errorf("routed path %q has no reader in endpointReaders", path)
		}
	}
	for path := range endpointReaders {
		if routes[path] == nil {
			t.Errorf("endpointReaders lists %q, which the monitoring endpoint does not route", path)
		}
	}
}

// statusFieldReaders is the /statusz census: every JSON key of StatusSnapshot,
// and every key one level into station, with the reader that justifies it.
// The flight bundle's status.json is a copy of /statusz, not a reader.
var statusFieldReaders = map[string]string{
	"uptime_seconds":        "vodtop header: up …",
	"stats":                 "vodtop counters line: requests, instances, broadcast, subscribers, dropped",
	"station":               "vodtop clock line, stage table and video table (the station.* keys)",
	"station.videos":        "vodtop clock line: active=…/N videos",
	"station.active_videos": "vodtop clock line: active=N/… videos",
	"station.per_video":     "vodtop video table",
	"station.stages":        "vodtop stage table: lock_wait and admit rows",
	"station.clock":         "vodtop clock line: state, slot, ticks, lag",
	"first_byte":            "vodtop SLO line and first_byte stage row",
	"fanout":                "vodtop fanout stage row",
	"spans":                 "vodtop spans line",
	"qoe":                   "vodtop QoE line",
	"alerts":                "vodtop alert table and vodtop -once's exit status",
	"flight":                "operator: when may an alert capture the next bundle? (the recorder's only live view)",
}

// jsonKeys lists the JSON keys of struct type t's fields, each after prefix.
func jsonKeys(t reflect.Type, prefix string) []string {
	var keys []string
	for i := 0; i < t.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		if name == "" {
			name = t.Field(i).Name
		}
		keys = append(keys, prefix+name)
	}
	return keys
}

// TestStatusFieldReaders is the /statusz census: every key of StatusSnapshot,
// at the top level and one level into station, has an entry in
// statusFieldReaders, and every entry is such a key. `make ci` runs this by
// name.
func TestStatusFieldReaders(t *testing.T) {
	keys := append(jsonKeys(reflect.TypeOf(StatusSnapshot{}), ""),
		jsonKeys(reflect.TypeOf(station.Status{}), "station.")...)
	have := map[string]bool{}
	for _, key := range keys {
		if statusFieldReaders[key] == "" {
			t.Errorf("/statusz key %q has no reader in statusFieldReaders", key)
		}
		have[key] = true
	}
	for key := range statusFieldReaders {
		if !have[key] {
			t.Errorf("statusFieldReaders lists %q, which /statusz does not serve", key)
		}
	}
}

// TestRouteGuards: every introspection endpoint in the census 405s non-GET
// methods with an Allow header, 404s sub-paths, and declares its Content-Type
// — no request falls through to a handler it did not name. The profiling
// handlers are the standard library's and are left as they come.
func TestRouteGuards(t *testing.T) {
	s := startStatusServer(t, nil)
	client := &http.Client{}
	for path := range endpointReaders {
		if strings.HasPrefix(path, "/debug/pprof/") {
			continue
		}
		// This server has no flight directory, so the capture is refused
		// (TestFlightRecordEndpoint captures one).
		wantCode, contentType := http.StatusOK, "application/json"
		switch path {
		case "/metricsz":
			contentType = "text/plain; version=0.0.4; charset=utf-8"
		case "/debug/flightrecord":
			wantCode, contentType = http.StatusServiceUnavailable, "text/plain; charset=utf-8"
		}
		url := "http://" + s.StatsAddr() + path

		resp, err := client.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("GET %s = %d, want %d", path, resp.StatusCode, wantCode)
		}
		if got := resp.Header.Get("Content-Type"); got != contentType {
			t.Fatalf("GET %s Content-Type = %q, want %q", path, got, contentType)
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
				t.Fatalf("%s %s = %d, want 405", method, path, resp.StatusCode)
			}
			if got := resp.Header.Get("Allow"); got != http.MethodGet {
				t.Fatalf("%s %s Allow = %q, want GET", method, path, got)
			}
		}

		if code, _ := get(t, s, path+"/sub"); code != http.StatusNotFound {
			t.Fatalf("GET %s/sub did not 404", path)
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
	"vod_late_writes_total":             "operator: did the server write any segment after its deadline?",
	"vod_qoe_miss_rate":                 "flight bundle history (the miss alert's windowed signal)",
	"vod_rejects_total":                 "benchmark correctness check: nothing refused",
	"vod_requests_total":                "vodtop trend pane: admits/sec",
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

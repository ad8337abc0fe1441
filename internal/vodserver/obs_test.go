package vodserver

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"vodcast/internal/obs"
	"vodcast/internal/vodclient"
)

// startObsServer runs a server with the monitoring endpoint bound and an
// optional JSONL trace sink, and fetches one video so every metric has data.
func startObsServer(t *testing.T, traceSink io.Writer) *Server {
	t.Helper()
	s, err := Start(Config{
		Addr:         "127.0.0.1:0",
		Videos:       []VideoConfig{{ID: 1, Segments: 6, SegmentBytes: 64}},
		SlotDuration: 10 * time.Millisecond,
		StatsAddr:    "127.0.0.1:0",
		TraceWriter:  traceSink,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if _, err := vodclient.FetchWith(s.Addr(), vodclient.FetchOptions{VideoID: 1, Timeout: 10 * time.Second, StrictDeadlines: true}); err != nil {
		t.Fatal(err)
	}
	return s
}

// get fetches a monitoring path and returns status and body.
func get(t *testing.T, s *Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + s.StatsAddr() + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestUnknownPathIs404: only the registered introspection paths answer;
// anything else — including sub-paths of /statusz and the retired /statsz —
// is a 404.
func TestUnknownPathIs404(t *testing.T) {
	s := startObsServer(t, nil)
	for _, path := range []string{"/", "/nope", "/statsz", "/statusz/extra", "/statuszz", "/metricsz/sub"} {
		if code, _ := get(t, s, path); code != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, code)
		}
	}
}

// TestHealthz returns 200 with a positive uptime.
func TestHealthz(t *testing.T) {
	s := startObsServer(t, nil)
	code, body := get(t, s, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz status = %d", code)
	}
	var h struct {
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("healthz body %q: %v", body, err)
	}
	if h.Status != "ok" || h.UptimeSeconds <= 0 {
		t.Fatalf("healthz = %+v", h)
	}
}

// TestMetricszExposition scrapes /metricsz and checks the exposition carries
// the server's families with consistent values.
func TestMetricszExposition(t *testing.T) {
	s := startObsServer(t, nil)
	code, body := get(t, s, "/metricsz")
	if code != http.StatusOK {
		t.Fatalf("metricsz status = %d", code)
	}
	for _, want := range []string{
		"# TYPE vod_requests_total counter",
		"vod_requests_total 1",
		`vod_channel_load{video="1"}`,
		"# TYPE vod_admit_first_byte_seconds histogram",
		`vod_admit_first_byte_seconds_bucket{le="+Inf"} 1`,
		"vod_admit_first_byte_seconds_count 1",
		"vod_uptime_seconds",
		"vod_active_subscribers",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metricsz missing %q:\n%s", want, body)
		}
	}
	// One full viewing of 6 segments transmits 6 instances once drained;
	// the counter must agree with the JSON stats instance count.
	st := s.Stats()
	if !strings.Contains(body, "vod_instances_total") {
		t.Fatalf("metricsz missing instance counter:\n%s", body)
	}
	if st.Requests != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestTracezRecentEvents: the ring serves recent scheduler events, newest
// window selectable with ?n=.
func TestTracezRecentEvents(t *testing.T) {
	s := startObsServer(t, nil)
	code, body := get(t, s, "/tracez")
	if code != http.StatusOK {
		t.Fatalf("tracez status = %d", code)
	}
	var evs []obs.Event
	if err := json.Unmarshal([]byte(body), &evs); err != nil {
		t.Fatalf("tracez body: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("tracez empty after a fetch")
	}
	types := make(map[string]int)
	for _, ev := range evs {
		types[ev.Type]++
	}
	if types[obs.EventAdmit] == 0 && types[obs.EventSlotRetire] == 0 {
		t.Fatalf("tracez lacks admit/slot_retire events: %v", types)
	}

	code, body = get(t, s, "/tracez?n=2")
	if code != http.StatusOK {
		t.Fatalf("tracez?n=2 status = %d", code)
	}
	evs = nil
	if err := json.Unmarshal([]byte(body), &evs); err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 {
		t.Fatalf("tracez?n=2 returned %d events", len(evs))
	}
	if code, _ := get(t, s, "/tracez?n=-1"); code != http.StatusBadRequest {
		t.Fatalf("tracez?n=-1 status = %d, want 400", code)
	}
}

// TestPprofEndpoint: the standard profiling index answers.
func TestPprofEndpoint(t *testing.T) {
	s := startObsServer(t, nil)
	code, body := get(t, s, "/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("pprof status = %d", code)
	}
	if !strings.Contains(body, "goroutine") {
		t.Fatal("pprof index lacks profiles")
	}
}

// syncBuffer guards a bytes.Buffer: the trace sink is written from server
// goroutines while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServerTraceSink: a TraceWriter receives the whole JSONL stream, every
// line decodable, rejects included.
func TestServerTraceSink(t *testing.T) {
	sink := &syncBuffer{}
	s := startObsServer(t, sink)
	// Provoke a reject as well.
	if _, err := vodclient.FetchWith(s.Addr(), vodclient.FetchOptions{VideoID: 99, Timeout: 2 * time.Second, StrictDeadlines: true}); err == nil {
		t.Fatal("unknown video accepted")
	}
	s.Close()

	var types = make(map[string]int)
	for _, line := range strings.Split(strings.TrimSpace(sink.String()), "\n") {
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		types[ev.Type]++
	}
	if types[obs.EventAdmit] != 1 {
		t.Fatalf("want exactly 1 admit, got %v", types)
	}
	if types[obs.EventReject] != 1 {
		t.Fatalf("want exactly 1 reject, got %v", types)
	}
	if types[obs.EventInstanceStart] == 0 || types[obs.EventInstanceStop] == 0 {
		t.Fatalf("missing instance events: %v", types)
	}
	if types[obs.EventSlotDecision] == 0 || types[obs.EventSlotRetire] == 0 {
		t.Fatalf("missing decision/retire events: %v", types)
	}
}

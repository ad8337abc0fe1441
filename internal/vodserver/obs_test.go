package vodserver

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vodcast/internal/vodclient"
)

// startObsServer runs a server with the monitoring endpoint bound and
// fetches one video so every metric has data.
func startObsServer(t *testing.T) *Server {
	t.Helper()
	s, err := Start(Config{
		Addr:         "127.0.0.1:0",
		Videos:       []VideoConfig{{ID: 1, Segments: 6, SegmentBytes: 64}},
		SlotDuration: 10 * time.Millisecond,
		StatsAddr:    "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeNoFrameLeak(t, s) })
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

// getBuilt is get on a server that was built and never served: the request
// goes straight to the monitoring endpoint's handler.
func getBuilt(s *Server, path string) (int, string) {
	rec := httptest.NewRecorder()
	s.statsMux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.String()
}

// TestUnknownPathIs404: only the registered introspection paths answer;
// anything else — including sub-paths of /statusz and the retired
// endpoints — is a 404.
func TestUnknownPathIs404(t *testing.T) {
	s := startObsServer(t)
	for _, path := range []string{"/", "/nope", "/statsz", "/tracez", "/healthz", "/spanz", "/alertz", "/statusz/extra", "/statuszz", "/metricsz/sub"} {
		if code, _ := get(t, s, path); code != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, code)
		}
	}
}

// TestMetricszExposition scrapes /metricsz and checks the exposition carries
// the server's families with consistent values.
func TestMetricszExposition(t *testing.T) {
	s := startObsServer(t)
	code, body := get(t, s, "/metricsz")
	if code != http.StatusOK {
		t.Fatalf("metricsz status = %d", code)
	}
	for _, want := range []string{
		"# TYPE vod_requests_total counter",
		"vod_requests_total 1",
		`vod_channel_load{video="1"}`,
		"# TYPE vod_admit_first_byte_seconds summary",
		`vod_admit_first_byte_seconds{quantile="0.99"}`,
		"vod_admit_first_byte_seconds_count 1",
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

// TestOneInstrumentPerDistribution: every distribution the server serves is
// one summary, and /statusz and /metricsz read that one instrument. After n
// sessions the first-byte window's lifetime total,
// vod_admit_first_byte_seconds_count, the admit stage's count and
// client_startup_slots_count all read n.
func TestOneInstrumentPerDistribution(t *testing.T) {
	const n = 3
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
	for i := 0; i < n; i++ {
		if _, err := vodclient.FetchWith(s.Addr(), vodclient.FetchOptions{VideoID: 1, Timeout: 10 * time.Second, StrictDeadlines: true}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "every client report", func() bool { return s.mReports.Value() == n })

	_, body := get(t, s, "/metricsz")
	if strings.Contains(body, "_bucket") || strings.Contains(body, " histogram\n") {
		t.Fatalf("metricsz still carries a histogram:\n%s", body)
	}
	for _, name := range []string{
		"vod_admit_first_byte_seconds", "vod_fanout_seconds", "station_stage_seconds",
		"client_startup_slots", "client_deadline_slack_slots",
		"conn_rtt_seconds", "conn_ring_occupancy",
	} {
		if !strings.Contains(body, "# TYPE "+name+" summary\n") {
			t.Fatalf("%s is not a summary:\n%s", name, body)
		}
	}
	vals := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && line[0] != '#' {
			vals[line[:i]], _ = strconv.ParseFloat(line[i+1:], 64)
		}
	}
	status := s.Status()
	for name, got := range map[string]float64{
		"/statusz first_byte.total":                  float64(status.FirstByte.Total),
		"vod_admit_first_byte_seconds_count":         vals["vod_admit_first_byte_seconds_count"],
		`station_stage_seconds_count{stage="admit"}`: vals[`station_stage_seconds_count{stage="admit"}`],
		"client_startup_slots_count":                 vals["client_startup_slots_count"],
	} {
		if got != n {
			t.Fatalf("%s = %v, want %d", name, got, n)
		}
	}
	if vals["vod_admit_first_byte_seconds_sum"] <= 0 {
		t.Fatalf("vod_admit_first_byte_seconds_sum = %v, want positive", vals["vod_admit_first_byte_seconds_sum"])
	}
}

// TestPprofEndpoint: the standard profiling index answers.
func TestPprofEndpoint(t *testing.T) {
	s := startObsServer(t)
	code, body := get(t, s, "/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("pprof status = %d", code)
	}
	if !strings.Contains(body, "goroutine") {
		t.Fatal("pprof index lacks profiles")
	}
}

// syncBuffer guards a bytes.Buffer: the span sink is written from server
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

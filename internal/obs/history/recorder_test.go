package history

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"vodcast/internal/obs"
)

// newTestRecorder wires a recorder over a populated store in a temp dir.
func newTestRecorder(t *testing.T, cfg RecorderConfig) (*Recorder, *manualClock) {
	t.Helper()
	clk := newManualClock()
	cfg.Dir = t.TempDir()
	cfg.Clock = clk.Now
	r, err := NewRecorder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, clk
}

// populatedStore returns a store with a few scrapes of two series on the
// given clock.
func populatedStore(t *testing.T, clk *manualClock) *Store {
	t.Helper()
	reg := obs.NewRegistry()
	g := reg.GaugeWith("vod_qoe_miss_rate", "", nil)
	c := reg.Counter("vod_requests_total", "")
	s := New(Config{Samples: reg.Samples, Interval: time.Second, Clock: clk.Now})
	for i := 0; i < 5; i++ {
		g.Set(float64(i) / 10)
		c.Add(1)
		s.Scrape()
		clk.Advance(time.Second)
	}
	return s
}

func TestRecorderBundleContents(t *testing.T) {
	clk := newManualClock()
	store := populatedStore(t, clk)
	dir := t.TempDir()
	r, err := NewRecorder(RecorderConfig{
		Dir:   dir,
		Clock: clk.Now,
		Store: store,
		Status: func() ([]byte, error) {
			return []byte(`{"uptime_seconds": 5, "alerts": [{"name": "miss_rate_high", "state": "firing"}]}`), nil
		},
		Spans: func() []obs.SpanRecord {
			return []obs.SpanRecord{{Name: "admit"}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	path, ok := r.Trigger("alert_miss_rate_high")
	if !ok {
		t.Fatal("Trigger refused the first capture")
	}
	if !strings.Contains(filepath.Base(path), "alert_miss_rate_high") {
		t.Fatalf("bundle name missing reason: %s", path)
	}

	// Every expected file is present and well-formed.
	var meta bundleMeta
	decodeFile(t, filepath.Join(path, "meta.json"), &meta)
	if meta.Reason != "alert_miss_rate_high" {
		t.Fatalf("meta reason = %q", meta.Reason)
	}
	if meta.StoreStats == nil || meta.StoreStats.Series != 2 {
		t.Fatalf("meta store stats = %+v", meta.StoreStats)
	}
	for _, f := range []string{"history.jsonl", "spans.jsonl", "status.json", "goroutine.pprof", "heap.pprof", "meta.json"} {
		if _, err := os.Stat(filepath.Join(path, f)); err != nil {
			t.Fatalf("bundle missing %s: %v", f, err)
		}
	}

	// history.jsonl: one line per series, points present, miss-rate ramp
	// recorded.
	lines := readJSONL(t, filepath.Join(path, "history.jsonl"))
	if len(lines) != 2 {
		t.Fatalf("history.jsonl has %d lines, want 2", len(lines))
	}
	var miss *historyLine
	for i := range lines {
		if lines[i].Series == "vod_qoe_miss_rate" {
			miss = &lines[i]
		}
	}
	if miss == nil || len(miss.Points) != 5 {
		t.Fatalf("miss-rate history wrong: %+v", lines)
	}
	if miss.Points[0].Value != 0 || miss.Points[4].Value != 0.4 {
		t.Fatalf("miss-rate ramp not recorded: %+v", miss.Points)
	}

	// status.json is the Status source's bytes, the alert table with them.
	var status struct {
		Alerts []obs.AlertStatus `json:"alerts"`
	}
	decodeFile(t, filepath.Join(path, "status.json"), &status)
	if len(status.Alerts) != 1 || status.Alerts[0].State != obs.StateFiring {
		t.Fatalf("status.json alerts wrong: %+v", status.Alerts)
	}

	// pprof profiles written with debug=0 are binary protos; just require
	// non-empty.
	for _, f := range []string{"goroutine.pprof", "heap.pprof"} {
		fi, err := os.Stat(filepath.Join(path, f))
		if err != nil || fi.Size() == 0 {
			t.Fatalf("profile %s empty or missing: %v", f, err)
		}
	}

	// No .tmp directory left behind.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temp dir leaked: %s", e.Name())
		}
	}
}

// TestRecorderBundleHoldsRawRing: once the raw ring has wrapped, the bundle
// still carries exactly what it retains — its last ringPoints scrapes, one
// second apart — and not a coarser tier reaching further back.
func TestRecorderBundleHoldsRawRing(t *testing.T) {
	clk := newManualClock()
	reg := obs.NewRegistry()
	c := reg.Counter("vod_requests_total", "")
	store := New(Config{Samples: reg.Samples, Interval: time.Second, Clock: clk.Now})
	const scrapes = ringPoints + 40
	for i := 0; i < scrapes; i++ {
		c.Add(1)
		store.Scrape()
		clk.Advance(time.Second)
	}
	r, err := NewRecorder(RecorderConfig{Dir: t.TempDir(), Clock: clk.Now, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	path, err := r.Force("test")
	if err != nil {
		t.Fatal(err)
	}
	lines := readJSONL(t, filepath.Join(path, "history.jsonl"))
	if len(lines) != 1 || len(lines[0].Points) != ringPoints {
		t.Fatalf("history.jsonl %+v, want one series of %d points", lines, ringPoints)
	}
	pts := lines[0].Points
	for i, p := range pts {
		if want := float64(scrapes - ringPoints + 1 + i); p.Value != want || (i > 0 && p.Unix-pts[i-1].Unix != 1) {
			t.Fatalf("point %d = %+v, want value %v one second after the last", i, p, want)
		}
	}
}

func TestRecorderCooldown(t *testing.T) {
	r, clk := newTestRecorder(t, RecorderConfig{})

	if _, ok := r.Trigger("first"); !ok {
		t.Fatal("first trigger refused")
	}
	if _, ok := r.Trigger("second"); ok {
		t.Fatal("second trigger inside cooldown captured")
	}
	clk.Advance(cooldown - time.Second)
	if _, ok := r.Trigger("third"); ok {
		t.Fatal("trigger at cooldown-1s captured")
	}
	clk.Advance(time.Second)
	if _, ok := r.Trigger("fourth"); !ok {
		t.Fatal("trigger after cooldown refused")
	}

	st := r.Stats()
	if st.Captured != 2 || st.Skipped != 2 {
		t.Fatalf("stats = %+v, want captured=2 skipped=2", st)
	}

	// Force bypasses the cooldown and re-arms it.
	if _, err := r.Force("operator"); err != nil {
		t.Fatalf("Force failed: %v", err)
	}
	if _, ok := r.Trigger("fifth"); ok {
		t.Fatal("trigger right after Force captured (cooldown not re-armed)")
	}
	if got := len(r.bundles()); got != 3 {
		t.Fatalf("bundles() = %d, want 3", got)
	}
}

func TestRecorderRetention(t *testing.T) {
	r, clk := newTestRecorder(t, RecorderConfig{})
	var made []string
	for i := 0; i < keep+2; i++ {
		path, err := r.Force("sweep")
		if err != nil {
			t.Fatal(err)
		}
		made = append(made, filepath.Base(path))
		clk.Advance(time.Second)
	}
	// Oldest-first naming: the survivors are exactly the keep most recent.
	if names, want := r.bundles(), made[2:]; !slices.Equal(names, want) {
		t.Fatalf("retention kept %v, want %v", names, want)
	}
}

func TestRecorderNilAndValidation(t *testing.T) {
	if _, err := NewRecorder(RecorderConfig{}); err == nil {
		t.Fatal("NewRecorder without Dir did not error")
	}
}

func TestSanitizeReason(t *testing.T) {
	cases := map[string]string{
		"":                      "manual",
		"alert_miss_rate_high":  "alert_miss_rate_high",
		"sig/quit ?":            "sig_quit__",
		strings.Repeat("a", 99): strings.Repeat("a", 48),
	}
	for in, want := range cases {
		if got := sanitizeReason(in); got != want {
			t.Fatalf("sanitizeReason(%q) = %q, want %q", in, got, want)
		}
	}
}

// decodeFile unmarshals one JSON file into v.
func decodeFile(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// readJSONL decodes every line of a history JSONL file.
func readJSONL(t *testing.T, path string) []historyLine {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []historyLine
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var line historyLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		out = append(out, line)
	}
	return out
}

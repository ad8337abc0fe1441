package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestWindowQuantiles checks exact quantiles on a known sample, before and
// after the ring wraps.
func TestWindowQuantiles(t *testing.T) {
	w := NewWindow(100)
	for i := 1; i <= 100; i++ {
		w.Observe(float64(i))
	}
	s := w.Snapshot()
	if s.Count != 100 || s.Total != 100 {
		t.Fatalf("count=%d total=%d", s.Count, s.Total)
	}
	if s.P50 != 50 || s.P95 != 95 || s.P99 != 99 || s.Max != 100 {
		t.Fatalf("quantiles p50=%v p95=%v p99=%v max=%v", s.P50, s.P95, s.P99, s.Max)
	}

	// Wrap: 50 more observations of 1000 displace the oldest 50.
	for i := 0; i < 50; i++ {
		w.Observe(1000)
	}
	s = w.Snapshot()
	if s.Count != 100 || s.Total != 150 {
		t.Fatalf("after wrap count=%d total=%d", s.Count, s.Total)
	}
	// Window now holds 51..100 and fifty 1000s; median is 100.
	if s.P50 != 100 || s.Max != 1000 {
		t.Fatalf("after wrap p50=%v max=%v", s.P50, s.Max)
	}
}

// TestWindowSLOBurn: burn rate is (bad fraction)/(error budget).
func TestWindowSLOBurn(t *testing.T) {
	w := NewWindow(0)
	if err := w.SetSLO(0.1, 0.99); err != nil {
		t.Fatal(err)
	}
	// 98 good, 2 bad: bad fraction 2%, budget 1% -> burn 2.0.
	for i := 0; i < 98; i++ {
		w.Observe(0.05)
	}
	w.Observe(0.2)
	w.Observe(0.3)
	s := w.Snapshot()
	if s.Good != 98 || s.Bad != 2 {
		t.Fatalf("good=%d bad=%d", s.Good, s.Bad)
	}
	if math.Abs(s.BurnRate-2.0) > 1e-9 {
		t.Fatalf("burn rate = %v, want 2.0", s.BurnRate)
	}
	if w.SetSLO(0, 0.99) == nil || w.SetSLO(1, 1) == nil || w.SetSLO(1, 0) == nil {
		t.Fatal("invalid SLO accepted")
	}
}

// TestWindowConcurrency: parallel observers plus snapshot readers, the
// -race proof for the tracker.
func TestWindowConcurrency(t *testing.T) {
	w := NewWindow(256)
	if err := w.SetSLO(0.5, 0.9); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				w.Observe(float64(i%10) / 10)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			w.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	s := w.Snapshot()
	if s.Total != 4000 || s.Good+s.Bad != 4000 {
		t.Fatalf("total=%d good+bad=%d, want 4000", s.Total, s.Good+s.Bad)
	}
	if s.Count != 256 {
		t.Fatalf("window count = %d, want 256", s.Count)
	}
}

// TestRegisterRuntime: the collector's gauges expose, carry valid names and
// plausible values.
func TestRegisterRuntime(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	if n := len(familyNames(r)); n != 3 {
		t.Fatalf("RegisterRuntime registered %d families, want 3: %v", n, familyNames(r))
	}
	for _, name := range familyNames(r) {
		if !ValidMetricName(name) {
			t.Fatalf("runtime gauge %q invalid", name)
		}
	}
	var buf bytes.Buffer
	if err := r.WritePrometheusPrefix(&buf, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{
		"go_goroutines", "go_heap_alloc_bytes", "go_gc_cycles_total",
	} {
		if !strings.Contains(out, "# TYPE "+name+" gauge") {
			t.Fatalf("missing runtime gauge %s in:\n%s", name, out)
		}
	}
	samples := parseExposition(t, out)
	if samples["go_goroutines"] < 1 {
		t.Fatalf("go_goroutines = %v", samples["go_goroutines"])
	}
	if samples["go_heap_alloc_bytes"] <= 0 {
		t.Fatalf("go_heap_alloc_bytes = %v", samples["go_heap_alloc_bytes"])
	}
}

func TestWindowMean(t *testing.T) {
	w := NewWindow(4)
	if got := w.Snapshot().Mean; got != 0 {
		t.Fatalf("empty window mean = %v, want 0", got)
	}
	for _, v := range []float64{1, 2, 3, 4} {
		w.Observe(v)
	}
	if got := w.Snapshot().Mean; got != 2.5 {
		t.Fatalf("mean = %v, want 2.5", got)
	}
	// Rolling: 1 falls out, 9 comes in -> (2+3+4+9)/4.
	w.Observe(9)
	if got := w.Snapshot().Mean; got != 4.5 {
		t.Fatalf("rolled mean = %v, want 4.5", got)
	}
}

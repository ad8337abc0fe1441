package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// TestHighWatermarkSpikeSurvivesScrape is the regression test for the plain-
// gauge failure mode: a one-tick depth spike followed by quieter ticks must
// still be the value the next scrape reads, and once consumed the next
// interval starts fresh.
func TestHighWatermarkSpikeSurvivesScrape(t *testing.T) {
	var h HighWatermark
	h.Record(10) // the spike tick
	h.Record(2)  // later, quieter tick — a plain gauge would overwrite here
	h.Record(3)
	if got := h.Read(); got != 10 {
		t.Fatalf("spike lost: Read() = %v, want 10", got)
	}
	// The read consumed the interval; the next one only sees what follows.
	if got := h.Read(); got != 0 {
		t.Fatalf("Read() after reset = %v, want 0", got)
	}
	h.Record(2)
	if got := h.Read(); got != 2 {
		t.Fatalf("post-reset Read() = %v, want 2", got)
	}
}

// TestHighWatermarkGaugeFunc wires a watermark through GaugeFunc the way the
// server registers vod_fanout_ring_depth_max and asserts the scrape sees the
// inter-scrape maximum, not the last Set value.
func TestHighWatermarkGaugeFunc(t *testing.T) {
	var h HighWatermark
	r := NewRegistry()
	r.GaugeFunc("vod_fanout_ring_depth_max", "", h.Read)

	h.Record(7)
	h.Record(1)
	var buf bytes.Buffer
	if err := r.WritePrometheusPrefix(&buf, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "vod_fanout_ring_depth_max 7\n") {
		t.Fatalf("scrape missed the spike:\n%s", buf.String())
	}
	buf.Reset()
	if err := r.WritePrometheusPrefix(&buf, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "vod_fanout_ring_depth_max 0\n") {
		t.Fatalf("watermark not reset by scrape:\n%s", buf.String())
	}
}

// TestHighWatermarkConcurrent hammers Record from many goroutines and checks
// the final read is exactly the global maximum — the CAS loop must not lose
// the largest value under contention.
func TestHighWatermarkConcurrent(t *testing.T) {
	var h HighWatermark
	var wg sync.WaitGroup
	const writers, perWriter = 8, 1000
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Record(float64(w*perWriter + i))
			}
		}(w)
	}
	wg.Wait()
	if got, want := h.Read(), float64(writers*perWriter-1); got != want {
		t.Fatalf("Read() = %v, want %v", got, want)
	}
}

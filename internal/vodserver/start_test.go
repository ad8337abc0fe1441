package vodserver

import (
	"runtime"
	"testing"
	"time"
)

// catalogueConfig is a CBR catalogue of videos × segments × segmentBytes on
// a one-second slot, so a Start+Close pair sees no tick.
func catalogueConfig(videos, segments, segmentBytes int) Config {
	cfg := Config{Addr: "127.0.0.1:0", SlotDuration: time.Second}
	cfg.Videos = make([]VideoConfig, videos)
	for i := range cfg.Videos {
		cfg.Videos[i] = VideoConfig{ID: uint32(i + 1), Segments: segments, SegmentBytes: segmentBytes}
	}
	return cfg
}

// startClose runs one Start+Close pair on cfg and returns the bytes it
// allocated.
func startClose(tb testing.TB, cfg Config) uint64 {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := Start(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	s.Close()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestStartCostIndependentOfSegmentBytes: Start builds no payload, so a
// catalogue of 16 KiB segments costs what the same catalogue of 16 B
// segments costs; building them eagerly would allocate about 126 MB more.
func TestStartCostIndependentOfSegmentBytes(t *testing.T) {
	const videos, segments = 256, 30
	small, big := catalogueConfig(videos, segments, 16), catalogueConfig(videos, segments, 16<<10)
	startClose(t, small) // warm one-time initialisation out of the comparison
	a, b := startClose(t, small), startClose(t, big)
	diff := int64(b) - int64(a)
	if diff < 0 {
		diff = -diff
	}
	if diff >= 1<<20 {
		t.Fatalf("Start+Close allocated %d B at 16 B segments and %d B at 16 KiB, want < 1 MiB apart", a, b)
	}
}

// BenchmarkStart is the set-up cost of the longtail catalogue: Start+Close
// on 2048 videos × 30 segments × 256 B.
func BenchmarkStart(b *testing.B) {
	cfg := catalogueConfig(2048, 30, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := Start(cfg)
		if err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}

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

// startClose runs one Start+Close pair on cfg and returns the objects and
// bytes it allocated.
func startClose(tb testing.TB, cfg Config) (allocs, bytes uint64) {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := Start(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	s.Close()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// minStartClose is startClose's least cost over three runs, which filters
// out allocations made meanwhile by goroutines outside the pair.
func minStartClose(tb testing.TB, cfg Config) (allocs, bytes uint64) {
	tb.Helper()
	allocs, bytes = startClose(tb, cfg)
	for range 2 {
		a, b := startClose(tb, cfg)
		allocs, bytes = min(allocs, a), min(bytes, b)
	}
	return allocs, bytes
}

// TestStartCostPerIdleVideo is the start-up cost gate: a video's serving
// state is built by its first admission, so each video a catalogue adds
// costs Start+Close at most 4 allocations and 512 bytes — its configuration
// and catalogue entries, no scheduler, subscriber set, wire vectors or
// series.
func TestStartCostPerIdleVideo(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const videos = 2048
	one, many := catalogueConfig(1, 30, 256), catalogueConfig(videos, 30, 256)
	startClose(t, many) // warm one-time initialisation out of the comparison
	a1, b1 := minStartClose(t, one)
	a2, b2 := minStartClose(t, many)
	allocs := (float64(a2) - float64(a1)) / (videos - 1)
	bytes := (float64(b2) - float64(b1)) / (videos - 1)
	t.Logf("Start+Close: %d allocs, %d B at 1 video; %d allocs, %d B at %d; %.2f allocs, %.0f B per idle video",
		a1, b1, a2, b2, videos, allocs, bytes)
	if allocs > 4 || bytes > 512 {
		t.Fatalf("each idle video costs Start+Close %.2f allocations and %.0f B, want <= 4 and <= 512", allocs, bytes)
	}
}

// TestStartCostIndependentOfSegmentBytes: Start builds no payload, so a
// catalogue of 16 KiB segments costs what the same catalogue of 16 B
// segments costs; building them eagerly would allocate about 126 MB more.
func TestStartCostIndependentOfSegmentBytes(t *testing.T) {
	const videos, segments = 256, 30
	small, big := catalogueConfig(videos, segments, 16), catalogueConfig(videos, segments, 16<<10)
	startClose(t, small) // warm one-time initialisation out of the comparison
	_, a := startClose(t, small)
	_, b := startClose(t, big)
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

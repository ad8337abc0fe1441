package fanout

import (
	"fmt"
	"testing"
)

// benchSizes is a VBR-ish segment size vector; each slot broadcasts a
// rotating window of segments so ticks exercise different frame shapes.
var benchSizes = []int{1500, 700, 2200, 900, 4096, 333, 1234, 800, 600, 2048}

func benchSegments(slot int) []int {
	// Three segments per slot, rotating through the catalogue.
	base := slot % len(benchSizes)
	return []int{
		1 + base,
		1 + (base+3)%len(benchSizes),
		1 + (base+7)%len(benchSizes),
	}
}

// benchCatalogue builds the zero-copy side of one benchmark point: an
// encoder over `videos` identical VBR catalogues and a COW subscriber set
// of `subs` rings per video.
func benchCatalogue(b *testing.B, videos, subs int) (*Encoder, []*Set[*Ring]) {
	b.Helper()
	enc := NewEncoder()
	sets := make([]*Set[*Ring], videos)
	for v := 0; v < videos; v++ {
		if err := enc.AddVideo(uint32(v+1), benchSizes); err != nil {
			b.Fatal(err)
		}
		sets[v] = NewSet[*Ring]()
		for i := 0; i < subs; i++ {
			sets[v].Add(NewRing(8))
		}
	}
	return enc, sets
}

// zerocopySpan runs one tick over the catalogue span [lo, hi): encode each
// video's slot once, push the shared frame to every subscriber in the COW
// snapshot, then drain the rings inline so the benchmark charges the
// consumer's release without socket noise. scratch is the worker's reusable
// drain buffer.
func zerocopySpan(enc *Encoder, sets []*Set[*Ring], segs [][]int, slot, lo, hi int, scratch *[]*Frame) {
	for v := lo; v < hi; v++ {
		f, err := enc.EncodeSlot(uint32(v+1), slot, segs[slot%len(segs)], nil)
		if err != nil {
			panic(err)
		}
		snap := sets[v].Snapshot()
		for _, r := range snap {
			f.Retain()
			if _, ok := r.Push(f); !ok {
				f.Release()
			}
		}
		f.Release()
		for _, r := range snap {
			var frames []*Frame
			frames, _ = r.PopAll((*scratch)[:0])
			for _, g := range frames {
				g.Release()
			}
			*scratch = frames
		}
	}
}

// BenchmarkFanOut measures one broadcast tick across the videos ×
// subscribers-per-video matrix for two data planes:
//
//   - zerocopy-serial: the shared ref-counted frame plane walked by one
//     goroutine, as a one-span clock does;
//   - reference: per-tick serialization into a fresh buffer, one copy per
//     subscriber channel (the retained executable spec).
//
// The zerocopy-parallel arm — the same plane over the station's span pool —
// is the benchmark of the same name in internal/station. The zero-copy rows
// must report 0 allocs/op at steady state — make ci gates the same property
// through TestSteadyStateZeroAlloc. The serving-path figures are the
// fanout.* rows of BENCHMARK.json.
func BenchmarkFanOut(b *testing.B) {
	// Segment lists are precomputed so the loop measures the data plane,
	// not the scenario generator.
	segs := make([][]int, 64)
	for i := range segs {
		segs[i] = benchSegments(i)
	}

	points := [][2]int{
		{1, 1}, {1, 16}, {1, 64},
		{4, 1}, {4, 16}, {4, 64},
		{64, 256},
	}
	for _, pt := range points {
		videos, subs := pt[0], pt[1]
		name := fmt.Sprintf("videos=%d/subs=%d", videos, subs)

		b.Run(name+"/zerocopy-serial", func(b *testing.B) {
			enc, sets := benchCatalogue(b, videos, subs)
			var scratch []*Frame
			// Warm the frame pool before measuring.
			for i := 0; i < 8; i++ {
				zerocopySpan(enc, sets, segs, i, 0, videos, &scratch)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				zerocopySpan(enc, sets, segs, i, 0, videos, &scratch)
			}
		})

		b.Run(name+"/reference", func(b *testing.B) {
			ref := NewFanoutReference()
			chans := make([][]chan []byte, videos)
			for v := 0; v < videos; v++ {
				if err := ref.AddVideo(uint32(v+1), benchSizes); err != nil {
					b.Fatal(err)
				}
				chans[v] = make([]chan []byte, subs)
				for i := range chans[v] {
					chans[v][i] = make(chan []byte, 8)
				}
			}
			tick := func(slot int) {
				for v := 0; v < videos; v++ {
					payload, _, err := ref.EncodeSlot(uint32(v+1), slot, segs[slot%len(segs)], nil)
					if err != nil {
						b.Fatal(err)
					}
					for _, c := range chans[v] {
						select {
						case c <- payload:
						default:
						}
					}
					for _, c := range chans[v] {
						for {
							select {
							case <-c:
								continue
							default:
							}
							break
						}
					}
				}
			}
			for i := 0; i < 8; i++ {
				tick(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tick(i)
			}
		})
	}
}

// BenchmarkEncodeSlot prices one video's slot encode, payloads generated in
// place, at the serving benchmark's four workload shapes: instances per slot
// × segment bytes. One op is one video-slot; it must allocate nothing.
func BenchmarkEncodeSlot(b *testing.B) {
	shapes := []struct {
		name      string
		instances int
		bytes     int
	}{
		{"churn", 2, 64},
		{"resume", 3, 64},
		{"longtail", 4, 256},
		{"audience", 5, 1024},
	}
	for _, sh := range shapes {
		b.Run(fmt.Sprintf("%s/%dx%dB", sh.name, sh.instances, sh.bytes), func(b *testing.B) {
			const segments = 64
			sizes := make([]int, segments)
			for i := range sizes {
				sizes[i] = sh.bytes
			}
			enc := NewEncoder()
			if err := enc.AddVideo(1, sizes); err != nil {
				b.Fatal(err)
			}
			segs := make([]int, sh.instances)
			encode := func(slot int) {
				for i := range segs {
					segs[i] = 1 + (slot+i*7)%segments
				}
				f, err := enc.EncodeSlot(1, slot, segs, nil)
				if err != nil {
					b.Fatal(err)
				}
				f.Release()
			}
			for i := 0; i < 8; i++ {
				encode(i)
			}
			b.SetBytes(int64(sh.instances * sh.bytes))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				encode(i)
			}
		})
	}
}

package station

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"vodcast/internal/core"
	"vodcast/internal/fanout"
)

// singleMutexEngine is the baseline the station is measured against: the same per-video schedulers behind ONE engine-wide mutex, the
// design a straightforward "make it concurrent" port of the simulation
// would produce. Every admission serializes against every other, whatever
// the video.
type singleMutexEngine struct {
	mu     sync.Mutex
	scheds []*core.Scheduler
}

func newSingleMutexEngine(b *testing.B, videos, segments int) *singleMutexEngine {
	e := &singleMutexEngine{scheds: make([]*core.Scheduler, videos)}
	for i := range e.scheds {
		s, err := core.New(core.Config{Segments: segments})
		if err != nil {
			b.Fatal(err)
		}
		e.scheds[i] = s
	}
	return e
}

func (e *singleMutexEngine) Admit(video int) {
	e.mu.Lock()
	e.scheds[video].AdmitRequest(core.AdmitOptions{})
	e.mu.Unlock()
}

func (e *singleMutexEngine) AdvanceSlot() {
	e.mu.Lock()
	for _, s := range e.scheds {
		s.AdvanceSlot()
	}
	e.mu.Unlock()
}

const (
	benchVideos   = 64
	benchSegments = 100
)

func newBenchStation(b *testing.B) *Station {
	st, err := New(Config{Videos: testCatalogue(benchVideos, benchSegments)})
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkStationAdmit measures parallel admission throughput: goroutines
// admit across the catalogue round-robin. "station" is the station (one
// lock per video); "single-mutex" is the whole-engine-lock baseline. The
// admit cost on the serving path is the station.admit_ns row of
// BENCHMARK.json.
func BenchmarkStationAdmit(b *testing.B) {
	b.Run("station", func(b *testing.B) {
		st := newBenchStation(b)
		var next atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			v := int(next.Add(1)) % benchVideos
			for pb.Next() {
				if _, err := st.Admit(v, core.AdmitOptions{}); err != nil {
					b.Error(err)
					return
				}
				v = (v + 1) % benchVideos
			}
		})
	})
	b.Run("single-mutex", func(b *testing.B) {
		e := newSingleMutexEngine(b, benchVideos, benchSegments)
		var next atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			v := int(next.Add(1)) % benchVideos
			for pb.Next() {
				e.Admit(v)
				v = (v + 1) % benchVideos
			}
		})
	})
}

// BenchmarkStationMixed interleaves admissions with slot advances (one
// advance per 256 operations per goroutine), the realistic steady state of
// a clock-driven server under load.
func BenchmarkStationMixed(b *testing.B) {
	b.Run("station", func(b *testing.B) {
		st := newBenchStation(b)
		var next atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			v := int(next.Add(1)) % benchVideos
			n := 0
			for pb.Next() {
				if n++; n%256 == 0 {
					st.AdvanceSlot()
					continue
				}
				if _, err := st.Admit(v, core.AdmitOptions{}); err != nil {
					b.Error(err)
					return
				}
				v = (v + 1) % benchVideos
			}
		})
	})
	b.Run("single-mutex", func(b *testing.B) {
		e := newSingleMutexEngine(b, benchVideos, benchSegments)
		var next atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			v := int(next.Add(1)) % benchVideos
			n := 0
			for pb.Next() {
				if n++; n%256 == 0 {
					e.AdvanceSlot()
					continue
				}
				e.Admit(v)
				v = (v + 1) % benchVideos
			}
		})
	})
}

// BenchmarkStationTick is one slot of a mostly idle catalogue: advance, then
// walk the active videos. Sixteen videos are admitted once and kept active
// by an audience whatever the catalogue size, so the two rows differ only
// by the idle videos: their dense report entries are the whole difference,
// and neither row allocates.
func BenchmarkStationTick(b *testing.B) {
	for _, videos := range []int{64, 4096} {
		b.Run(fmt.Sprintf("videos=%d", videos), func(b *testing.B) {
			st, err := New(Config{Videos: testCatalogue(videos, benchSegments), Shards: 1})
			if err != nil {
				b.Fatal(err)
			}
			for v := 0; v < videos; v += videos / 16 {
				if _, err := st.Admit(v, core.AdmitOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			visits := 0
			walk := func(_, _ int, _ core.SlotReport) bool { visits++; return true }
			var reports []core.SlotReport
			for i := 0; i < 4; i++ { // size the report and compaction buffers
				reports = st.AdvanceSlotInto(reports)
				st.EachActive(walk)
			}
			visits = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reports = st.AdvanceSlotInto(reports)
				st.EachActive(walk)
			}
			if visits != 16*b.N {
				b.Fatalf("walked %d videos in %d ticks, want 16 per tick", visits, b.N)
			}
		})
	}
}

// BenchmarkFanOut is the zerocopy-parallel arm of the benchmark of the same
// name in internal/fanout (same matrix, same per-video work): one broadcast tick of the zero-copy data plane walked
// through EachActive on the clock's pool (every video admitted once and kept
// active by its audience), one span per GOMAXPROCS. The pool is armed by
// hand, even over a single span, so every row carries the wake/join handoff
// a clock over several spans pays.
func BenchmarkFanOut(b *testing.B) {
	// A VBR-ish segment size vector; each slot broadcasts a rotating window
	// of three segments so ticks exercise different frame shapes.
	sizes := []int{1500, 700, 2200, 900, 4096, 333, 1234, 800, 600, 2048}
	segs := make([][]int, 64)
	for i := range segs {
		segs[i] = []int{1 + i%len(sizes), 1 + (i+3)%len(sizes), 1 + (i+7)%len(sizes)}
	}
	for _, pt := range [][2]int{{1, 1}, {1, 16}, {1, 64}, {4, 1}, {4, 16}, {4, 64}, {64, 256}} {
		videos, subs := pt[0], pt[1]
		b.Run(fmt.Sprintf("videos=%d/subs=%d/zerocopy-parallel", videos, subs), func(b *testing.B) {
			st, err := New(Config{Videos: testCatalogue(videos, len(sizes))})
			if err != nil {
				b.Fatal(err)
			}
			enc := fanout.NewEncoder()
			sets := make([]*fanout.Set[*fanout.Ring], videos)
			for v := range sets {
				if err := enc.AddVideo(uint32(v+1), sizes); err != nil {
					b.Fatal(err)
				}
				sets[v] = fanout.NewSet[*fanout.Ring]()
				for i := 0; i < subs; i++ {
					sets[v].Add(fanout.NewRing(8))
				}
			}
			scratches := make([][]*fanout.Frame, st.Shards())
			slot := 0
			// Encode each video's slot once, push the shared frame to every
			// subscriber, then drain the rings inline so the benchmark charges
			// the consumer's release without socket noise.
			walk := func(worker, v int, _ core.SlotReport) bool {
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
					frames, _ := r.PopAll(scratches[worker][:0])
					for _, g := range frames {
						g.Release()
					}
					scratches[worker] = frames
				}
				return true
			}
			admitAll(b, st)
			st.pool = startWorkers(st.spans)
			defer st.pool.close()
			for i := 0; i < 8; i++ { // warm the frame pool
				slot = i
				st.EachActive(walk)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				slot = i
				st.EachActive(walk)
			}
		})
	}
}

// nullWriter writes each frame with one write(2) to a video's /dev/null file
// and counts it in direct, which only the span owning the video touches.
type nullWriter struct {
	f      *os.File
	direct int
}

func (w *nullWriter) WriteDirect(frames []*fanout.Frame, skip int) (done, sent int) {
	for _, f := range frames {
		n, err := w.f.Write(f.Bytes()[skip:])
		w.direct++
		if err != nil || n < len(f.Bytes())-skip {
			return done, skip + n
		}
		done, skip = done+1, 0
	}
	return done, 0
}

// BenchmarkTickDirectWrites is one slot of the tick's writes: 64 videos ×
// 256 rings, each lent its video's writer, so each push is one write(2) on
// the tick's span. Spans follow GOMAXPROCS and the pool is armed over more
// than one, as the clock does, so -cpu 1,2 reads what the pool buys. Each
// video has its own file: an *os.File's fd lock serializes writers.
func BenchmarkTickDirectWrites(b *testing.B) {
	const videos, subs = 64, 256
	sizes := []int{1500, 700, 2200, 900}
	st, err := New(Config{Videos: testCatalogue(videos, len(sizes))})
	if err != nil {
		b.Fatal(err)
	}
	enc := fanout.NewEncoder()
	writers := make([]*nullWriter, videos)
	rings := make([][]*fanout.Ring, videos)
	for v := range rings {
		if err := enc.AddVideo(uint32(v+1), sizes); err != nil {
			b.Fatal(err)
		}
		f, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		writers[v] = &nullWriter{f: f}
		for i := 0; i < subs; i++ {
			r := fanout.NewRing(8)
			r.Write(writers[v])
			rings[v] = append(rings[v], r)
		}
	}
	slot := 0
	walk := func(_, v int, _ core.SlotReport) bool {
		f, err := enc.EncodeSlot(uint32(v+1), slot, []int{1 + slot%len(sizes)}, nil)
		if err != nil {
			panic(err)
		}
		for _, r := range rings[v] {
			f.Retain()
			r.Push(f)
		}
		f.Release()
		return true
	}
	admitAll(b, st)
	if st.Shards() > 1 {
		st.pool = startWorkers(st.spans)
		defer st.pool.close()
	}
	for ; slot < 8; slot++ { // warm the frame pool
		st.EachActive(walk)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot++
		st.EachActive(walk)
	}
	b.StopTimer()
	for _, rs := range rings {
		for _, r := range rs {
			r.Drop()
		}
	}
}

package station

import (
	"sync"
	"sync/atomic"
	"testing"

	"vodcast/internal/core"
)

// singleMutexEngine is the baseline the sharded station is measured
// against: the same per-video schedulers behind ONE engine-wide mutex, the
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
// admit across the catalogue round-robin. "sharded" is the station;
// "single-mutex" is the whole-engine-lock baseline. On a multi-core host
// the sharded engine's advantage is the point of the design; on one core
// the two mostly measure lock overhead.
func BenchmarkStationAdmit(b *testing.B) {
	b.Run("sharded", func(b *testing.B) {
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
	b.Run("sharded", func(b *testing.B) {
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

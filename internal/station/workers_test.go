package station

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"vodcast/internal/fanout"
)

// TestWorkersCoverSpansExactlyOnce: every tick runs that tick's span
// function — it may change from one tick to the next, as the clock's advance
// and the fan-out walk alternate — over every span exactly once.
func TestWorkersCoverSpansExactlyOnce(t *testing.T) {
	spans := [][2]int{{0, 3}, {3, 7}, {7, 8}}
	var hits, otherHits [8]atomic.Int64
	var ticks atomic.Int64
	cover := func(hits *[8]atomic.Int64) func(worker, lo, hi int) {
		return func(worker, lo, hi int) {
			if spans[worker] != [2]int{lo, hi} {
				t.Errorf("worker %d ran [%d, %d), want %v", worker, lo, hi, spans[worker])
			}
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
			ticks.Add(1)
		}
	}
	w := startWorkers(spans)
	defer w.close()
	const rounds = 50
	for r := 1; r <= rounds; r++ {
		w.tick(cover(&hits))
		w.tick(cover(&otherHits))
		for i := range hits {
			if got, other := hits[i].Load(), otherHits[i].Load(); got != int64(r) || other != int64(r) {
				t.Fatalf("after round %d index %d covered %d and %d times", r, i, got, other)
			}
		}
	}
	if got := ticks.Load(); got != 2*rounds*int64(len(spans)) {
		t.Fatalf("span executions = %d, want %d", got, 2*rounds*len(spans))
	}
}

func TestWorkersEmpty(t *testing.T) {
	w := startWorkers(nil)
	w.tick(func(int, int, int) { t.Error("run invoked with no spans") })
	w.close()
}

// TestWorkersParallelSetChurn combines the pool and the copy-on-write
// subscriber set the way the server does: workers push shared frames into
// per-video sets while an admin goroutine churns membership — meant for the
// -race and -cpu 4 CI lanes.
func TestWorkersParallelSetChurn(t *testing.T) {
	enc := fanout.NewEncoder()
	if err := enc.AddVideo(1, []int{1000, 1000}); err != nil {
		t.Fatal(err)
	}
	const videos = 8
	sets := make([]*fanout.Set[*fanout.Ring], videos)
	for i := range sets {
		sets[i] = fanout.NewSet[*fanout.Ring]()
	}
	spans := [][2]int{{0, 2}, {2, 4}, {4, 6}, {6, 8}}
	var slot atomic.Int64
	var scratches [4][]*fanout.Frame
	w := startWorkers(spans)
	defer w.close()
	span := func(worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			f, err := enc.EncodeSlot(1, int(slot.Load()), []int{1, 2}, nil)
			if err != nil {
				panic(err)
			}
			// One snapshot serves push and drain: a ring added between two
			// separate snapshots would be empty and block PopAll forever.
			snap := sets[i].Snapshot()
			for _, r := range snap {
				f.Retain()
				if _, ok := r.Push(f); !ok {
					f.Release()
				}
			}
			f.Release()
			// Drain this span's rings inline so refcounts settle per tick:
			// every pushed ring has a frame queued (or was dropped), so the
			// blocking PopAll returns immediately.
			for _, r := range snap {
				var frames []*fanout.Frame
				frames, _ = r.PopAll(scratches[worker][:0])
				for _, g := range frames {
					g.Release()
				}
				scratches[worker] = frames
			}
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 400; i++ {
			v := rng.Intn(videos)
			if rng.Intn(2) == 0 {
				sets[v].Add(fanout.NewRing(4))
			} else if snap := sets[v].Snapshot(); len(snap) > 0 {
				if sets[v].Remove(snap[0]) {
					snap[0].Drop()
				}
			}
		}
	}()
	for tick := 0; tick < 200; tick++ {
		slot.Store(int64(tick))
		w.tick(span)
	}
	<-done
	for _, s := range sets {
		for _, r := range s.Close() {
			r.Drop()
		}
	}
}

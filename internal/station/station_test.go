package station

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vodcast/internal/core"
	"vodcast/internal/obs"
)

func testCatalogue(k, segments int) []VideoConfig {
	videos := make([]VideoConfig, k)
	for i := range videos {
		videos[i] = VideoConfig{Segments: segments}
	}
	return videos
}

// TestNewSentinelErrors: every validation failure of New is classifiable
// with errors.Is, including per-video scheduler failures through the wrap
// chain.
func TestNewSentinelErrors(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		want error
	}{
		{"empty catalogue", Config{}, ErrEmptyCatalogue},
		{"negative shards", Config{Videos: testCatalogue(1, 4), Shards: -1}, ErrBadShards},
		{"bad video", Config{Videos: []VideoConfig{{Segments: -2}}}, core.ErrBadSegmentCount},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.cfg)
			if !errors.Is(err, tt.want) {
				t.Fatalf("New err = %v, want %v", err, tt.want)
			}
		})
	}
}

// TestShardAssignment: the span count is Config.Shards, defaulting to
// GOMAXPROCS and capped at the catalogue size.
func TestShardAssignment(t *testing.T) {
	st, err := New(Config{Videos: testCatalogue(5, 8), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards() != 2 || st.Videos() != 5 {
		t.Fatalf("got %d shards, %d videos", st.Shards(), st.Videos())
	}
	// More shards than videos collapses to one span per video.
	st2, err := New(Config{Videos: testCatalogue(3, 8), Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Shards() != 3 {
		t.Fatalf("got %d shards for 3 videos", st2.Shards())
	}
	st3, err := New(Config{Videos: testCatalogue(2048, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if st3.Shards() != runtime.GOMAXPROCS(0) {
		t.Fatalf("got %d shards by default, want GOMAXPROCS = %d", st3.Shards(), runtime.GOMAXPROCS(0))
	}
}

// TestSpanPartition: the catalogue's one partition tiles [0, Videos())
// exactly once with contiguous, in-order, near-equal spans, for every
// catalogue size and span count including the degenerate ones.
func TestSpanPartition(t *testing.T) {
	for _, videos := range []int{1, 3, 4, 7, 2048} {
		for _, shards := range []int{1, 4, 8} {
			st, err := New(Config{Videos: testCatalogue(videos, 2), Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			want := min(shards, videos)
			if st.Shards() != want {
				t.Fatalf("%d videos / %d shards: %d spans, want %d", videos, shards, st.Shards(), want)
			}
			visits := make([]int, videos)
			next, lo := 0, 0
			st.EachSpan(func(worker, spanLo, spanHi int) {
				if worker != next || spanLo != lo {
					t.Fatalf("%d videos / %d shards: span %d is [%d, %d), want span %d starting at %d (gap, overlap or out of order)",
						videos, shards, worker, spanLo, spanHi, next, lo)
				}
				if size := spanHi - spanLo; size < videos/want || size > videos/want+1 {
					t.Fatalf("%d videos / %d shards: span %d has %d videos, want near-equal %d..%d",
						videos, shards, worker, size, videos/want, videos/want+1)
				}
				for v := spanLo; v < spanHi; v++ {
					visits[v]++
				}
				next, lo = worker+1, spanHi
			})
			if next != want || lo != videos {
				t.Fatalf("%d videos / %d shards: %d spans covering [0, %d), want %d covering [0, %d)",
					videos, shards, next, lo, want, videos)
			}
			for v, n := range visits {
				if n != 1 {
					t.Fatalf("%d videos / %d shards: video %d visited %d times", videos, shards, v, n)
				}
			}
		}
	}
}

// goroutineBaseline reads the goroutine count once earlier tests' exiting
// goroutines have unwound: two equal reads a few milliseconds apart.
func goroutineBaseline() int {
	n := runtime.NumGoroutine()
	for {
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
}

// settleGoroutines waits for the goroutine count to fall back to baseline:
// a goroutine whose exit has been joined may still be unwinding.
func settleGoroutines(t *testing.T, baseline int, after string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after %s, baseline %d", runtime.NumGoroutine(), after, baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestManualAdvanceStartsNoGoroutine: a hand-driven station is a plain
// serial loop whatever its span count.
func TestManualAdvanceStartsNoGoroutine(t *testing.T) {
	st, err := New(Config{Videos: testCatalogue(8, 10), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	baseline := goroutineBaseline()
	for i := 0; i < 100; i++ {
		if _, err := st.Admit(i%8, core.AdmitOptions{}); err != nil {
			t.Fatal(err)
		}
		st.AdvanceSlot()
		if n := runtime.NumGoroutine(); n > baseline {
			t.Fatalf("advance %d: %d goroutines, baseline %d", i, n, baseline)
		}
	}
}

// TestClockPoolLifecycle: a clock over four spans runs its advance and the
// tick callback's EachSpan on the pool — every video exactly once per tick,
// one worker index per span — and StopClock, and then Close, leave no
// goroutine behind.
func TestClockPoolLifecycle(t *testing.T) {
	const videos = 10
	st, err := New(Config{Videos: testCatalogue(videos, 10), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	baseline := goroutineBaseline()
	var ticks atomic.Int64
	var visits [videos]atomic.Int64
	var byWorker [4]atomic.Int64
	onTick := func(reports []core.SlotReport) {
		st.EachSpan(func(worker, lo, hi int) {
			byWorker[worker].Add(1)
			for v := lo; v < hi; v++ {
				visits[v].Add(1)
				if reports[v].Slot != reports[0].Slot {
					t.Errorf("video %d retired slot %d while video 0 retired %d", v, reports[v].Slot, reports[0].Slot)
				}
			}
		})
		ticks.Add(1)
	}
	for _, stop := range []struct {
		name string
		fn   func()
	}{{"StopClock", st.StopClock}, {"Close", st.Close}} {
		before := ticks.Load()
		if err := st.StartClock(200*time.Microsecond, onTick); err != nil {
			t.Fatal(err)
		}
		for ticks.Load() < before+5 {
			time.Sleep(time.Millisecond)
		}
		if st.pool == nil {
			t.Fatal("a 4-span clock runs without its pool")
		}
		stop.fn()
		if st.pool != nil {
			t.Fatalf("%s left the pool behind", stop.name)
		}
		settleGoroutines(t, baseline, stop.name)
	}
	n := ticks.Load()
	for v := range visits {
		if got := visits[v].Load(); got != n {
			t.Fatalf("video %d walked %d times in %d ticks", v, got, n)
		}
	}
	for w := range byWorker {
		if got := byWorker[w].Load(); got != n {
			t.Fatalf("worker %d ran %d spans in %d ticks", w, got, n)
		}
	}
	for v := 0; v < videos; v++ {
		if got := st.CurrentSlot(v); int64(got) != n {
			t.Fatalf("video %d at slot %d after %d ticks", v, got, n)
		}
	}
}

// TestAdmitValidation: unknown videos and bad resume points are rejected
// with sentinels and leave the engine untouched.
func TestAdmitValidation(t *testing.T) {
	st, err := New(Config{Videos: testCatalogue(2, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Admit(7, core.AdmitOptions{}); !errors.Is(err, ErrUnknownVideo) {
		t.Fatalf("admit unknown video: %v", err)
	}
	if _, err := st.Admit(-1, core.AdmitOptions{}); !errors.Is(err, ErrUnknownVideo) {
		t.Fatalf("admit negative video: %v", err)
	}
	if _, err := st.Admit(0, core.AdmitOptions{From: 99}); !errors.Is(err, core.ErrBadResumePoint) {
		t.Fatalf("admit bad resume: %v", err)
	}
	if req, inst := st.Totals(); req != 0 || inst != 0 {
		t.Fatalf("rejections mutated the engine: %d requests, %d instances", req, inst)
	}
}

// TestConcurrentEquivalence is the load-bearing correctness test of the
// engine: a station serving K videos with admissions issued from
// many goroutines at once must produce, video for video and slot for slot,
// exactly the schedule K independent single-threaded schedulers produce for
// the same per-slot arrival counts. Within a slot all admissions for one
// video are identical operations, so the end state depends only on the
// counts, not the interleaving — which is why the comparison can be exact.
func TestConcurrentEquivalence(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testConcurrentEquivalence(t, shards) })
	}
}

func testConcurrentEquivalence(t *testing.T, shards int) {
	const (
		videos  = 7
		slots   = 60
		maxRate = 5 // max arrivals per video per slot
	)
	segs := []int{12, 30, 7, 24, 18, 9, 40}

	// Deterministic per-slot per-video arrival counts.
	rng := rand.New(rand.NewSource(42))
	arrivals := make([][]int, slots)
	for s := range arrivals {
		arrivals[s] = make([]int, videos)
		for v := range arrivals[s] {
			arrivals[s][v] = rng.Intn(maxRate + 1)
		}
	}

	// Reference: K independent single-threaded schedulers.
	refs := make([]*core.Scheduler, videos)
	for v := range refs {
		var err error
		refs[v], err = core.New(core.Config{Segments: segs[v]})
		if err != nil {
			t.Fatal(err)
		}
	}

	cat := make([]VideoConfig, videos)
	for v := range cat {
		cat[v] = VideoConfig{Segments: segs[v]}
	}
	st, err := New(Config{Videos: cat, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}

	for s := 0; s < slots; s++ {
		// Concurrent admissions: one goroutine per arrival, racing against
		// each other within and across videos.
		var wg sync.WaitGroup
		for v := 0; v < videos; v++ {
			for a := 0; a < arrivals[s][v]; a++ {
				wg.Add(1)
				go func(v int) {
					defer wg.Done()
					if _, err := st.Admit(v, core.AdmitOptions{}); err != nil {
						t.Error(err)
					}
				}(v)
			}
		}
		wg.Wait()

		// Sequential reference admissions.
		for v := 0; v < videos; v++ {
			for a := 0; a < arrivals[s][v]; a++ {
				refs[v].AdmitRequest(core.AdmitOptions{})
			}
		}

		reports := st.AdvanceSlot()
		for v := 0; v < videos; v++ {
			want := refs[v].AdvanceSlot()
			if reports[v].Slot != want.Slot || reports[v].Load != want.Load {
				t.Fatalf("slot %d video %d: station %+v, reference %+v",
					s, v, reports[v], want)
			}
		}
	}
	for v := 0; v < videos; v++ {
		req, inst := st.VideoTotals(v)
		if req != refs[v].Requests() || inst != refs[v].Instances() {
			t.Fatalf("video %d: totals (%d,%d) diverged from reference (%d,%d)",
				v, req, inst, refs[v].Requests(), refs[v].Instances())
		}
	}
}

// TestStressAdmissionsRaceClock hammers a clock-driven station from many
// goroutines — full and resumed admissions, load probes — and checks the
// books balance afterwards. Run under -race this is the engine's data-race
// certification.
func TestStressAdmissionsRaceClock(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testStressAdmissionsRaceClock(t, shards) })
	}
}

func testStressAdmissionsRaceClock(t *testing.T, shards int) {
	st, err := New(Config{
		Videos:   testCatalogue(8, 25),
		Shards:   shards,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ticks := 0
	if err := st.StartClock(200*time.Microsecond, func(reports []core.SlotReport) {
		ticks++ // single clock goroutine; no lock needed
		if len(reports) != 8 {
			t.Errorf("tick delivered %d reports", len(reports))
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.StartClock(time.Millisecond, nil); !errors.Is(err, ErrClockRunning) {
		t.Fatalf("second clock: %v", err)
	}

	const workers = 6
	var admitted int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	deadline := time.Now().Add(50 * time.Millisecond)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var loads []int
			localAdmitted := int64(0)
			for time.Now().Before(deadline) {
				v := rng.Intn(8)
				switch op := rng.Intn(3); op {
				case 0, 1:
					var opts core.AdmitOptions // op 0: a full viewing
					if op == 1 {
						opts.From = 1 + rng.Intn(25) // a resume
					}
					if _, err := st.Admit(v, opts); err != nil {
						t.Error(err)
						return
					}
					localAdmitted++
				default:
					loads = st.NextLoads(loads)
					_ = st.CurrentSlot(v)
				}
			}
			mu.Lock()
			admitted += localAdmitted
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	st.Close()
	if ticks == 0 {
		t.Fatal("clock never ticked")
	}
	if _, err := st.Admit(0, core.AdmitOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("admit after close: %v", err)
	}
	// Everything accepted was admitted exactly once.
	req, _ := st.Totals()
	if req != admitted {
		t.Fatalf("admitted %d requests, engine recorded %d", admitted, req)
	}
}

// TestCloseIdempotent: Close twice, and StopClock with no clock, are no-ops.
func TestCloseIdempotent(t *testing.T) {
	st, err := New(Config{Videos: testCatalogue(2, 5)})
	if err != nil {
		t.Fatal(err)
	}
	st.StopClock()
	st.Close()
	st.Close()
	if err := st.StartClock(time.Millisecond, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("clock on closed station: %v", err)
	}
	if err := st.StartClock(0, nil); !errors.Is(err, ErrBadSlotDuration) {
		t.Fatalf("zero interval: %v", err)
	}
}

// TestPeriodsResolved: Periods reports the CBR defaults when none were
// configured.
func TestPeriodsResolved(t *testing.T) {
	st, err := New(Config{Videos: testCatalogue(1, 5)})
	if err != nil {
		t.Fatal(err)
	}
	p := st.Periods(0)
	for j := 1; j <= 5; j++ {
		if p[j] != j {
			t.Fatalf("period[%d] = %d, want %d", j, p[j], j)
		}
	}
}

package station

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"sync"
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

// TestShardAssignment: shards default to at most the catalogue size and
// videos are spread round-robin.
func TestShardAssignment(t *testing.T) {
	st, err := New(Config{Videos: testCatalogue(5, 8), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards() != 2 || st.Videos() != 5 {
		t.Fatalf("got %d shards, %d videos", st.Shards(), st.Videos())
	}
	for v := 0; v < 5; v++ {
		if got := st.ShardOf(v); got != v%2 {
			t.Fatalf("video %d on shard %d, want %d", v, got, v%2)
		}
	}
	// More shards than videos collapses to one shard per video.
	st2, err := New(Config{Videos: testCatalogue(3, 8), Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Shards() != 3 {
		t.Fatalf("got %d shards for 3 videos", st2.Shards())
	}
}

// TestFanoutSpans: the fan-out partition hint tiles the whole catalogue
// with contiguous, non-overlapping, near-equal spans for every worker
// count, including degenerate ones.
func TestFanoutSpans(t *testing.T) {
	st, err := New(Config{Videos: testCatalogue(7, 8)})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{-1, 0, 1, 2, 3, 7, 16} {
		spans := st.FanoutSpans(n)
		want := n
		if want > 7 {
			want = 7
		}
		if want < 1 {
			want = 1
		}
		if len(spans) != want {
			t.Fatalf("FanoutSpans(%d) returned %d spans, want %d", n, len(spans), want)
		}
		lo := 0
		for i, sp := range spans {
			if sp[0] != lo {
				t.Fatalf("FanoutSpans(%d) span %d starts at %d, want %d (gap or overlap)", n, i, sp[0], lo)
			}
			size := sp[1] - sp[0]
			if size < 7/want || size > 7/want+1 {
				t.Fatalf("FanoutSpans(%d) span %d has %d videos, want near-equal %d..%d", n, i, size, 7/want, 7/want+1)
			}
			lo = sp[1]
		}
		if lo != 7 {
			t.Fatalf("FanoutSpans(%d) covers [0, %d), want the full catalogue [0, 7)", n, lo)
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
// sharded engine: a station serving K videos with admissions issued from
// many goroutines at once must produce, video for video and slot for slot,
// exactly the schedule K independent single-threaded schedulers produce for
// the same per-slot arrival counts. Within a slot all admissions for one
// video are identical operations, so the end state depends only on the
// counts, not the interleaving — which is why the comparison can be exact.
func TestConcurrentEquivalence(t *testing.T) {
	const (
		videos  = 7
		shards  = 3
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
		// each other within and across shards.
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
	reg := obs.NewRegistry()
	st, err := New(Config{
		Videos:   testCatalogue(8, 25),
		Shards:   4,
		Registry: reg,
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
	// Per-shard metrics exist for every shard.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, `station_shard_admits_total{shard="0"}`) ||
		!strings.Contains(text, `station_shard_admits_total{shard="3"}`) {
		t.Fatalf("per-shard metrics missing:\n%s", text)
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

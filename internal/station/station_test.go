package station

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
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
		{"empty catalogue", Config{}, errEmptyCatalogue},
		{"negative shards", Config{Videos: testCatalogue(1, 4), Shards: -1}, errBadShards},
		{"bad video", Config{Videos: []VideoConfig{{Segments: -2}}}, core.ErrBadSegmentCount},
		// Validation stays eager: a bad vector on the last video, which no
		// admission has reached, still fails New.
		{"bad periods on the last video", Config{Videos: append(testCatalogue(3, 4),
			VideoConfig{Segments: 3, Periods: []int{0, 2, 2, 3}})}, core.ErrBadPeriods},
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
	if st.Shards() != 2 || len(st.videos) != 5 {
		t.Fatalf("got %d shards, %d videos", st.Shards(), len(st.videos))
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

// admitAll admits one request for every video and retires the slot, putting
// the whole catalogue on the active lists.
func admitAll(t testing.TB, st *Station) {
	t.Helper()
	for v := range st.videos {
		if _, err := st.Admit(v, core.AdmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	st.AdvanceSlot()
}

// TestSpanPartition: the one partition tiles the catalogue exactly once
// with contiguous, in-order, near-equal spans, for every catalogue size and
// span count including the degenerate ones — read off the active walk of a
// fully admitted catalogue.
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
			admitAll(t, st)
			sizes := make([]int, want)
			next, span := 0, 0
			st.EachActive(func(worker, video int, _ core.SlotReport) bool {
				if worker == span+1 && worker < want {
					span++
				}
				if video != next || worker != span {
					t.Fatalf("%d videos / %d shards: worker %d walked video %d, want video %d on span %d or the next (gap, overlap or out of order)",
						videos, shards, worker, video, next, span)
				}
				sizes[worker]++
				next++
				return false
			})
			if next != videos {
				t.Fatalf("%d videos / %d shards: walked %d videos", videos, shards, next)
			}
			for w, size := range sizes {
				if size < videos/want || size > videos/want+1 {
					t.Fatalf("%d videos / %d shards: span %d has %d videos, want near-equal %d..%d",
						videos, shards, w, size, videos/want, videos/want+1)
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
// tick callback's EachActive on the pool — every video with an audience
// exactly once per tick, each span's videos on that span's worker — and
// Close joins the clock and the pool, leaves no goroutine behind and refuses
// a later StartClock.
func TestClockPoolLifecycle(t *testing.T) {
	const (
		videos   = 10
		interval = 200 * time.Microsecond
		n        = 5
	)
	st, err := New(Config{Videos: testCatalogue(videos, 10), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	admitAll(t, st)
	f := installFakeClock(st)
	baseline := goroutineBaseline()
	var ticks int64
	var visits [videos]atomic.Int64
	var byWorker [4]atomic.Int64
	if err := st.StartClock(interval, nil, func(reports []core.SlotReport) {
		st.EachActive(func(worker, v int, _ core.SlotReport) bool {
			byWorker[worker].Add(1)
			visits[v].Add(1)
			if reports[v].Slot != reports[0].Slot {
				t.Errorf("video %d reported slot %d while video 0 reported %d", v, reports[v].Slot, reports[0].Slot)
			}
			return true
		})
		ticks++
	}); err != nil {
		t.Fatal(err)
	}
	f.runFor(n * interval)
	if st.pool == nil {
		t.Fatal("a 4-span clock runs without its pool")
	}
	st.Close()
	if st.pool != nil {
		t.Fatal("Close left the pool behind")
	}
	settleGoroutines(t, baseline, "Close")
	if err := st.StartClock(interval, nil, nil); !errors.Is(err, errClosed) {
		t.Fatalf("StartClock after Close: %v", err)
	}
	if ticks != n {
		t.Fatalf("%d ticks in %d intervals", ticks, n)
	}
	for v := range visits {
		if got := visits[v].Load(); got != n {
			t.Fatalf("video %d walked %d times in %d ticks", v, got, n)
		}
	}
	for w, sp := range st.spans {
		if got, want := byWorker[w].Load(), n*int64(sp[1]-sp[0]); got != want {
			t.Fatalf("worker %d walked %d videos in %d ticks, want %d", w, got, n, want)
		}
	}
	for v := 0; v < videos; v++ {
		if got := st.Status().PerVideo[v].Slot; int64(got) != n+1 { // admitAll retired slot 0
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
	if _, err := st.Admit(7, core.AdmitOptions{}); !errors.Is(err, errUnknownVideo) {
		t.Fatalf("admit unknown video: %v", err)
	}
	if _, err := st.Admit(-1, core.AdmitOptions{}); !errors.Is(err, errUnknownVideo) {
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
// The station reports each slot as it begins, before that slot's admissions;
// a bare scheduler reports it as it retires, one advance and one slot of
// admissions later: the two must agree, so a slot is final once it is current.
// Every video alternates bursts with idle gaps up to three ring horizons
// long, and one gap idles the whole catalogue, so the comparison covers
// videos leaving the active lists, the slots they skip and their cold
// re-activation.
func TestConcurrentEquivalence(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testConcurrentEquivalence(t, shards) })
	}
}

func testConcurrentEquivalence(t *testing.T, shards int) {
	const (
		videos  = 7
		slots   = 600
		maxRate = 5 // max arrivals per video per slot
		// No arrivals at all in [gapLo, gapHi): longer than the widest ring
		// plus the longest drain, so every video goes idle inside it.
		gapLo, gapHi = 250, 350
	)
	segs := []int{12, 30, 7, 24, 18, 9, 40}

	// Deterministic per-slot per-video arrival counts: bursts of 1..20
	// slots separated by idle gaps of up to three ring horizons.
	rng := rand.New(rand.NewSource(42))
	arrivals := make([][]int, slots)
	for s := range arrivals {
		arrivals[s] = make([]int, videos)
	}
	for v := 0; v < videos; v++ {
		for s := 0; s < slots; {
			for burst := 1 + rng.Intn(20); burst > 0 && s < slots; burst, s = burst-1, s+1 {
				if s < gapLo || s >= gapHi {
					arrivals[s][v] = rng.Intn(maxRate + 1)
				}
			}
			s += rng.Intn(3 * (segs[v] + 1))
		}
	}

	// Reference: K independent single-threaded schedulers.
	refs := make([]*core.Scheduler, videos)
	for v := range refs {
		var err error
		refs[v], err = core.New(core.Config{Segments: segs[v], TrackSegments: true})
		if err != nil {
			t.Fatal(err)
		}
	}

	cat := make([]VideoConfig, videos)
	for v := range cat {
		cat[v] = VideoConfig{Segments: segs[v], TrackSegments: true}
	}
	st, err := New(Config{Videos: cat, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}

	// reported[v] is the station's report of slot s, from the advance that
	// began it; the station starts in slot 0, which nothing can occupy.
	reported := make([]core.SlotReport, videos)
	compare := func(s int) {
		t.Helper()
		for v := 0; v < videos; v++ {
			want, got := refs[v].AdvanceSlot(), reported[v]
			if got.Slot != want.Slot || got.Load != want.Load || !slices.Equal(got.Segments, want.Segments) {
				t.Fatalf("slot %d video %d: station %+v, reference %+v", s, v, got, want)
			}
		}
	}
	reactivated := false
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

		// Between ticks the station answers for idle and active videos alike
		// on the one slot grid.
		loads := st.NextLoads(nil)
		for v := 0; v < videos; v++ {
			if got := st.Status().PerVideo[v].Slot; got != s {
				t.Fatalf("slot %d video %d: status slot = %d", s, v, got)
			}
			if want := refs[v].LoadAt(s + 1); loads[v] != want {
				t.Fatalf("slot %d video %d: next load %d, reference %d", s, v, loads[v], want)
			}
		}
		compare(s)
		reported = st.AdvanceSlot()
		active := st.Status().Active
		if s == gapHi-1 && active != 0 {
			t.Fatalf("slot %d: %d videos still active at the end of the catalogue-wide gap", s, active)
		}
		reactivated = reactivated || (s >= gapHi && active > 0)
	}
	if !reactivated {
		t.Fatal("no video came back after the catalogue-wide gap")
	}
	compare(slots)
	for v, row := range st.Status().PerVideo {
		req, inst := row.Requests, row.Instances
		if req != refs[v].Requests() || inst != refs[v].Instances() {
			t.Fatalf("video %d: totals (%d,%d) diverged from reference (%d,%d)",
				v, req, inst, refs[v].Requests(), refs[v].Instances())
		}
	}
}

// TestStressAdmissionsRaceClock races admissions and probes against a
// clock-driven station and then replays what happened through K bare
// core.Schedulers: each video is admitted to by one goroutine (so its
// admission order is known) in bursts of full and resumed viewings
// separated by idle gaps longer than the ring horizon, every cold
// re-activation racing the clock. Every admission must have placed what the
// bare scheduler places in the slot the station reported, and tick k's report,
// of the slot k it began, must be what the bare scheduler retires as slot k
// one advance later. Run under -race this is the engine's data-race
// certification.
func TestStressAdmissionsRaceClock(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testStressAdmissionsRaceClock(t, shards) })
	}
}

func testStressAdmissionsRaceClock(t *testing.T, shards int) {
	const (
		videos   = 8
		segments = 25
		cycles   = 5
		// A gap this many slots past a burst outlasts the drain (at most
		// segments slots) by more than the ring horizon (segments+1).
		gap = 3 * segments
	)
	st, err := New(Config{
		Videos:   testCatalogue(videos, segments),
		Shards:   shards,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	type reported struct{ slot, load int }
	var ticks [][videos]reported // written by the clock goroutine, read after Close
	if err := st.StartClock(200*time.Microsecond, nil, func(reports []core.SlotReport) {
		if len(reports) != videos {
			t.Errorf("tick delivered %d reports", len(reports))
			return
		}
		var row [videos]reported
		for v, rep := range reports {
			row[v] = reported{rep.Slot, rep.Load}
		}
		ticks = append(ticks, row)
		st.EachActive(func(_, _ int, _ core.SlotReport) bool { return false })
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.StartClock(time.Millisecond, nil, nil); !errors.Is(err, errClockRunning) {
		t.Fatalf("second clock: %v", err)
	}

	type admission struct{ slot, from, placed int }
	var admitted [videos][]admission
	var admitters, probers sync.WaitGroup
	for v := 0; v < videos; v++ {
		admitters.Add(1)
		go func(v int) {
			defer admitters.Done()
			rng := rand.New(rand.NewSource(int64(v)))
			for c := 0; c < cycles; c++ {
				for burst := 1 + rng.Intn(12); burst > 0; burst-- {
					from := 1 // two in three are full viewings
					if rng.Intn(3) == 0 {
						from = 1 + rng.Intn(segments)
					}
					res, err := st.Admit(v, core.AdmitOptions{From: from})
					if err != nil {
						t.Error(err)
						return
					}
					admitted[v] = append(admitted[v], admission{res.Slot, from, res.Placed})
				}
				for until := st.Status().PerVideo[v].Slot + gap + rng.Intn(gap); st.Status().PerVideo[v].Slot < until; {
					time.Sleep(100 * time.Microsecond)
				}
			}
		}(v)
	}
	stop := make(chan struct{})
	for p := 0; p < 2; p++ {
		probers.Add(1)
		go func() {
			defer probers.Done()
			var loads []int
			for {
				select {
				case <-stop:
					return
				default:
				}
				loads = st.NextLoads(loads)
				if status := st.Status(); status.Active < 0 || status.Active > videos {
					t.Errorf("status reports %d active videos", status.Active)
				}
			}
		}()
	}
	admitters.Wait()
	close(stop)
	probers.Wait()
	st.Close()
	if _, err := st.Admit(0, core.AdmitOptions{}); !errors.Is(err, errClosed) {
		t.Fatalf("admit after close: %v", err)
	}

	var total int64
	for v := 0; v < videos; v++ {
		ref, err := core.New(core.Config{Segments: segments})
		if err != nil {
			t.Fatal(err)
		}
		loads := make([]int, 0, len(ticks)+1) // loads[s] is the bare scheduler's slot s
		advanceTo := func(slot int) {
			for ref.CurrentSlot() < slot {
				loads = append(loads, ref.AdvanceSlot().Load)
			}
		}
		for i, a := range admitted[v] {
			advanceTo(a.slot)
			res, err := ref.AdmitRequest(core.AdmitOptions{From: a.from})
			if err != nil {
				t.Fatal(err)
			}
			if res.Slot != a.slot || res.Placed != a.placed {
				t.Fatalf("video %d admission %d (from %d): station slot %d placed %d, bare scheduler slot %d placed %d",
					v, i, a.from, a.slot, a.placed, res.Slot, res.Placed)
			}
		}
		advanceTo(len(ticks) + 1)
		for k, row := range ticks {
			if s := k + 1; row[v].slot != s || row[v].load != loads[s] {
				t.Fatalf("video %d tick %d: station reported %+v, bare scheduler load %d", v, s, row[v], loads[s])
			}
		}
		total += int64(len(admitted[v]))
	}
	// Everything accepted was admitted exactly once.
	if req, _ := st.Totals(); req != total {
		t.Fatalf("admitted %d requests, engine recorded %d", total, req)
	}
}

// TestTickLocksOnlyActiveVideos: the per-video locks a tick takes follow the
// active videos, not the catalogue. Status().Active — the operator's view
// of it — is the number of videos the next advance locks; summed over the
// life of A cold admissions in a 4096-video station it is O(A·segments),
// not O(4096·ticks), while the reports stay dense. Then, with every idle
// video's lock held by the test, ticks over A videos kept active by an
// audience still complete: a tick that touched an idle video would block.
func TestTickLocksOnlyActiveVideos(t *testing.T) {
	const (
		videos   = 4096
		admitted = 16
		segments = 10
		ticks    = 200
	)
	st, err := New(Config{Videos: testCatalogue(videos, segments), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	hot := func(v int) bool { return v%(videos/admitted) == 7 }
	admitHot := func() {
		for v := 0; v < videos; v++ {
			if hot(v) {
				if _, err := st.Admit(v, core.AdmitOptions{}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	admitHot()
	var reports []core.SlotReport
	locked, instances := 0, 0
	for tick := 0; tick < ticks; tick++ {
		locked += st.Status().Active
		reports = st.AdvanceSlotInto(reports)
		for v, rep := range reports {
			// Advance tick+1 begins slot tick+1 and reports it.
			if rep.Slot != tick+1 || (rep.Load != 0 && !hot(v)) {
				t.Fatalf("tick %d video %d: report %+v", tick, v, rep)
			}
			instances += rep.Load
		}
	}
	// A video admitted in slot 0 transmits in slots 1..segments, reported by
	// advances 1..segments; advance segments+1 still finds slot segments
	// pending and reports one empty slot, and the advance after that finds
	// the video idle.
	if bound := admitted * (segments + 2); locked == 0 || locked > bound {
		t.Fatalf("the clock locked %d videos over %d ticks, want 1..%d (not %d)", locked, ticks, bound, videos*ticks)
	}
	if instances != admitted*segments {
		t.Fatalf("retired %d instances, want %d", instances, admitted*segments)
	}
	if status := st.Status(); status.Active != 0 || status.PerVideo[videos-1].Slot != ticks {
		t.Fatalf("after the run: %d active videos, last video at slot %d, want 0 and %d",
			status.Active, status.PerVideo[videos-1].Slot, ticks)
	}

	admitHot()
	for v := range st.videos {
		if !hot(v) {
			st.videos[v].mu.Lock()
		}
	}
	done := make(chan int)
	go func() {
		visits := 0
		for tick := 0; tick < ticks; tick++ {
			reports = st.AdvanceSlotInto(reports)
			st.EachActive(func(_, v int, _ core.SlotReport) bool {
				if !hot(v) {
					t.Errorf("tick %d walked idle video %d", tick, v)
				}
				visits++
				return true // an audience keeps a drained video active
			})
		}
		done <- visits
	}()
	select {
	case visits := <-done:
		if visits != admitted*ticks {
			t.Fatalf("walked %d videos over %d ticks, want %d", visits, ticks, admitted*ticks)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a tick blocked on an idle video's lock")
	}
	for v := range st.videos {
		if !hot(v) {
			st.videos[v].mu.Unlock()
		}
	}
	// The audience leaves: the drained videos go idle at the next advance.
	st.EachActive(func(_, _ int, _ core.SlotReport) bool { return false })
	st.AdvanceSlot()
	if active := st.Status().Active; active != 0 {
		t.Fatalf("%d videos still active after their audience left", active)
	}
}

// TestCloseIdempotent: Close with no clock, and Close twice, are no-ops.
func TestCloseIdempotent(t *testing.T) {
	st, err := New(Config{Videos: testCatalogue(2, 5)})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	st.Close()
	if err := st.StartClock(time.Millisecond, nil, nil); !errors.Is(err, errClosed) {
		t.Fatalf("clock on closed station: %v", err)
	}
	if err := st.StartClock(0, nil, nil); !errors.Is(err, errBadSlotDuration) {
		t.Fatalf("zero interval: %v", err)
	}
}

// TestNeverAdmittedVideoAnswersFromConfig: a video's scheduler is built by
// its first admission, on the span's slot; until then Periods, NextLoads and
// Status answer from its configuration.
func TestNeverAdmittedVideoAnswersFromConfig(t *testing.T) {
	st, err := New(Config{Videos: []VideoConfig{{Segments: 5}, {Segments: 4, Periods: []int{9, 1, 3, 3, 4}}}, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		st.AdvanceSlot()
	}
	for v := range st.videos {
		if st.videos[v].sched != nil {
			t.Fatalf("video %d has a scheduler before any admission", v)
		}
	}
	if p := st.Periods(0); !slices.Equal(p, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("CBR periods %v", p)
	}
	if p := st.Periods(1); !slices.Equal(p, []int{0, 1, 3, 3, 4}) {
		t.Fatalf("DHB-d periods %v", p)
	}
	if loads := st.NextLoads(nil); !slices.Equal(loads, []int{0, 0}) {
		t.Fatalf("next loads %v", loads)
	}
	if row := st.Status().PerVideo[1]; row.Slot != 3 || row.Requests != 0 || row.Instances != 0 {
		t.Fatalf("idle row %+v", row)
	}
	res, err := st.Admit(1, core.AdmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Slot != 3 || st.videos[1].sched == nil || st.videos[0].sched != nil {
		t.Fatalf("first admission at slot %d; schedulers built: %v, %v", res.Slot, st.videos[0].sched != nil, st.videos[1].sched != nil)
	}
	if p := st.Periods(1); !slices.Equal(p, []int{0, 1, 3, 3, 4}) {
		t.Fatalf("periods after admission %v", p)
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

package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// This file is the differential harness for the admission fast path: every
// scenario drives two schedulers — the fast one (RMQ ring, same-slot memo)
// and the linear reference (Config.Reference) — through the same randomized
// workload and requires byte-identical behaviour at every step: admission
// results, per-segment assignments, per-slot window loads, tracked segment
// lists, retired-slot reports, and the Requests/Instances counters.

// diffScenario is one cell of the differential matrix.
type diffScenario struct {
	name    string
	n       int
	policy  Policy
	cap     int
	periods []int
	resumes bool // mix resume admissions into the workload
}

func diffScenarios() []diffScenario {
	return []diffScenario{
		{name: "heuristic", n: 33, policy: PolicyHeuristic, resumes: true},
		{name: "naive", n: 33, policy: PolicyNaive, resumes: true},
		{name: "earliest", n: 33, policy: PolicyMinLoadEarliest, resumes: true},
		{name: "heuristic-small", n: 1, policy: PolicyHeuristic},
		{name: "heuristic-capped", n: 17, policy: PolicyHeuristic, cap: 2, resumes: true},
		{name: "heuristic-capped-1", n: 9, policy: PolicyHeuristic, cap: 1, resumes: true},
		{name: "irregular-periods", n: 16, policy: PolicyHeuristic, periods: irregularPeriods, resumes: true},
		{name: "irregular-earliest", n: 16, policy: PolicyMinLoadEarliest, periods: irregularPeriods},
	}
}

// diffPair builds the fast scheduler and its linear reference twin.
func diffPair(t *testing.T, sc diffScenario) (fast, ref *Scheduler) {
	t.Helper()
	mk := func(reference bool) *Scheduler {
		s, err := New(Config{
			Segments:         sc.n,
			Policy:           sc.policy,
			Periods:          sc.periods,
			MaxClientStreams: sc.cap,
			TrackSegments:    true,
			Reference:        reference,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return mk(false), mk(true)
}

// maxPeriod reports the scheduler's window span so load checks can sweep
// the whole ring.
func maxPeriod(s *Scheduler) int {
	maxP := 0
	for j := 1; j <= s.N(); j++ {
		if s.Period(j) > maxP {
			maxP = s.Period(j)
		}
	}
	return maxP
}

// checkState compares everything observable about the two schedulers.
func checkState(t *testing.T, step int, fast, ref *Scheduler) {
	t.Helper()
	if fast.CurrentSlot() != ref.CurrentSlot() {
		t.Fatalf("step %d: current slot %d, reference %d", step, fast.CurrentSlot(), ref.CurrentSlot())
	}
	if fast.Requests() != ref.Requests() {
		t.Fatalf("step %d: requests %d, reference %d", step, fast.Requests(), ref.Requests())
	}
	if fast.Instances() != ref.Instances() {
		t.Fatalf("step %d: instances %d, reference %d", step, fast.Instances(), ref.Instances())
	}
	cur := fast.CurrentSlot()
	for slot := cur; slot <= cur+maxPeriod(fast); slot++ {
		if fl, rl := fast.LoadAt(slot), ref.LoadAt(slot); fl != rl {
			t.Fatalf("step %d: slot %d load %d, reference %d", step, slot, fl, rl)
		}
		if fs, rs := fast.ScheduledAt(slot), ref.ScheduledAt(slot); !reflect.DeepEqual(fs, rs) {
			t.Fatalf("step %d: slot %d segments %v, reference %v", step, slot, fs, rs)
		}
	}
}

// TestDifferentialFastVsReference is the randomized equivalence proof across
// policies, client caps, period shapes, resume mixes and duplicate same-slot
// arrival bursts.
func TestDifferentialFastVsReference(t *testing.T) {
	for _, sc := range diffScenarios() {
		for seed := int64(0); seed < 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", sc.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				fast, ref := diffPair(t, sc)
				fastBuf := make([]int, 0) // exercises the reusable-buffer path
				for step := 0; step < 400; step++ {
					switch op := rng.Intn(10); {
					case op < 3: // advance, compare the retired slot exactly
						// Current reports the slot before it retires: the
						// same report, final since its slot became current.
						cur := fast.Current()
						fr, rr := fast.AdvanceSlot(), ref.AdvanceSlot()
						if fr.Slot != rr.Slot || fr.Load != rr.Load || !reflect.DeepEqual(fr.Segments, rr.Segments) {
							t.Fatalf("step %d: retired %+v, reference %+v", step, fr, rr)
						}
						if cur.Slot != fr.Slot || cur.Load != fr.Load || !reflect.DeepEqual(cur.Segments, fr.Segments) {
							t.Fatalf("step %d: current %+v, then retired %+v", step, cur, fr)
						}
					case op < 6 || !sc.resumes: // duplicate same-slot burst (size 1..4)
						// The first admission of a burst takes the
						// buffered path. Without a client cap the rest
						// want no assignment, so the fast scheduler
						// answers them from its memo; with one the memo
						// is never armed and every admission is compared.
						burst := 1 + rng.Intn(4)
						for k := 0; k < burst; k++ {
							memo := k > 0 && sc.cap == 0
							opts := AdmitOptions{Assignment: fastBuf}
							if memo {
								opts = AdmitOptions{}
							}
							fres, err := fast.AdmitRequest(opts)
							if err != nil {
								t.Fatal(err)
							}
							rres, err := ref.AdmitRequest(AdmitOptions{WantAssignment: true})
							if err != nil {
								t.Fatal(err)
							}
							if fres.Slot != rres.Slot || fres.Placed != rres.Placed {
								t.Fatalf("step %d burst %d: result (%d, %d), reference (%d, %d)",
									step, k, fres.Slot, fres.Placed, rres.Slot, rres.Placed)
							}
							if memo {
								continue
							}
							fastBuf = fres.Assignment
							if !reflect.DeepEqual(fres.Assignment, rres.Assignment) {
								t.Fatalf("step %d burst %d: assignment %v, reference %v",
									step, k, fres.Assignment, rres.Assignment)
							}
						}
					default: // resume at a random segment
						from := 1 + rng.Intn(sc.n)
						fres, ferr := fast.AdmitRequest(AdmitOptions{From: from, Assignment: fastBuf})
						rres, rerr := ref.AdmitRequest(AdmitOptions{From: from, WantAssignment: true})
						if (ferr == nil) != (rerr == nil) {
							t.Fatalf("step %d: error %v, reference %v", step, ferr, rerr)
						}
						if ferr != nil {
							continue
						}
						fastBuf = fres.Assignment
						if fres.Placed != rres.Placed || !reflect.DeepEqual(fres.Assignment, rres.Assignment) {
							t.Fatalf("step %d: resume(%d) = (%d, %v), reference (%d, %v)",
								step, from, fres.Placed, fres.Assignment, rres.Placed, rres.Assignment)
						}
					}
					checkState(t, step, fast, ref)
				}
			})
		}
	}
}

// TestMemoObserverDisablesFastPath: with an Observer attached the full loop
// must run for every duplicate so per-decision callbacks keep their exact
// semantics — the decision count for k same-slot admissions stays k*n.
func TestMemoObserverDisablesFastPath(t *testing.T) {
	rec := &countingObserver{}
	s, err := New(Config{Segments: 12, Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		admit(s)
	}
	if want := 3 * 12; rec.decisions != want {
		t.Fatalf("observed %d decisions, want %d (full loop per duplicate)", rec.decisions, want)
	}
	if rec.admits != 3 {
		t.Fatalf("observed %d admits, want 3", rec.admits)
	}
}

// countingObserver tallies callbacks.
type countingObserver struct {
	admits, decisions, retires int
}

func (o *countingObserver) ObserveAdmit(slot, from, placed int) { o.admits++ }
func (o *countingObserver) ObserveDecision(reqSlot, segment, slot, windowLo, windowHi, load int, shared bool) {
	o.decisions++
}
func (o *countingObserver) ObserveRetire(slot, load int, segments []int) { o.retires++ }

// TestMemoInvalidatedByAdvance: a memo built in slot i must not survive into
// slot i+1 — the second slot's admission has to place the instances that
// retired with slot i+1's transmission.
func TestMemoInvalidatedByAdvance(t *testing.T) {
	fast, ref := diffPair(t, diffScenario{name: "inv", n: 20, policy: PolicyHeuristic})
	for step := 0; step < 60; step++ {
		admit(fast)
		admit(fast) // memo hit
		admit(ref)
		admit(ref)
		fr, rr := fast.AdvanceSlot(), ref.AdvanceSlot()
		if fr.Load != rr.Load {
			t.Fatalf("step %d: load %d, reference %d", step, fr.Load, rr.Load)
		}
		checkState(t, step, fast, ref)
	}
}

// TestAdmitSteadyStateZeroAlloc: the uninstrumented steady-state admit path
// (both the full placement loop and the same-slot memo hit) allocates
// nothing, with and without a reused assignment buffer, and so does a mix
// of resumes once it has grown the instance index to its steady size.
func TestAdmitSteadyStateZeroAlloc(t *testing.T) {
	s, err := New(Config{Segments: 99})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 200; k++ { // reach steady state
		admit(s)
		s.AdvanceSlot()
	}
	if allocs := testing.AllocsPerRun(200, func() {
		admit(s)
		admit(s) // same-slot memo hit
		s.AdvanceSlot()
	}); allocs != 0 {
		t.Fatalf("steady-state admit path allocates %.1f/op, want 0", allocs)
	}
	opts := AdmitOptions{Assignment: make([]int, s.N()+1)}
	if allocs := testing.AllocsPerRun(200, func() {
		res, err := s.AdmitRequest(opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Assignment = res.Assignment
		s.AdvanceSlot()
	}); allocs != 0 {
		t.Fatalf("buffered traced admit allocates %.1f/op, want 0", allocs)
	}
	// A resume's short window misses the full viewings' later instances,
	// so resumes keep several pending instances of a segment.
	step := 0
	resumeMix := func() {
		admit(s)
		for r := 0; r < 3; r++ {
			if _, err := admitFrom(s, 1+(7*step+31*r)%s.N()); err != nil {
				t.Fatal(err)
			}
		}
		step++
		s.AdvanceSlot()
	}
	for k := 0; k < 400; k++ { // grow the index to its steady size
		resumeMix()
	}
	if allocs := testing.AllocsPerRun(200, resumeMix); allocs != 0 {
		t.Fatalf("steady-state resume mix allocates %.1f/op, want 0", allocs)
	}
}

// TestAdmitRequestBufferReuse: a caller-supplied buffer is reused when large
// enough, grown when too small, and cleared below the resume point.
func TestAdmitRequestBufferReuse(t *testing.T) {
	s, err := New(Config{Segments: 8})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int, s.N()+1)
	res, err := s.AdmitRequest(AdmitOptions{Assignment: buf})
	if err != nil {
		t.Fatal(err)
	}
	if &res.Assignment[0] != &buf[0] {
		t.Fatal("sufficient buffer was not reused")
	}
	// A stale buffer admitted with a resume point must come back with
	// zeroed entries below From.
	for i := range res.Assignment {
		res.Assignment[i] = 777
	}
	res, err = s.AdmitRequest(AdmitOptions{From: 5, Assignment: res.Assignment})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 5; j++ {
		if res.Assignment[j] != 0 {
			t.Fatalf("entry %d below resume point = %d, want 0", j, res.Assignment[j])
		}
	}
	for j := 5; j <= s.N(); j++ {
		if res.Assignment[j] == 0 || res.Assignment[j] == 777 {
			t.Fatalf("entry %d not written: %d", j, res.Assignment[j])
		}
	}
	// An undersized buffer is grown, not overrun.
	res, err = s.AdmitRequest(AdmitOptions{Assignment: make([]int, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignment) != s.N()+1 {
		t.Fatalf("grown buffer has length %d, want %d", len(res.Assignment), s.N()+1)
	}
	// An oversized buffer is resliced to exactly n+1.
	res, err = s.AdmitRequest(AdmitOptions{Assignment: make([]int, 100)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignment) != s.N()+1 {
		t.Fatalf("oversized buffer resliced to %d, want %d", len(res.Assignment), s.N()+1)
	}
}

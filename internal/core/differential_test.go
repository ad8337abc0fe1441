package core

import (
	"reflect"
	"testing"
)

// This file holds the scenario matrix and state comparison behind
// TestSkipEqualsRepeatedAdvance's twin schedulers, and the admission path's
// allocation and buffer-reuse tests.

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

// maxPeriod reports the scheduler's window span so load checks can sweep
// the whole ring.
func maxPeriod(s *Scheduler) int {
	maxP := 0
	for j := 1; j <= s.n; j++ {
		if s.Period(j) > maxP {
			maxP = s.Period(j)
		}
	}
	return maxP
}

// checkState compares everything observable about the two schedulers.
func checkState(t *testing.T, step int, a, b *Scheduler) {
	t.Helper()
	if a.CurrentSlot() != b.CurrentSlot() {
		t.Fatalf("step %d: current slot %d, twin %d", step, a.CurrentSlot(), b.CurrentSlot())
	}
	if a.Requests() != b.Requests() {
		t.Fatalf("step %d: requests %d, twin %d", step, a.Requests(), b.Requests())
	}
	if a.Instances() != b.Instances() {
		t.Fatalf("step %d: instances %d, twin %d", step, a.Instances(), b.Instances())
	}
	cur := a.CurrentSlot()
	for slot := cur; slot <= cur+maxPeriod(a); slot++ {
		if al, bl := a.LoadAt(slot), b.LoadAt(slot); al != bl {
			t.Fatalf("step %d: slot %d load %d, twin %d", step, slot, al, bl)
		}
		if as, bs := a.ScheduledAt(slot), b.ScheduledAt(slot); !reflect.DeepEqual(as, bs) {
			t.Fatalf("step %d: slot %d segments %v, twin %v", step, slot, as, bs)
		}
	}
}

// TestAdmitSteadyStateZeroAlloc: the uninstrumented steady-state admit path
// (a slot's first admission and a same-slot repeat) allocates nothing, with
// and without a reused assignment buffer, and so does a mix of resumes once
// it has grown the instance index to its steady size.
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
		admit(s) // same-slot repeat
		s.AdvanceSlot()
	}); allocs != 0 {
		t.Fatalf("steady-state admit path allocates %.1f/op, want 0", allocs)
	}
	opts := AdmitOptions{Assignment: make([]int, s.n+1)}
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
			if _, err := admitFrom(s, 1+(7*step+31*r)%s.n); err != nil {
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
	buf := make([]int, s.n+1)
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
	for j := 5; j <= s.n; j++ {
		if res.Assignment[j] == 0 || res.Assignment[j] == 777 {
			t.Fatalf("entry %d not written: %d", j, res.Assignment[j])
		}
	}
	// An undersized buffer is grown, not overrun.
	res, err = s.AdmitRequest(AdmitOptions{Assignment: make([]int, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignment) != s.n+1 {
		t.Fatalf("grown buffer has length %d, want %d", len(res.Assignment), s.n+1)
	}
	// An oversized buffer is resliced to exactly n+1.
	res, err = s.AdmitRequest(AdmitOptions{Assignment: make([]int, 100)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignment) != s.n+1 {
		t.Fatalf("oversized buffer resliced to %d, want %d", len(res.Assignment), s.n+1)
	}
}

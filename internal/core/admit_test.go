package core

import (
	"errors"
	"math/rand"
	"testing"
)

// TestAdmitRequestOptionShapesAgree drives two identical schedulers through
// AdmitRequest with different option shapes — one allocating a fresh
// assignment per call, one reusing a caller-owned buffer, with count-only
// calls mixed in — across a randomized sequence of full viewings, resumes
// and slot advances: every result field must agree, call for call.
func TestAdmitRequestOptionShapesAgree(t *testing.T) {
	const n = 24
	newSched := func() *Scheduler {
		s, err := New(Config{Segments: n})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := newSched(), newSched()
	buf := make([]int, 0, n+1)
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(4); op {
		case 0: // full viewing, count only vs buffer-reusing
			res, err := a.AdmitRequest(AdmitOptions{})
			if err != nil {
				t.Fatal(err)
			}
			other, err := b.AdmitRequest(AdmitOptions{Assignment: buf})
			if err != nil {
				t.Fatal(err)
			}
			buf = other.Assignment
			if res.Placed != other.Placed {
				t.Fatalf("step %d: count-only placed %d, buffered %d", step, res.Placed, other.Placed)
			}
			if res.Slot != b.CurrentSlot() {
				t.Fatalf("step %d: slot %d, want %d", step, res.Slot, b.CurrentSlot())
			}
			if res.Assignment != nil {
				t.Fatalf("step %d: unsolicited assignment", step)
			}
		case 1: // full viewing, traced both ways
			res, err := a.AdmitRequest(AdmitOptions{WantAssignment: true})
			if err != nil {
				t.Fatal(err)
			}
			other, err := b.AdmitRequest(AdmitOptions{Assignment: buf})
			if err != nil {
				t.Fatal(err)
			}
			buf = other.Assignment
			if len(res.Assignment) != len(other.Assignment) {
				t.Fatalf("step %d: assignment length %d, want %d", step, len(res.Assignment), len(other.Assignment))
			}
			for j := range other.Assignment {
				if res.Assignment[j] != other.Assignment[j] {
					t.Fatalf("step %d: assignment[%d] = %d, want %d", step, j, res.Assignment[j], other.Assignment[j])
				}
			}
		case 2: // resume, traced both ways
			from := 1 + rng.Intn(n)
			res, err := a.AdmitRequest(AdmitOptions{From: from, WantAssignment: true})
			if err != nil {
				t.Fatal(err)
			}
			other, err := b.AdmitRequest(AdmitOptions{From: from, Assignment: buf})
			if err != nil {
				t.Fatal(err)
			}
			buf = other.Assignment
			for j := range other.Assignment {
				if res.Assignment[j] != other.Assignment[j] {
					t.Fatalf("step %d: resume(%d) assignment[%d] = %d, want %d",
						step, from, j, res.Assignment[j], other.Assignment[j])
				}
			}
		default:
			ra, rb := a.AdvanceSlot(), b.AdvanceSlot()
			if ra.Slot != rb.Slot || ra.Load != rb.Load {
				t.Fatalf("step %d: retire %+v vs %+v", step, ra, rb)
			}
		}
	}
	if a.Requests() != b.Requests() || a.Instances() != b.Instances() {
		t.Fatalf("totals diverged: (%d,%d) vs (%d,%d)",
			a.Requests(), a.Instances(), b.Requests(), b.Instances())
	}
}

// TestAdmitRequestZeroFromIsFullViewing: From 0 and From 1 are the same
// request.
func TestAdmitRequestZeroFromIsFullViewing(t *testing.T) {
	a, _ := New(Config{Segments: 8})
	b, _ := New(Config{Segments: 8})
	ra, err := a.AdmitRequest(AdmitOptions{From: 0})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.AdmitRequest(AdmitOptions{From: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ra.Placed != rb.Placed || ra.Slot != rb.Slot {
		t.Fatalf("From 0 gave %+v, From 1 gave %+v", ra, rb)
	}
}

// TestAdmitRequestBadResume: out-of-range resume points report
// ErrBadResumePoint through errors.Is, with the scheduler left untouched.
func TestAdmitRequestBadResume(t *testing.T) {
	s, _ := New(Config{Segments: 10})
	for _, from := range []int{-1, 11, 99} {
		if _, err := s.AdmitRequest(AdmitOptions{From: from}); !errors.Is(err, ErrBadResumePoint) {
			t.Fatalf("From %d: err = %v, want ErrBadResumePoint", from, err)
		}
	}
	if s.Requests() != 0 || s.Instances() != 0 {
		t.Fatalf("failed admissions mutated the scheduler: %d requests, %d instances",
			s.Requests(), s.Instances())
	}
}

// TestNewSentinelErrors: every validation failure of New is classifiable
// with errors.Is, and Validate reports it without building a scheduler.
func TestNewSentinelErrors(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		want error
	}{
		{"zero segments", Config{}, ErrBadSegmentCount},
		{"negative segments", Config{Segments: -3}, ErrBadSegmentCount},
		{"short periods", Config{Segments: 4, Periods: []int{0, 1, 2}}, ErrBadPeriods},
		{"bad first period", Config{Segments: 2, Periods: []int{0, 2, 2}}, ErrBadPeriods},
		{"unknown policy", Config{Segments: 4, Policy: Policy(99)}, ErrBadPolicy},
		{"negative start slot", Config{Segments: 4, StartSlot: -1}, ErrBadStartSlot},
		{"negative cap", Config{Segments: 4, MaxClientStreams: -1}, ErrBadClientCap},
		{"cap with naive policy", Config{Segments: 4, MaxClientStreams: 2, Policy: PolicyNaive}, ErrBadClientCap},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.cfg)
			if !errors.Is(err, tt.want) {
				t.Fatalf("New(%+v) err = %v, want %v", tt.cfg, err, tt.want)
			}
			if err := tt.cfg.Validate(); !errors.Is(err, tt.want) {
				t.Fatalf("Validate(%+v) = %v, want %v", tt.cfg, err, tt.want)
			}
		})
	}
	if err := (Config{Segments: 4}).Validate(); err != nil {
		t.Fatalf("CBR default rejected: %v", err)
	}
}

package core

import (
	"testing"

	"vodcast/internal/video"
)

// fuzzPeriods derives a legal period vector for n segments from raw: empty
// selects the CBR default T[j] = j; otherwise T[1] = 1 and every other T[j]
// is 1 + raw[..] % 2n in whatever order the bytes give, non-monotone
// included. atLeastJ adds j-1, keeping T[j] >= j as the capped mode's
// feasibility argument requires.
func fuzzPeriods(raw []byte, n int, atLeastJ bool) []int {
	if len(raw) == 0 {
		return nil
	}
	periods := make([]int, n+1)
	periods[1] = 1
	for j := 2; j <= n; j++ {
		periods[j] = 1 + int(raw[(j-2)%len(raw)])%(2*n)
		if atLeastJ {
			periods[j] += j - 1
		}
	}
	return periods
}

// windowCopies counts, for every segment j >= from, the instances of S_j in
// the window [i+1, i+T[j-from+1]] of a customer who starts at segment from
// and is admitted during slot i. s must track segments.
func windowCopies(s *Scheduler, i, from int) []int {
	copies := make([]int, s.N()+1)
	for slot := i + 1; slot <= i+maxPeriod(s); slot++ {
		s.EachScheduledAt(slot, func(j int) {
			if j >= from && slot <= i+s.Period(j-from+1) {
				copies[j]++
			}
		})
	}
	return copies
}

// checkShared fails unless an uncapped admission during slot i from segment
// from shared S_j whenever an instance of it lay in the window (before
// holds the windowCopies taken before the admission) and placed exactly
// one otherwise: Figure 6's "already scheduled in the window", checked by
// scanning the slots rather than by asking the scheduler's own index.
func checkShared(t *testing.T, s *Scheduler, i, from int, before []int) {
	t.Helper()
	after := windowCopies(s, i, from)
	for j := from; j <= s.N(); j++ {
		if want := max(before[j], 1); after[j] != want {
			t.Fatalf("request of slot %d from segment %d: %d copies of segment %d in its window, want %d (%d before)",
				i, from, after[j], j, want, before[j])
		}
	}
}

// FuzzSchedulerInvariants drives the fast-path scheduler AND its linear
// reference twin (Config.Reference) with an arbitrary byte-coded command
// stream over an arbitrary legal period vector, checking every protocol
// invariant on every step — no panics, deadlines always met, no uncapped
// admission placing a segment that has an instance in its window,
// conservation of instances — plus exact fast/reference equivalence of
// placements, assignments, loads and counters, so the RMQ ring, the
// same-slot admission memo (which uncapped bursts take, on any vector) and its
// invalidation on AdvanceSlot are all fuzzed against the specification.
//
// Command encoding (one byte each):
//
//	0-1: advance one slot (invalidates the same-slot memo)
//	2-3: admit an ordinary request
//	4:   admit a same-slot duplicate burst of 2-4 ordinary requests; without
//	     a client cap they want no assignment, as the live server's do
//	5-7: admit a resume at a segment derived from the byte
func FuzzSchedulerInvariants(f *testing.F) {
	f.Add([]byte{2, 0, 2, 2, 0, 5, 0, 0}, uint8(12), uint8(0), []byte{})
	f.Add([]byte{3, 3, 3, 3}, uint8(30), uint8(2), []byte{})
	f.Add([]byte{0, 0, 0}, uint8(1), uint8(1), []byte{})
	f.Add([]byte{4, 4, 0, 4, 2, 0, 4, 6, 4}, uint8(20), uint8(0), []byte{})
	f.Add([]byte{7, 2, 4, 0, 6, 3, 0, 4}, uint8(2), uint8(0), []byte{4, 1}) // T = [1, 5, 2]
	f.Add([]byte{5, 4, 0, 6, 2, 0, 7, 4}, uint8(15), uint8(2), []byte{9, 0, 30, 2, 17})
	// n = 8: a full viewing, a resume from 8, a resume from 7, all in slot
	// 0. The last shares the first resume's S_8 in slot 1.
	f.Add([]byte{2, 7, 6}, uint8(7), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, cmds []byte, segByte, capByte uint8, periodBytes []byte) {
		n := 1 + int(segByte)%40
		cap := int(capByte) % 4 // 0 = unlimited
		periods := fuzzPeriods(periodBytes, n, cap > 0)
		s, err := New(Config{Segments: n, Periods: periods, MaxClientStreams: cap, TrackSegments: true})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := New(Config{Segments: n, Periods: periods, MaxClientStreams: cap, Reference: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(cmds) > 400 {
			cmds = cmds[:400]
		}
		// admitBoth admits one request on both schedulers and checks the
		// fast result against the invariants and the reference; traced
		// asks the fast scheduler for the assignment too.
		admitBoth := func(idx, from int, traced bool) {
			i := s.CurrentSlot()
			before := windowCopies(s, i, from)
			got, err := s.AdmitRequest(AdmitOptions{From: from, WantAssignment: traced})
			if err != nil {
				t.Fatalf("cmd %d: %v", idx, err)
			}
			want, err := ref.AdmitRequest(AdmitOptions{From: from, WantAssignment: true})
			if err != nil {
				t.Fatalf("cmd %d: reference: %v", idx, err)
			}
			if got.Placed != want.Placed {
				t.Fatalf("cmd %d: placed %d, reference %d", idx, got.Placed, want.Placed)
			}
			if cap == 0 {
				checkShared(t, s, i, from, before)
			}
			if !traced {
				return
			}
			checkDeadlines(t, s, i, from, got.Assignment)
			for j := from; j <= n; j++ {
				if got.Assignment[j] != want.Assignment[j] {
					t.Fatalf("cmd %d: segment %d at %d, reference %d", idx, j, got.Assignment[j], want.Assignment[j])
				}
			}
		}
		var transmitted int64
		for idx, c := range cmds {
			switch c % 8 {
			case 0, 1:
				rep, refRep := s.AdvanceSlot(), ref.AdvanceSlot()
				if rep.Load != refRep.Load {
					t.Fatalf("cmd %d: retired load %d, reference %d", idx, rep.Load, refRep.Load)
				}
				transmitted += int64(rep.Load)
			case 2, 3:
				admitBoth(idx, 1, true)
			case 4:
				for burst := 2 + int(c/8)%3; burst > 0; burst-- {
					admitBoth(idx, 1, cap > 0)
				}
			default:
				admitBoth(idx, 1+int(c)%n, true)
			}
			if s.Requests() != ref.Requests() || s.Instances() != ref.Instances() {
				t.Fatalf("cmd %d: counters (%d, %d), reference (%d, %d)",
					idx, s.Requests(), s.Instances(), ref.Requests(), ref.Instances())
			}
		}
		// Drain and check conservation.
		for s.Pending() > 0 {
			transmitted += int64(s.AdvanceSlot().Load)
		}
		if transmitted != s.Instances() {
			t.Fatalf("transmitted %d, scheduled %d", transmitted, s.Instances())
		}
	})
}

// FuzzPeriodVectors feeds arbitrary (sanitized) period vectors through the
// validator and scheduler: any vector the validator accepts, monotone or
// not, must run a byte-coded mix of slot advances, full viewings, same-slot
// bursts and resumes (FuzzSchedulerInvariants' encoding) without violating
// its own deadlines or placing a segment that has an instance in its window.
func FuzzPeriodVectors(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte{2, 0, 4, 0, 6})
	f.Add([]byte{1, 3, 3, 9}, []byte{3, 5, 0, 2})
	// A resume from segment 2 parks S_3 at slot 5; the full viewings behind
	// it need S_3 by slot 2.
	f.Add([]byte{1, 5, 2}, []byte{7, 2, 4, 0, 2})
	f.Fuzz(func(t *testing.T, raw, cmds []byte) {
		if len(raw) == 0 || len(raw) > 32 {
			return
		}
		n := len(raw)
		periods := make([]int, n+1)
		for i, b := range raw {
			periods[i+1] = int(b)
		}
		if err := video.ValidatePeriods(periods, n); err != nil {
			return // correctly rejected
		}
		s, err := New(Config{Segments: n, Periods: periods, TrackSegments: true})
		if err != nil {
			t.Fatalf("validated periods rejected by the scheduler: %v", err)
		}
		if len(cmds) > 200 {
			cmds = cmds[:200]
		}
		for _, c := range cmds {
			from, burst := 1, 1
			switch c % 8 {
			case 0, 1:
				s.AdvanceSlot()
				continue
			case 2, 3:
			case 4:
				burst = 2 + int(c/8)%3
			default:
				from = 1 + int(c)%n
			}
			for ; burst > 0; burst-- {
				i := s.CurrentSlot()
				before := windowCopies(s, i, from)
				got, err := admitFromTraced(s, from)
				if err != nil {
					t.Fatal(err)
				}
				checkDeadlines(t, s, i, from, got)
				checkShared(t, s, i, from, before)
			}
		}
	})
}

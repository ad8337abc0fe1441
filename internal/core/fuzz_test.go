package core

import (
	"errors"
	"testing"

	"vodcast/internal/video"
)

// fuzzPeriods derives a legal period vector for n segments from raw: empty
// selects the CBR default T[j] = j; otherwise T[1] = 1 and every other T[j]
// is 1 + raw[..] % 2n in whatever order the bytes give, non-monotone
// included. atLeastJ adds j-1, keeping T[j] >= j, which meets the capped
// mode's feasibility condition c·T[j] >= j for every cap.
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

// windowScan is what the windows of one admission held before it, found
// by scanning the slots rather than by asking the scheduler's own index.
type windowScan struct {
	copies []int // copies[j]: the instances of S_j in its window
	latest []int // latest[j]: the latest of them, 0 when there is none
	loads  []int // loads[k]: the load of slot i+1+k
}

// scanWindow scans the window [i+1, i+T[j-from+1]] of every segment j >=
// from for a customer who starts at segment from and is admitted during
// slot i. s must track segments.
func scanWindow(s *Scheduler, i, from int) windowScan {
	w := windowScan{copies: make([]int, s.n+1), latest: make([]int, s.n+1), loads: make([]int, maxPeriod(s))}
	for slot := i + 1; slot <= i+maxPeriod(s); slot++ {
		w.loads[slot-i-1] = s.LoadAt(slot)
		s.EachScheduledAt(slot, func(j int) {
			if j >= from && slot <= i+s.Period(j-from+1) {
				w.copies[j]++
				w.latest[j] = slot
			}
		})
	}
	return w
}

// checkShared fails unless an uncapped admission during slot i from segment
// from shared S_j whenever an instance of it lay in the window (before is
// the scan taken before the admission) and placed exactly one otherwise:
// Figure 6's "already scheduled in the window".
func checkShared(t *testing.T, s *Scheduler, i, from int, before windowScan) {
	t.Helper()
	after := scanWindow(s, i, from)
	for j := from; j <= s.n; j++ {
		if want := max(before.copies[j], 1); after.copies[j] != want {
			t.Fatalf("request of slot %d from segment %d: %d copies of segment %d in its window, want %d (%d before)",
				i, from, after.copies[j], j, want, before.copies[j])
		}
	}
}

// checkFigure6 fails unless an uncapped admission during slot i from segment
// from, which returned assignment got, followed Figure 6's rule as written,
// judged from the scan before it: S_j is served by the latest instance in
// its window when there is one, and otherwise lands on the window slot of
// minimum load as the loop saw it (before's loads plus this admission's
// earlier placements), ties toward the latest slot (PolicyHeuristic) or the
// earliest (PolicyMinLoadEarliest), or on the window's last slot
// (PolicyNaive).
func checkFigure6(t *testing.T, s *Scheduler, i, from int, before windowScan, got []int) {
	t.Helper()
	loads := append([]int(nil), before.loads...)
	load := func(slot int) int { return loads[slot-i-1] }
	for j := from; j <= s.n; j++ {
		hi := i + s.Period(j-from+1)
		want := before.latest[j]
		if want == 0 {
			switch s.policy {
			case PolicyNaive:
				want = hi
			case PolicyMinLoadEarliest:
				want = i + 1
				for slot := i + 2; slot <= hi; slot++ {
					if load(slot) < load(want) {
						want = slot
					}
				}
			default:
				want = hi
				for slot := hi - 1; slot > i; slot-- {
					if load(slot) < load(want) {
						want = slot
					}
				}
			}
			loads[want-i-1]++
		}
		if got[j] != want {
			t.Fatalf("request of slot %d from segment %d (policy %d): segment %d at slot %d, Figure 6 says %d (latest in window before: %d)",
				i, from, s.policy, j, got[j], want, before.latest[j])
		}
	}
}

// FuzzSchedulerInvariants drives a scheduler with an arbitrary byte-coded
// command stream over an arbitrary legal period vector, policy and client
// cap, checking every protocol invariant on every step: no panics,
// deadlines always met, no uncapped admission placing a segment that has an
// instance in its window, every uncapped assignment the one Figure 6's rule
// picks from the slots as they stood, and conservation of instances.
//
// Command encoding (one byte each):
//
//	0-1: advance one slot
//	2-3: admit an ordinary request
//	4:   admit a same-slot duplicate burst of 2-4 ordinary requests; without
//	     a client cap they want no assignment, as the live server's do
//	5-7: admit a resume at a segment derived from the byte
//
// capByte%4 is the client cap (0 = unlimited); without one, capByte/4
// picks the policy: heuristic, naive or min-load-earliest.
func FuzzSchedulerInvariants(f *testing.F) {
	f.Add([]byte{2, 0, 2, 2, 0, 5, 0, 0}, uint8(12), uint8(0), []byte{})
	f.Add([]byte{3, 3, 3, 3}, uint8(30), uint8(2), []byte{})
	f.Add([]byte{0, 0, 0}, uint8(1), uint8(1), []byte{})
	f.Add([]byte{4, 4, 0, 4, 2, 0, 4, 6, 4}, uint8(20), uint8(0), []byte{})
	f.Add([]byte{7, 2, 4, 0, 6, 3, 0, 4}, uint8(2), uint8(0), []byte{4, 1}) // T = [1, 5, 2]
	f.Add([]byte{5, 4, 0, 6, 2, 0, 7, 4}, uint8(15), uint8(2), []byte{9, 0, 30, 2, 17})
	// n = 8: a full viewing, a resume from 8, a resume from 7, all in slot
	// 0. The resume from 7 shares the first resume's S_8 in slot 1; the
	// last full viewing finds S_8 in slots 1 and 8 and must take slot 8.
	f.Add([]byte{2, 7, 6, 2}, uint8(7), uint8(0), []byte{})
	f.Add([]byte{2, 2, 0, 2, 5, 3, 0, 2}, uint8(11), uint8(4), []byte{})        // naive
	f.Add([]byte{2, 3, 0, 2, 6, 0, 2, 7}, uint8(11), uint8(8), []byte{5, 2, 9}) // earliest
	f.Fuzz(func(t *testing.T, cmds []byte, segByte, capByte uint8, periodBytes []byte) {
		n := 1 + int(segByte)%40
		cap := int(capByte) % 4 // 0 = unlimited
		policy := PolicyHeuristic
		if cap == 0 {
			policy = Policy(1 + int(capByte/4)%3)
		}
		periods := fuzzPeriods(periodBytes, n, cap > 0)
		s, err := New(Config{Segments: n, Periods: periods, Policy: policy, MaxClientStreams: cap, TrackSegments: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(cmds) > 400 {
			cmds = cmds[:400]
		}
		// admitOne admits one request and checks it against the
		// invariants; traced asks for the assignment too.
		admitOne := func(idx, from int, traced bool) {
			i := s.CurrentSlot()
			before := scanWindow(s, i, from)
			got, err := s.AdmitRequest(AdmitOptions{From: from, WantAssignment: traced})
			if err != nil {
				t.Fatalf("cmd %d: %v", idx, err)
			}
			if cap == 0 {
				checkShared(t, s, i, from, before)
			}
			if !traced {
				return
			}
			checkDeadlines(t, s, i, from, got.Assignment)
			if cap == 0 {
				checkFigure6(t, s, i, from, before, got.Assignment)
			}
		}
		var transmitted int64
		for idx, c := range cmds {
			switch c % 8 {
			case 0, 1:
				transmitted += int64(s.AdvanceSlot().Load)
			case 2, 3:
				admitOne(idx, 1, true)
			case 4:
				for burst := 2 + int(c/8)%3; burst > 0; burst-- {
					admitOne(idx, 1, cap > 0)
				}
			default:
				admitOne(idx, 1+int(c)%n, true)
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
// its own deadlines, placing a segment that has an instance in its window,
// or straying from Figure 6's rule.
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
				before := scanWindow(s, i, from)
				got, err := admitFromTraced(s, from)
				if err != nil {
					t.Fatal(err)
				}
				checkDeadlines(t, s, i, from, got)
				checkShared(t, s, i, from, before)
				checkFigure6(t, s, i, from, before, got)
			}
		}
	})
}

// cappedPeriods decodes FuzzCappedNeverPanics' vector: n = len(raw)+1
// segments, T[1] = 1 and T[j] = 1 + raw[j-2] % 2n.
func cappedPeriods(raw []byte) []int {
	n := len(raw) + 1
	periods := make([]int, n+1)
	periods[1] = 1
	for j := 2; j <= n; j++ {
		periods[j] = 1 + int(raw[j-2])%(2*n)
	}
	return periods
}

// FuzzCappedNeverPanics drives the capped scheduler over any vector, cap,
// arrivals and resumes: a configuration Validate accepts must admit every
// request in its windows and within its cap, and one it refuses must be
// refused under ErrBadClientCap. The vector is cappedPeriods(raw),
// non-monotone and T[j] < j included; the cap is 1 + capByte%4; cmds is
// FuzzSchedulerInvariants' encoding.
func FuzzCappedNeverPanics(f *testing.F) {
	for _, c := range cappedInfeasible {
		f.Add(c.raw, uint8(c.cap-1), c.cmds)
	}
	f.Add([]byte{2, 3, 4}, uint8(0), []byte{2, 0, 2, 5, 6, 0, 4, 7})
	f.Fuzz(func(t *testing.T, raw []byte, capByte uint8, cmds []byte) {
		if len(raw) > 31 {
			raw = raw[:31]
		}
		periods := cappedPeriods(raw)
		n := len(periods) - 1
		cap := 1 + int(capByte)%4
		s, err := New(Config{Segments: n, Periods: periods, MaxClientStreams: cap})
		if errors.Is(err, ErrBadClientCap) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(cmds) > 400 {
			cmds = cmds[:400]
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
				got, err := admitFromTraced(s, from)
				if err != nil {
					t.Fatal(err)
				}
				checkDeadlines(t, s, i, from, got)
				if c := concurrency(got[from-1:]); c > cap {
					t.Fatalf("%v cap %d: a request of slot %d from segment %d downloads %d streams at once", periods, cap, i, from, c)
				}
			}
		}
	})
}

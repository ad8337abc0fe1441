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

// FuzzSchedulerInvariants drives the fast-path scheduler AND its linear
// reference twin (Config.Reference) with an arbitrary byte-coded command
// stream over an arbitrary legal period vector, checking every protocol
// invariant on every step — no panics, deadlines always met, conservation
// of instances — plus exact fast/reference equivalence of assignments,
// loads and counters, so the RMQ ring, the same-slot admission memo, its
// arming on non-decreasing vectors only and its invalidation on AdvanceSlot
// are all fuzzed against the specification.
//
// Command encoding (one byte each):
//
//	0-1: advance one slot (invalidates the same-slot memo)
//	2-3: admit an ordinary request
//	4:   admit a same-slot duplicate burst of 2-4 ordinary requests
//	5-7: admit a resume at a segment derived from the byte
func FuzzSchedulerInvariants(f *testing.F) {
	f.Add([]byte{2, 0, 2, 2, 0, 5, 0, 0}, uint8(12), uint8(0), []byte{})
	f.Add([]byte{3, 3, 3, 3}, uint8(30), uint8(2), []byte{})
	f.Add([]byte{0, 0, 0}, uint8(1), uint8(1), []byte{})
	f.Add([]byte{4, 4, 0, 4, 2, 0, 4, 6, 4}, uint8(20), uint8(0), []byte{})
	f.Add([]byte{7, 2, 4, 0, 6, 3, 0, 4}, uint8(2), uint8(0), []byte{4, 1}) // T = [1, 5, 2]
	f.Add([]byte{5, 4, 0, 6, 2, 0, 7, 4}, uint8(15), uint8(2), []byte{9, 0, 30, 2, 17})
	f.Fuzz(func(t *testing.T, cmds []byte, segByte, capByte uint8, periodBytes []byte) {
		n := 1 + int(segByte)%40
		cap := int(capByte) % 4 // 0 = unlimited
		periods := fuzzPeriods(periodBytes, n, cap > 0)
		s, err := New(Config{Segments: n, Periods: periods, MaxClientStreams: cap})
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
		// admitBoth admits one request on both schedulers, checks the
		// deadline invariant on the fast result and equivalence with the
		// reference.
		admitBoth := func(idx, from int) {
			i := s.CurrentSlot()
			got, err := admitFromTraced(s, from)
			if err != nil {
				t.Fatalf("cmd %d: %v", idx, err)
			}
			want, err := admitFromTraced(ref, from)
			if err != nil {
				t.Fatalf("cmd %d: reference: %v", idx, err)
			}
			checkDeadlines(t, s, i, from, got)
			for j := from; j <= n; j++ {
				if got[j] != want[j] {
					t.Fatalf("cmd %d: segment %d at %d, reference %d", idx, j, got[j], want[j])
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
				admitBoth(idx, 1)
			case 4:
				for burst := 2 + int(c/8)%3; burst > 0; burst-- {
					admitBoth(idx, 1)
				}
			default:
				admitBoth(idx, 1+int(c)%n)
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
// its own deadlines.
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
		s, err := New(Config{Segments: n, Periods: periods})
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
				got, err := admitFromTraced(s, from)
				if err != nil {
					t.Fatal(err)
				}
				checkDeadlines(t, s, i, from, got)
			}
		}
	})
}

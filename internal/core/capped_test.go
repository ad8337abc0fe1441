package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"vodcast/internal/sim"
)

func TestCappedConfigValidation(t *testing.T) {
	if _, err := New(Config{Segments: 5, MaxClientStreams: -1}); err == nil {
		t.Fatal("negative cap should error")
	}
	if _, err := New(Config{Segments: 5, MaxClientStreams: 2, Policy: PolicyNaive}); err == nil {
		t.Fatal("cap with naive policy should error")
	}
	s, err := New(Config{Segments: 5, MaxClientStreams: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.cap != 2 {
		t.Fatalf("cap = %d, want 2", s.cap)
	}
}

// concurrency returns the largest number of this request's segments assigned
// to one slot.
func concurrency(assignment []int) int {
	counts := make(map[int]int)
	max := 0
	for j := 1; j < len(assignment); j++ {
		counts[assignment[j]]++
		if counts[assignment[j]] > max {
			max = counts[assignment[j]]
		}
	}
	return max
}

func TestCappedRespectsClientBandwidth(t *testing.T) {
	for _, cap := range []int{1, 2, 3} {
		s, err := New(Config{Segments: 40, MaxClientStreams: cap})
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(41)
		for step := 0; step < 2500; step++ {
			i := s.CurrentSlot()
			for a := 0; a < rng.Poisson(0.6); a++ {
				got := admitTraced(s)
				if c := concurrency(got); c > cap {
					t.Fatalf("cap %d: request at slot %d downloads %d streams at once", cap, i, c)
				}
				for j := 1; j <= 40; j++ {
					if got[j] < i+1 || got[j] > i+j {
						t.Fatalf("cap %d: segment %d served at %d outside [%d, %d]", cap, j, got[j], i+1, i+j)
					}
				}
			}
			s.AdvanceSlot()
		}
	}
}

func TestCapOneIsSequentialJustInTime(t *testing.T) {
	// With one receivable stream, an isolated request degenerates to the
	// sequential schedule S_j at slot i+j.
	s, err := New(Config{Segments: 12, MaxClientStreams: 1, StartSlot: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := admitTraced(s)
	for j := 1; j <= 12; j++ {
		if got[j] != 1+j {
			t.Fatalf("segment %d at slot %d, want %d", j, got[j], 1+j)
		}
	}
}

func TestCappedSharingStillHappens(t *testing.T) {
	s, err := New(Config{Segments: 30, MaxClientStreams: 2})
	if err != nil {
		t.Fatal(err)
	}
	admit(s)
	s.AdvanceSlot()
	s.AdvanceSlot()
	added := admit(s)
	if added >= 30 {
		t.Fatalf("second request scheduled %d instances: no sharing under cap 2", added)
	}
	if added == 0 {
		t.Fatal("second request cannot share everything (S1, S2 already passed)")
	}
}

func TestCappedBandwidthMonotoneInCap(t *testing.T) {
	// Tighter client bandwidth means less sharing, so the server pays more.
	run := func(cap int) float64 {
		cfg := Config{Segments: 50}
		if cap > 0 {
			cfg.MaxClientStreams = cap
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(43)
		total := 0
		const horizon = 8000
		for slot := 0; slot < horizon; slot++ {
			for a := 0; a < rng.Poisson(0.5); a++ {
				admit(s)
			}
			total += s.AdvanceSlot().Load
		}
		return float64(total) / horizon
	}
	uncapped := run(0)
	cap3 := run(3)
	cap2 := run(2)
	cap1 := run(1)
	if !(cap1 >= cap2 && cap2 >= cap3 && cap3 >= uncapped-0.05) {
		t.Fatalf("bandwidth not monotone in cap: cap1=%.2f cap2=%.2f cap3=%.2f uncapped=%.2f",
			cap1, cap2, cap3, uncapped)
	}
	if cap1 <= uncapped {
		t.Fatalf("cap 1 (%.2f) should cost strictly more than unlimited (%.2f)", cap1, uncapped)
	}
}

func TestCappedTwoOrThreeStreamsCloseToUncapped(t *testing.T) {
	// The conclusion's conjecture: limiting clients to two or three streams
	// should not be ruinous. Verify cap 3 stays within 25% of unlimited at
	// a busy operating point.
	run := func(cap int) float64 {
		cfg := Config{Segments: 99, MaxClientStreams: cap}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(47)
		total := 0
		const horizon = 6000
		for slot := 0; slot < horizon; slot++ {
			for a := 0; a < rng.Poisson(2.0); a++ {
				admit(s)
			}
			total += s.AdvanceSlot().Load
		}
		return float64(total) / horizon
	}
	capped := run(3)
	uncapped := run(0)
	if capped > 1.25*uncapped {
		t.Fatalf("cap 3 bandwidth %.2f more than 25%% above unlimited %.2f", capped, uncapped)
	}
}

func TestCappedInstanceConservation(t *testing.T) {
	s, err := New(Config{Segments: 15, MaxClientStreams: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(53)
	var transmitted int64
	for step := 0; step < 3000; step++ {
		for a := 0; a < rng.Poisson(0.4); a++ {
			admit(s)
		}
		transmitted += int64(s.AdvanceSlot().Load)
	}
	for k := 0; k <= 15; k++ {
		transmitted += int64(s.AdvanceSlot().Load)
	}
	if transmitted != s.Instances() {
		t.Fatalf("transmitted %d, scheduled %d", transmitted, s.Instances())
	}
}

func TestCappedWithStretchedPeriods(t *testing.T) {
	periods := []int{0, 1, 3, 3, 5, 6, 8, 9, 9}
	s, err := New(Config{Segments: 8, Periods: periods, MaxClientStreams: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(59)
	for step := 0; step < 3000; step++ {
		i := s.CurrentSlot()
		for a := 0; a < rng.Poisson(0.9); a++ {
			got := admitTraced(s)
			if c := concurrency(got); c > 2 {
				t.Fatalf("concurrency %d under cap 2", c)
			}
			for j := 1; j <= 8; j++ {
				if got[j] < i+1 || got[j] > i+periods[j] {
					t.Fatalf("segment %d at %d outside [%d, %d]", j, got[j], i+1, i+periods[j])
				}
			}
		}
		s.AdvanceSlot()
	}
}

// cappedInfeasible are vectors and caps the validator once accepted and
// AdmitRequest then panicked on ("no feasible slot"), with the arrivals
// (FuzzSchedulerInvariants' encoding) that reached the panic: each has some
// k with cap·T[k] < k. minCap is the smallest cap Validate accepts,
// max ⌈k/T[k]⌉. raw encodes the vector as cappedPeriods decodes it.
var cappedInfeasible = []struct {
	name           string
	periods        []int
	raw            []byte
	cap, minCap, k int
	cmds           []byte
}{
	{"T=[1 1] cap 1", []int{0, 1, 1}, []byte{0}, 1, 2, 2,
		[]byte{1, 7, 7, 3, 1, 6, 1, 4, 0, 4, 6, 7}},
	{"T=[1 4 2] cap 1", []int{0, 1, 4, 2}, []byte{3, 1}, 1, 2, 3,
		[]byte{1, 7, 7, 3, 1, 6, 1, 4, 0, 4, 6, 7}},
	{"T=[1 3 3 6 2 2 8] cap 2", []int{0, 1, 3, 3, 6, 2, 2, 8}, []byte{2, 2, 5, 1, 1, 7}, 2, 3, 5,
		[]byte{0, 1, 0, 2, 1, 3, 4, 5, 0, 3, 2, 6}},
}

// TestCappedInfeasibleVectorsRejected: the validator refuses each vector's
// panicking cap under ErrBadClientCap, naming the first k with cap·T[k] < k,
// and the scheduler at the smallest accepted cap runs the arrivals that
// panicked, then mixed full viewings and resumes, in its windows and cap.
func TestCappedInfeasibleVectorsRejected(t *testing.T) {
	for _, c := range cappedInfeasible {
		t.Run(c.name, func(t *testing.T) {
			if got := cappedPeriods(c.raw); !slices.Equal(got, c.periods) {
				t.Fatalf("raw %v decodes to %v, want %v", c.raw, got, c.periods)
			}
			n := len(c.periods) - 1
			for cap := 1; cap < c.minCap; cap++ {
				err := Config{Segments: n, Periods: c.periods, MaxClientStreams: cap}.Validate()
				if !errors.Is(err, ErrBadClientCap) {
					t.Fatalf("cap %d: Validate = %v, want ErrBadClientCap", cap, err)
				}
				if cap == c.cap && !strings.Contains(err.Error(), fmt.Sprintf("segment %d's", c.k)) {
					t.Fatalf("cap %d: %v does not name segment %d", cap, err, c.k)
				}
			}
			s, err := New(Config{Segments: n, Periods: c.periods, MaxClientStreams: c.minCap})
			if err != nil {
				t.Fatalf("cap %d: %v", c.minCap, err)
			}
			rng := sim.NewRNG(int64(n))
			cmds := c.cmds
			for step := 0; step < 3000; step++ {
				cmds = append(cmds, byte(rng.Intn(8)))
			}
			for _, b := range cmds {
				if b%8 < 2 {
					s.AdvanceSlot()
					continue
				}
				from := 1
				if b%8 >= 5 {
					from = 1 + int(b)%n
				}
				i := s.CurrentSlot()
				got, err := admitFromTraced(s, from)
				if err != nil {
					t.Fatal(err)
				}
				checkDeadlines(t, s, i, from, got)
				if conc := concurrency(got[from-1:]); conc > c.minCap {
					t.Fatalf("request of slot %d from %d downloads %d streams at once, cap %d", i, from, conc, c.minCap)
				}
			}
		})
	}
}

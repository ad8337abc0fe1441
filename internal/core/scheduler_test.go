package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"vodcast/internal/sim"
)

func mustNew(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{name: "zero segments", cfg: Config{Segments: 0}},
		{name: "bad periods length", cfg: Config{Segments: 3, Periods: []int{0, 1}}},
		{name: "T1 not one", cfg: Config{Segments: 2, Periods: []int{0, 2, 2}}},
		{name: "unknown policy", cfg: Config{Segments: 2, Policy: Policy(9)}},
		{name: "negative start slot", cfg: Config{Segments: 2, StartSlot: -1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.cfg); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

func TestDHBFigure4(t *testing.T) {
	// Figure 4: one request arriving during slot 1 into an idle system
	// schedules S_i in slot i+1 for every i.
	s := mustNew(t, Config{Segments: 6, TrackSegments: true, StartSlot: 1})
	added := admit(s)
	if added != 6 {
		t.Fatalf("Admit scheduled %d instances, want 6", added)
	}
	for i := 1; i <= 6; i++ {
		got := s.ScheduledAt(1 + i)
		if len(got) != 1 || got[0] != i {
			t.Errorf("slot %d holds %v, want [S%d]", 1+i, got, i)
		}
	}
}

func TestDHBFigure5(t *testing.T) {
	// Figure 5: a second request during slot 3 shares S3..S6 with the first
	// request and schedules only S1 in slot 4 and S2 in slot 5.
	s := mustNew(t, Config{Segments: 6, TrackSegments: true, StartSlot: 1})
	admit(s)
	s.AdvanceSlot() // finish slot 1
	s.AdvanceSlot() // finish slot 2
	if s.CurrentSlot() != 3 {
		t.Fatalf("current slot = %d, want 3", s.CurrentSlot())
	}
	added := admit(s)
	if added != 2 {
		t.Fatalf("second request scheduled %d new instances, want 2 (S1 and S2)", added)
	}
	wantSlots := map[int][]int{
		3: {2},
		4: {3, 1},
		5: {4, 2},
		6: {5},
		7: {6},
	}
	for slot, want := range wantSlots {
		if got := s.ScheduledAt(slot); !reflect.DeepEqual(got, want) {
			t.Errorf("slot %d holds %v, want %v", slot, got, want)
		}
	}
}

func TestAdmitTracedSharing(t *testing.T) {
	s := mustNew(t, Config{Segments: 6, StartSlot: 1})
	first := admitTraced(s)
	for j := 1; j <= 6; j++ {
		if first[j] != 1+j {
			t.Fatalf("first request: segment %d served at slot %d, want %d", j, first[j], 1+j)
		}
	}
	s.AdvanceSlot()
	s.AdvanceSlot()
	second := admitTraced(s)
	// S3..S6 must be shared with the first request's instances.
	for j := 3; j <= 6; j++ {
		if second[j] != first[j] {
			t.Errorf("segment %d not shared: slot %d vs %d", j, second[j], first[j])
		}
	}
	if second[1] != 4 || second[2] != 5 {
		t.Errorf("new instances at S1=%d S2=%d, want 4 and 5", second[1], second[2])
	}
}

func TestHeuristicNeverDelaysPastDeadline(t *testing.T) {
	// Property: for every request arriving at slot i, segment j is served in
	// [i+1, i+T[j]] — the heuristic "never affects the customer waiting
	// time" (Section 3).
	rng := sim.NewRNG(13)
	s := mustNew(t, Config{Segments: 25})
	for step := 0; step < 4000; step++ {
		arrivals := rng.Poisson(0.7)
		i := s.CurrentSlot()
		for a := 0; a < arrivals; a++ {
			got := admitTraced(s)
			for j := 1; j <= s.n; j++ {
				if got[j] < i+1 || got[j] > i+j {
					t.Fatalf("slot %d: segment %d served at %d outside [%d, %d]",
						i, j, got[j], i+1, i+j)
				}
			}
		}
		s.AdvanceSlot()
	}
}

func TestNaivePolicyDeadlines(t *testing.T) {
	rng := sim.NewRNG(14)
	s := mustNew(t, Config{Segments: 20, Policy: PolicyNaive})
	for step := 0; step < 2000; step++ {
		i := s.CurrentSlot()
		if rng.Float64() < 0.5 {
			got := admitTraced(s)
			for j := 1; j <= s.n; j++ {
				if got[j] < i+1 || got[j] > i+j {
					t.Fatalf("naive: segment %d served at %d outside [%d, %d]", j, got[j], i+1, i+j)
				}
			}
		}
		s.AdvanceSlot()
	}
}

func TestStretchedPeriodsRespected(t *testing.T) {
	periods := []int{0, 1, 3, 3, 9, 9}
	s := mustNew(t, Config{Segments: 5, Periods: periods})
	rng := sim.NewRNG(15)
	for step := 0; step < 3000; step++ {
		i := s.CurrentSlot()
		if rng.Float64() < 0.8 {
			got := admitTraced(s)
			for j := 1; j <= 5; j++ {
				if got[j] < i+1 || got[j] > i+periods[j] {
					t.Fatalf("segment %d served at %d outside [%d, %d]", j, got[j], i+1, i+periods[j])
				}
			}
		}
		s.AdvanceSlot()
	}
}

func TestSingleRequestCostsOneInstancePerSegment(t *testing.T) {
	s := mustNew(t, Config{Segments: 99})
	admit(s)
	total := 0
	for slot := 0; slot < 200; slot++ {
		total += s.AdvanceSlot().Load
	}
	if total != 99 {
		t.Fatalf("one isolated request transmitted %d instances, want 99", total)
	}
	if s.Instances() != 99 || s.Requests() != 1 {
		t.Fatalf("counters: %d instances, %d requests", s.Instances(), s.Requests())
	}
}

func TestSameSlotRequestsShareEverything(t *testing.T) {
	s := mustNew(t, Config{Segments: 50})
	if added := admit(s); added != 50 {
		t.Fatalf("first request added %d, want 50", added)
	}
	for r := 0; r < 10; r++ {
		if added := admit(s); added != 0 {
			t.Fatalf("same-slot request added %d new instances, want 0", added)
		}
	}
}

func TestSaturatedLoadNearHarmonicBound(t *testing.T) {
	// With at least one request per slot, DHB transmits segment j roughly
	// once every j slots, so mean load approaches the harmonic number
	// H(n). For n = 99, H(99) ~ 5.17. The heuristic's early placements can
	// cost a little extra; it must stay below the 6 streams of the pagoda
	// comparator (Figure 7's key finding).
	s := mustNew(t, Config{Segments: 99})
	const warmup, horizon = 500, 20000
	var total int
	for slot := 0; slot < horizon; slot++ {
		admit(s)
		rep := s.AdvanceSlot()
		if slot >= warmup {
			total += rep.Load
		}
	}
	mean := float64(total) / float64(horizon-warmup)
	if mean < 4.5 || mean > 6.0 {
		t.Fatalf("saturated mean load = %.3f, want within (4.5, 6.0) around H(99)=5.17", mean)
	}
}

func TestNaivePeaksExplodeHeuristicPeaksDoNot(t *testing.T) {
	// Section 3: without the heuristic, continuous demand piles one
	// transmission of many segments into the same slot (slot 120! would
	// carry all 120). The heuristic flattens those peaks.
	run := func(policy Policy) (maxLoad int) {
		s := mustNew(t, Config{Segments: 120, Policy: policy})
		for slot := 0; slot < 10000; slot++ {
			admit(s)
			if rep := s.AdvanceSlot(); rep.Load > maxLoad {
				maxLoad = rep.Load
			}
		}
		return maxLoad
	}
	naive := run(PolicyNaive)
	heuristic := run(PolicyHeuristic)
	if naive < 2*heuristic {
		t.Fatalf("naive peak %d not clearly above heuristic peak %d", naive, heuristic)
	}
	if heuristic > 12 {
		t.Fatalf("heuristic peak %d too high for n=120 (H(120)=5.3)", heuristic)
	}
}

func TestLowRateSharingBeatsIsolatedCost(t *testing.T) {
	// Overlapping requests must share high-numbered segments: the total
	// instance count for two requests i slots apart (i < n) is strictly
	// less than 2n.
	s := mustNew(t, Config{Segments: 30})
	admit(s)
	for k := 0; k < 10; k++ {
		s.AdvanceSlot()
	}
	admit(s)
	total := 0
	for k := 0; k < 100; k++ {
		total += s.AdvanceSlot().Load
	}
	if total >= 60 {
		t.Fatalf("two overlapping requests cost %d instances, want < 60", total)
	}
	if total < 30 {
		t.Fatalf("two requests cost %d instances, below a single request's 30", total)
	}
}

func TestInstanceConservationProperty(t *testing.T) {
	// Whatever arrival pattern drives the scheduler, every scheduled
	// instance is transmitted exactly once.
	f := func(pattern []uint8) bool {
		s, err := New(Config{Segments: 12})
		if err != nil {
			return false
		}
		var transmitted int64
		for _, p := range pattern {
			for a := 0; a < int(p%3); a++ {
				admit(s)
			}
			transmitted += int64(s.AdvanceSlot().Load)
		}
		// Drain the full scheduling horizon.
		for k := 0; k <= 12; k++ {
			transmitted += int64(s.AdvanceSlot().Load)
		}
		return transmitted == s.Instances()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyDefaultsToHeuristic(t *testing.T) {
	s := mustNew(t, Config{Segments: 5})
	if s.policy != PolicyHeuristic {
		t.Fatalf("default policy = %v, want heuristic", s.policy)
	}
}

func TestPeriodAccessor(t *testing.T) {
	s := mustNew(t, Config{Segments: 4, Periods: []int{0, 1, 3, 3, 7}})
	if s.Period(2) != 3 || s.Period(4) != 7 {
		t.Fatalf("Period(2)=%d Period(4)=%d", s.Period(2), s.Period(4))
	}
}

func TestConfigPeriodsCopied(t *testing.T) {
	periods := []int{0, 1, 2, 3}
	s := mustNew(t, Config{Segments: 3, Periods: periods})
	periods[2] = 99
	if s.Period(2) != 2 {
		t.Fatal("scheduler aliased the caller's period slice")
	}
}

func TestLoadAt(t *testing.T) {
	s := mustNew(t, Config{Segments: 5, StartSlot: 1})
	admit(s)
	if got := s.LoadAt(2); got != 1 {
		t.Fatalf("LoadAt(2) = %d, want 1", got)
	}
	if got := s.LoadAt(1); got != 0 {
		t.Fatalf("LoadAt(1) = %d, want 0 (current slot untouched)", got)
	}
}

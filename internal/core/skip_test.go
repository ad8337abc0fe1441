package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestSkipEqualsRepeatedAdvance is the differential test behind the
// station's idle videos: a scheduler that Skips k slots once drained must
// be indistinguishable, for every later admission and every later retired
// slot, from its twin that called AdvanceSlot k times — across the whole
// scenario matrix (CBR and irregular period vectors, every policy, the
// capped variants, resumes) and for gaps shorter and far longer than the
// ring horizon.
func TestSkipEqualsRepeatedAdvance(t *testing.T) {
	for _, sc := range diffScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			mk := func() *Scheduler {
				s, err := New(Config{
					Segments: sc.n, Policy: sc.policy, Periods: sc.periods,
					MaxClientStreams: sc.cap, TrackSegments: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			skipper, stepper := mk(), mk()
			rng := rand.New(rand.NewSource(int64(len(sc.name)) + int64(sc.n)))
			horizon := maxPeriod(skipper) + 1
			step := 0
			for round := 0; round < 40; round++ {
				// A busy phase: random admissions and advances, compared
				// result for result and report for report.
				for busy := 1 + rng.Intn(2*horizon); busy > 0; busy-- {
					for a := rng.Intn(4); a > 0; a-- {
						opts := AdmitOptions{WantAssignment: true}
						if sc.resumes && rng.Intn(3) == 0 {
							opts.From = 1 + rng.Intn(sc.n)
						}
						got, err1 := skipper.AdmitRequest(opts)
						want, err2 := stepper.AdmitRequest(opts)
						if err1 != nil || err2 != nil {
							t.Fatalf("step %d: admit errors %v / %v", step, err1, err2)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("step %d: admit after skips %+v, after advances %+v", step, got, want)
						}
					}
					if got, want := skipper.AdvanceSlot(), stepper.AdvanceSlot(); !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: retired %+v after skips, %+v after advances", step, got, want)
					}
					checkState(t, step, skipper, stepper)
					step++
				}
				// Drain both, then cross an idle gap: one Skip against k
				// AdvanceSlots that must each retire an empty slot.
				for skipper.Pending() > 0 {
					if got, want := skipper.AdvanceSlot(), stepper.AdvanceSlot(); !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: drain retired %+v / %+v", step, got, want)
					}
				}
				if stepper.Pending() != 0 {
					t.Fatalf("step %d: twins disagree on pending: 0 / %d", step, stepper.Pending())
				}
				k := rng.Intn(3 * horizon)
				skipper.Skip(k)
				for i := 0; i < k; i++ {
					if rep := stepper.AdvanceSlot(); rep.Load != 0 || len(rep.Segments) != 0 {
						t.Fatalf("step %d: drained scheduler retired %+v", step, rep)
					}
				}
				checkState(t, step, skipper, stepper)
			}
		})
	}
}

// TestSkipWithPendingInstancePanics: skipping is only defined for a drained
// scheduler; with an instance scheduled it would lose a transmission.
func TestSkipWithPendingInstancePanics(t *testing.T) {
	s, err := New(Config{Segments: 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 0 {
		t.Fatalf("fresh scheduler has %d pending instances", s.Pending())
	}
	s.Skip(3)
	if s.CurrentSlot() != 3 {
		t.Fatalf("slot %d after Skip(3)", s.CurrentSlot())
	}
	res, err := s.AdmitRequest(AdmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Slot != 3 || s.Pending() != 5 {
		t.Fatalf("admit at slot %d left %d pending, want slot 3 and 5", res.Slot, s.Pending())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Skip with pending instances did not panic")
		}
		if s.CurrentSlot() != 3 {
			t.Fatalf("refused Skip moved the scheduler to slot %d", s.CurrentSlot())
		}
	}()
	s.Skip(1)
}

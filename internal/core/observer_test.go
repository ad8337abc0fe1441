package core

import (
	"testing"
)

// recordingObserver checks the callback invariants while counting events.
type recordingObserver struct {
	t          *testing.T
	n          int
	admits     int
	resumes    int
	decisions  int
	newDecided int         // decisions since the last admit callback
	newPlaced  int         // non-shared decisions since the last admit callback
	starts     map[int]int // slot -> instances started
	retires    []int       // retired slots in order
	lastRetire int
}

func newRecordingObserver(t *testing.T, n int) *recordingObserver {
	return &recordingObserver{t: t, n: n, starts: make(map[int]int), lastRetire: -1}
}

func (r *recordingObserver) ObserveAdmit(slot, from, placed int) {
	r.t.Helper()
	if from > 1 {
		r.resumes++
	} else {
		r.admits++
	}
	if placed != r.newPlaced {
		r.t.Fatalf("admit at slot %d reported %d placed, observed %d new decisions", slot, placed, r.newPlaced)
	}
	if want := r.n - from + 1; r.newDecided != want {
		r.t.Fatalf("admit at slot %d from %d: %d decisions, want one per segment (%d)", slot, from, r.newDecided, want)
	}
	r.newDecided, r.newPlaced = 0, 0
}

func (r *recordingObserver) ObserveDecision(reqSlot, segment, slot, windowLo, windowHi, load int, shared bool) {
	r.t.Helper()
	r.decisions++
	r.newDecided++
	if windowLo != reqSlot+1 {
		r.t.Fatalf("segment %d window starts at %d, want %d", segment, windowLo, reqSlot+1)
	}
	if slot < windowLo || slot > windowHi {
		r.t.Fatalf("segment %d placed at %d outside window [%d, %d]", segment, slot, windowLo, windowHi)
	}
	if load < 1 {
		r.t.Fatalf("segment %d decision with load %d", segment, load)
	}
	if !shared {
		r.newPlaced++
		r.starts[slot]++
	}
}

func (r *recordingObserver) ObserveRetire(slot, load int, segments []int) {
	r.t.Helper()
	if slot <= r.lastRetire {
		r.t.Fatalf("retire of slot %d after slot %d: out of order", slot, r.lastRetire)
	}
	r.lastRetire = slot
	r.retires = append(r.retires, slot)
	if segments != nil && len(segments) != load {
		r.t.Fatalf("slot %d retired %d segments with load %d", slot, len(segments), load)
	}
	if got := r.starts[slot]; got != load {
		r.t.Fatalf("slot %d retired with load %d, observed %d instance starts", slot, load, got)
	}
}

// driveObserved runs a deterministic admission pattern through a scheduler.
func driveObserved(t *testing.T, cfg Config, slots int) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < slots; k++ {
		if k%2 == 0 {
			admit(s)
		}
		if k%4 == 0 {
			admit(s) // a same-slot repeat
		}
		if k%5 == 3 {
			if _, err := admitFrom(s, 1+k%s.n); err != nil {
				t.Fatal(err)
			}
		}
		s.AdvanceSlot()
	}
	// Drain so every observed instance start is matched by a retire.
	for k := 0; k < s.n+1; k++ {
		s.AdvanceSlot()
	}
}

// TestObserverInvariants drives the plain and capped schedulers with an
// invariant-checking observer: windows honoured, one decision per segment
// and placed counts consistent for every admission (same-slot repeats
// included), retires in slot order, per-slot starts equal to the retired
// load.
func TestObserverInvariants(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"heuristic", Config{Segments: 12, TrackSegments: true}},
		{"naive", Config{Segments: 12, Policy: PolicyNaive, TrackSegments: true}},
		{"capped", Config{Segments: 12, MaxClientStreams: 2, TrackSegments: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := newRecordingObserver(t, tc.cfg.Segments)
			tc.cfg.Observer = rec
			driveObserved(t, tc.cfg, 60)
			if rec.admits == 0 || rec.resumes == 0 || rec.decisions == 0 {
				t.Fatalf("observer missed events: %d admits, %d resumes, %d decisions",
					rec.admits, rec.resumes, rec.decisions)
			}
			if len(rec.retires) == 0 {
				t.Fatal("no retire callbacks")
			}
		})
	}
}

// TestObserverNilSafe: a nil observer must change nothing about scheduling.
func TestObserverNilSafe(t *testing.T) {
	run := func(obs Observer) []int {
		s, err := New(Config{Segments: 20, Observer: obs})
		if err != nil {
			t.Fatal(err)
		}
		var loads []int
		for k := 0; k < 100; k++ {
			if k%3 == 0 {
				admit(s)
			}
			loads = append(loads, s.AdvanceSlot().Load)
		}
		return loads
	}
	plain := run(nil)
	observed := run(newRecordingObserver(t, 20))
	for i := range plain {
		if plain[i] != observed[i] {
			t.Fatalf("slot %d: load %d with observer, %d without", i, observed[i], plain[i])
		}
	}
}

// noopObserver measures pure hook-dispatch overhead.
type noopObserver struct{}

func (noopObserver) ObserveAdmit(slot, from, placed int) {}
func (noopObserver) ObserveDecision(reqSlot, segment, slot, windowLo, windowHi, load int, shared bool) {
}
func (noopObserver) ObserveRetire(slot, load int, segments []int) {}

// benchScheduler drives the Figure 7 steady-state pattern: one arrival per
// slot at n = 99.
func benchScheduler(b *testing.B, obs Observer) {
	b.Helper()
	s, err := New(Config{Segments: 99, Observer: obs})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		admit(s)
		s.AdvanceSlot()
	}
}

// BenchmarkSchedulerObserverOff is the guard for the "<2% overhead when
// disabled" contract: compare against BenchmarkSchedulerObserverOn (noop
// observer) and against the pre-observability baseline.
func BenchmarkSchedulerObserverOff(b *testing.B) { benchScheduler(b, nil) }

// BenchmarkSchedulerObserverOn measures hook dispatch with a no-op observer.
func BenchmarkSchedulerObserverOn(b *testing.B) { benchScheduler(b, noopObserver{}) }

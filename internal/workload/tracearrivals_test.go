package workload

import "testing"

func TestNewArrivalTraceValidation(t *testing.T) {
	if _, err := NewArrivalTrace(nil); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, err := NewArrivalTrace([]float64{1, -2}); err == nil {
		t.Fatal("negative time accepted")
	}
}

func TestNewArrivalTraceSortsAndCopies(t *testing.T) {
	times := []float64{30, 10, 20}
	tr, err := NewArrivalTrace(times)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Duration() != 30 || tr.Count() != 3 {
		t.Fatalf("duration=%v count=%d", tr.Duration(), tr.Count())
	}
	times[0] = 999 // must not affect the trace
	if tr.Duration() != 30 {
		t.Fatal("trace aliased caller slice")
	}
}

// TestDegenerateTraces: accessors on traces the constructor would reject —
// nil receivers and zero values reached through struct embedding or decoding
// — report zeros instead of panicking.
func TestDegenerateTraces(t *testing.T) {
	tests := []struct {
		name string
		tr   *ArrivalTrace
	}{
		{"nil trace", nil},
		{"zero value", &ArrivalTrace{}},
		{"single point at origin", &ArrivalTrace{times: []float64{0}}},
		{"simultaneous burst at origin", &ArrivalTrace{times: []float64{0, 0, 0}}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if d := tc.tr.Duration(); d != 0 {
				t.Fatalf("Duration = %v, want 0", d)
			}
		})
	}
	if n := (*ArrivalTrace)(nil).Count(); n != 0 {
		t.Fatalf("nil Count = %d, want 0", n)
	}
	// A single arrival off the origin has a duration.
	single := &ArrivalTrace{times: []float64{7.2}}
	if single.Duration() != 7.2 {
		t.Fatalf("Duration = %v, want 7.2", single.Duration())
	}
}

func TestSlotted(t *testing.T) {
	tr, err := NewArrivalTrace([]float64{0, 5, 5.5, 19, 20})
	if err != nil {
		t.Fatal(err)
	}
	counts, err := tr.Slotted(10)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 1, 1}
	if len(counts) != len(want) {
		t.Fatalf("slots = %v, want %v", counts, want)
	}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("slots = %v, want %v", counts, want)
		}
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != tr.Count() {
		t.Fatalf("slotted counts sum to %d, want %d", total, tr.Count())
	}
	if _, err := tr.Slotted(0); err == nil {
		t.Fatal("zero slot accepted")
	}
}

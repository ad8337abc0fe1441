package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestBandwidthMean(t *testing.T) {
	b := NewBandwidth()
	b.Record(2, 10)
	b.Record(4, 10)
	if got := b.Mean(); got != 3 {
		t.Fatalf("Mean = %v, want 3", got)
	}
	if got := b.Max(); got != 4 {
		t.Fatalf("Max = %v, want 4", got)
	}
}

func TestBandwidthWeighting(t *testing.T) {
	b := NewBandwidth()
	b.Record(1, 90)
	b.Record(10, 10)
	want := (1*90 + 10*10) / 100.0
	if got := b.Mean(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
}

func TestBandwidthEmptyMean(t *testing.T) {
	b := NewBandwidth()
	if b.Mean() != 0 || b.Max() != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
}

func TestBandwidthZeroWeightUpdatesMax(t *testing.T) {
	b := NewBandwidth()
	b.Record(7, 0)
	if b.Max() != 7 {
		t.Fatalf("Max = %v, want 7 after zero-weight peak", b.Max())
	}
	if b.Mean() != 0 {
		t.Fatalf("Mean = %v, want 0 (zero weight)", b.Mean())
	}
}

func TestBandwidthNegativeWeightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative weight did not panic")
		}
	}()
	NewBandwidth().Record(1, -1)
}

func TestBandwidthQuantile(t *testing.T) {
	b := NewBandwidth()
	b.Record(1, 50)
	b.Record(2, 30)
	b.Record(3, 20)
	tests := []struct {
		q    float64
		want int
	}{
		{q: 0.5, want: 1},
		{q: 0.6, want: 2},
		{q: 0.8, want: 2},
		{q: 0.9, want: 3},
		{q: 1.0, want: 3},
	}
	for _, tt := range tests {
		if got := b.Quantile(tt.q); got != tt.want {
			t.Errorf("Quantile(%v) = %d, want %d", tt.q, got, tt.want)
		}
	}
}

func TestBandwidthQuantileEdges(t *testing.T) {
	b := NewBandwidth()
	if b.Quantile(0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
	b.Record(4, 10)
	if b.Quantile(2) != 4 {
		t.Fatal("q > 1 should clamp to max load")
	}
	if b.Quantile(0) != 0 {
		t.Fatal("q <= 0 should report 0")
	}
}

func TestBandwidthString(t *testing.T) {
	b := NewBandwidth()
	b.Record(2, 10)
	if s := b.String(); !strings.Contains(s, "mean=2.000") {
		t.Fatalf("String() = %q", s)
	}
}

func TestBandwidthMeanBoundedByMaxProperty(t *testing.T) {
	f := func(loads []float64) bool {
		b := NewBandwidth()
		for _, l := range loads {
			v := math.Mod(math.Abs(l), 1e6)
			if math.IsNaN(v) {
				v = 0
			}
			b.Record(v, 1)
		}
		return b.Mean() <= b.Max()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWaitStats(t *testing.T) {
	w := NewWait()
	w.Record(10)
	w.Record(20)
	w.Record(60)
	if got := w.Mean(); got != 30 {
		t.Fatalf("Mean = %v, want 30", got)
	}
	if got := w.Max(); got != 60 {
		t.Fatalf("Max = %v, want 60", got)
	}
	if got := w.Count(); got != 3 {
		t.Fatalf("Count = %v, want 3", got)
	}
}

func TestWaitEmpty(t *testing.T) {
	w := NewWait()
	if w.Mean() != 0 || w.Max() != 0 || w.Count() != 0 {
		t.Fatal("empty wait accumulator should report zeros")
	}
}

func TestWaitNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative wait did not panic")
		}
	}()
	NewWait().Record(-1)
}

func TestCounterStepFunction(t *testing.T) {
	bw := NewBandwidth()
	c := NewCounter(bw)
	c.Set(0, 0)
	c.Add(2, 10)  // value 0 for [0,10)
	c.Add(1, 20)  // value 2 for [10,20)
	c.Add(-3, 40) // value 3 for [20,40)
	c.Finish(50)  // value 0 for [40,50)
	want := (0*10 + 2*10 + 3*20 + 0*10) / 50.0
	if got := bw.Mean(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
	if bw.Max() != 3 {
		t.Fatalf("Max = %v, want 3", bw.Max())
	}
}

func TestCounterInstantPeakCounts(t *testing.T) {
	bw := NewBandwidth()
	c := NewCounter(bw)
	c.Set(0, 0)
	c.Set(9, 5)
	c.Set(0, 5) // peak of 9 lasted zero time
	c.Finish(10)
	if bw.Max() != 9 {
		t.Fatalf("Max = %v, want 9 (instantaneous peak)", bw.Max())
	}
}

func TestCounterBackwardsTimePanics(t *testing.T) {
	c := NewCounter(NewBandwidth())
	c.Set(1, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards time did not panic")
		}
	}()
	c.Set(2, 5)
}

func TestCounterValue(t *testing.T) {
	c := NewCounter(NewBandwidth())
	c.Set(4, 0)
	c.Add(-1, 1)
	if c.Value() != 3 {
		t.Fatalf("Value = %v, want 3", c.Value())
	}
}

func TestBandwidthAccessors(t *testing.T) {
	b := NewBandwidth()
	b.Record(2, 5)
	b.Record(3, 0)
	if b.Samples() != 2 {
		t.Fatalf("Samples = %d, want 2", b.Samples())
	}
	if b.totalWeight != 5 {
		t.Fatalf("totalWeight = %v, want 5", b.totalWeight)
	}
}

package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same-seed RNGs diverged at draw %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestExpMean(t *testing.T) {
	g := NewRNG(7)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += g.Exp(3.5)
	}
	mean := sum / n
	if math.Abs(mean-3.5) > 0.05 {
		t.Fatalf("exponential mean = %.4f, want 3.5 +/- 0.05", mean)
	}
}

func TestExpPanicsOnNonPositiveMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	NewRNG(1).Exp(0)
}

func TestPoissonMoments(t *testing.T) {
	tests := []struct {
		name string
		mean float64
	}{
		{name: "tiny", mean: 0.05},
		{name: "small", mean: 2},
		{name: "medium", mean: 12},
		{name: "large", mean: 250},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := NewRNG(99)
			const n = 50000
			var sum, sumSq float64
			for i := 0; i < n; i++ {
				v := float64(g.Poisson(tt.mean))
				sum += v
				sumSq += v * v
			}
			mean := sum / n
			variance := sumSq/n - mean*mean
			// Poisson mean and variance both equal the rate.
			tol := 5 * math.Sqrt(tt.mean/n) * math.Max(1, math.Sqrt(tt.mean))
			if math.Abs(mean-tt.mean) > math.Max(tol, 0.02) {
				t.Errorf("mean = %.4f, want %.4f", mean, tt.mean)
			}
			if math.Abs(variance-tt.mean) > math.Max(0.15*tt.mean, 0.05) {
				t.Errorf("variance = %.4f, want %.4f", variance, tt.mean)
			}
		})
	}
}

func TestPoissonZeroMean(t *testing.T) {
	g := NewRNG(1)
	if got := g.Poisson(0); got != 0 {
		t.Fatalf("Poisson(0) = %d, want 0", got)
	}
	if got := g.Poisson(-3); got != 0 {
		t.Fatalf("Poisson(-3) = %d, want 0", got)
	}
}

func TestPoissonNonNegativeProperty(t *testing.T) {
	g := NewRNG(5)
	f := func(mean float64) bool {
		m := math.Mod(math.Abs(mean), 100)
		return g.Poisson(m) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLoopOrdering(t *testing.T) {
	l := NewLoop()
	var order []int
	l.At(5, func(float64) { order = append(order, 3) })
	l.At(1, func(float64) { order = append(order, 1) })
	l.At(3, func(float64) { order = append(order, 2) })
	fired := l.Run(10)
	if fired != 3 {
		t.Fatalf("fired %d events, want 3", fired)
	}
	if !sort.IntsAreSorted(order) {
		t.Fatalf("events fired out of order: %v", order)
	}
	if l.now != 10 {
		t.Fatalf("clock = %v, want 10", l.now)
	}
}

func TestLoopFIFOTieBreak(t *testing.T) {
	l := NewLoop()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		l.At(2, func(float64) { order = append(order, i) })
	}
	l.Run(2)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of FIFO order: %v", order)
		}
	}
}

func TestLoopHorizonStopsEvents(t *testing.T) {
	l := NewLoop()
	fired := false
	l.At(100, func(float64) { fired = true })
	l.Run(50)
	if fired {
		t.Fatal("event after horizon fired")
	}
	if len(l.events) != 1 {
		t.Fatalf("pending = %d, want 1", len(l.events))
	}
	l.Run(150)
	if !fired {
		t.Fatal("event did not fire after extending horizon")
	}
}

func TestLoopEventsScheduleEvents(t *testing.T) {
	l := NewLoop()
	count := 0
	var tick Event
	tick = func(now float64) {
		count++
		if count < 5 {
			l.At(now+1, tick)
		}
	}
	l.At(0, tick)
	l.Run(100)
	if count != 5 {
		t.Fatalf("chained events fired %d times, want 5", count)
	}
	if l.now != 100 {
		t.Fatalf("clock = %v, want 100", l.now)
	}
}

func TestLoopPastSchedulingPanics(t *testing.T) {
	l := NewLoop()
	l.At(10, func(float64) {})
	l.Run(20)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	l.At(5, func(float64) {})
}

func TestPoissonProcessInterarrivals(t *testing.T) {
	g := NewRNG(11)
	p := NewPoissonProcess(g, 0.5) // one arrival every 2 s on average
	const n = 100000
	prev := 0.0
	sum := 0.0
	for i := 0; i < n; i++ {
		next := p.Next()
		if next <= prev {
			t.Fatalf("arrival %d not strictly increasing: %v then %v", i, prev, next)
		}
		sum += next - prev
		prev = next
	}
	mean := sum / n
	if math.Abs(mean-2.0) > 0.05 {
		t.Fatalf("mean interarrival = %.4f, want 2.0 +/- 0.05", mean)
	}
}

func TestPoissonProcessRejectsBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rate 0 did not panic")
		}
	}()
	NewPoissonProcess(NewRNG(1), 0)
}

func TestRNGConvenienceMethods(t *testing.T) {
	g := NewRNG(2)
	if v := g.Intn(10); v < 0 || v >= 10 {
		t.Fatalf("Intn out of range: %d", v)
	}
	sum := 0.0
	for i := 0; i < 10000; i++ {
		sum += g.NormFloat64()
	}
	if math.Abs(sum/10000) > 0.05 {
		t.Fatalf("NormFloat64 mean = %v, want about 0", sum/10000)
	}
}

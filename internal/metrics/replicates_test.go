package metrics

import (
	"math"
	"testing"

	"vodcast/internal/sim"
)

func TestReplicatesEmpty(t *testing.T) {
	r := &Replicates{}
	if r.Mean() != 0 || r.stdDev() != 0 || r.HalfWidth95() != 0 || r.Count() != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
}

func TestReplicatesSingleValue(t *testing.T) {
	r := &Replicates{}
	r.Add(5)
	if r.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", r.Mean())
	}
	if r.HalfWidth95() != 0 {
		t.Fatal("one replicate cannot have a half-width")
	}
}

func TestReplicatesKnownValues(t *testing.T) {
	r := &Replicates{}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(v)
	}
	if r.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", r.Mean())
	}
	// Sample stddev with n-1 = 7: sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(r.stdDev()-want) > 1e-12 {
		t.Fatalf("stdDev = %v, want %v", r.stdDev(), want)
	}
	// Half-width = t_7 * s / sqrt(8) with t_7 = 2.365.
	hw := 2.365 * want / math.Sqrt(8)
	if math.Abs(r.HalfWidth95()-hw) > 1e-9 {
		t.Fatalf("HalfWidth95 = %v, want %v", r.HalfWidth95(), hw)
	}
}

func TestTQuantileMonotone(t *testing.T) {
	prev := math.Inf(1)
	for df := 1; df <= 40; df++ {
		q := tQuantile95(df)
		if q > prev {
			t.Fatalf("t quantile increased at df %d: %v after %v", df, q, prev)
		}
		prev = q
	}
	if tQuantile95(1000) != 1.96 {
		t.Fatal("large-df quantile should be the normal 1.96")
	}
	if !math.IsInf(tQuantile95(0), 1) {
		t.Fatal("df 0 should be infinite")
	}
}

// TestConfidenceIntervalCoverage draws replicates of a known distribution
// and checks that the 95% interval covers the true mean about 95% of the
// time — the defining property of the construction.
func TestConfidenceIntervalCoverage(t *testing.T) {
	rng := sim.NewRNG(77)
	const (
		trials     = 2000
		replicates = 10
		trueMean   = 3.0
	)
	covered := 0
	for trial := 0; trial < trials; trial++ {
		r := &Replicates{}
		for i := 0; i < replicates; i++ {
			r.Add(rng.Exp(trueMean))
		}
		if math.Abs(r.Mean()-trueMean) <= r.HalfWidth95() {
			covered++
		}
	}
	rate := float64(covered) / trials
	// Exponential replicates are skewed, so allow a generous band around
	// the nominal 95%.
	if rate < 0.90 || rate > 0.99 {
		t.Fatalf("coverage = %.3f, want about 0.95", rate)
	}
}

func TestHalfWidthShrinksWithReplicates(t *testing.T) {
	rng := sim.NewRNG(78)
	few := &Replicates{}
	many := &Replicates{}
	for i := 0; i < 5; i++ {
		few.Add(rng.Float64())
	}
	for i := 0; i < 50; i++ {
		many.Add(rng.Float64())
	}
	if many.HalfWidth95() >= few.HalfWidth95() {
		t.Fatalf("half-width did not shrink: %v with 5, %v with 50",
			few.HalfWidth95(), many.HalfWidth95())
	}
}

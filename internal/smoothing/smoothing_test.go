package smoothing

import (
	"math"
	"testing"
	"testing/quick"

	"vodcast/internal/trace"
)

func matrix(t *testing.T) *trace.Trace {
	t.Helper()
	tr, err := trace.SyntheticMatrix(42)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// cbr returns a constant-bit-rate trace of the given duration.
func cbr(t *testing.T, seconds int, rate float64) *trace.Trace {
	t.Helper()
	rates := make([]float64, seconds)
	for i := range rates {
		rates[i] = rate
	}
	tr, err := trace.New(rates)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestPeakSegmentRateCBR(t *testing.T) {
	tr := cbr(t, 600, 100)
	r, err := PeakSegmentRate(tr, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-100) > 1e-9 {
		t.Fatalf("CBR peak segment rate = %v, want 100", r)
	}
}

func TestPeakSegmentRateBetweenMeanAndPeak(t *testing.T) {
	tr := matrix(t)
	r, err := PeakSegmentRate(tr, 137)
	if err != nil {
		t.Fatal(err)
	}
	// The paper found 789 KB/s for its trace: strictly between the 636 KB/s
	// mean and the 951 KB/s one-second peak. Our synthetic trace must show
	// the same ordering.
	if r <= tr.Mean() || r >= tr.Peak() {
		t.Fatalf("peak segment rate %v not in (mean %v, peak %v)", r, tr.Mean(), tr.Peak())
	}
}

func TestPeakSegmentRateError(t *testing.T) {
	if _, err := PeakSegmentRate(matrix(t), 0); err == nil {
		t.Fatal("want error")
	}
}

func TestMinWorkAheadRateCBR(t *testing.T) {
	tr := cbr(t, 600, 100)
	r, err := MinWorkAheadRate(tr, 60)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-100) > 1e-9 {
		t.Fatalf("CBR work-ahead rate = %v, want 100", r)
	}
}

func TestMinWorkAheadRateOrdering(t *testing.T) {
	tr := matrix(t)
	d := tr.Duration() / 137
	workAhead, err := MinWorkAheadRate(tr, d)
	if err != nil {
		t.Fatal(err)
	}
	segPeak, err := PeakSegmentRate(tr, 137)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Section 4: smoothing reduced the rate from 789 to 671 KB/s,
	// i.e. mean <= work-ahead rate <= per-segment peak rate.
	if workAhead < tr.Mean()-1e-6 {
		t.Fatalf("work-ahead rate %v below mean %v", workAhead, tr.Mean())
	}
	if workAhead > segPeak+1e-6 {
		t.Fatalf("work-ahead rate %v above per-segment peak %v", workAhead, segPeak)
	}
}

func TestMinWorkAheadRateDominatesPrefixes(t *testing.T) {
	tr := matrix(t)
	const d = 60.0
	r, err := MinWorkAheadRate(tr, d)
	if err != nil {
		t.Fatal(err)
	}
	f := func(kf float64) bool {
		n := int(math.Ceil(tr.Duration() / d))
		k := 1 + int(math.Mod(math.Abs(kf), float64(n)))
		t := math.Min(float64(k)*d, tr.Duration())
		return tr.CumulativeAt(t) <= r*float64(k)*d+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMinWorkAheadRateBadSlot(t *testing.T) {
	if _, err := MinWorkAheadRate(matrix(t), 0); err == nil {
		t.Fatal("want error")
	}
}

func TestPackedSegmentsShrinks(t *testing.T) {
	tr := matrix(t)
	d := tr.Duration() / 137
	r, err := MinWorkAheadRate(tr, d)
	if err != nil {
		t.Fatal(err)
	}
	n, err := PackedSegments(tr, d, r)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 137 original segments packed into 129. The exact count is
	// trace-specific; full-rate packing must not need more than 137 and
	// cannot beat the information-theoretic floor total/(r*d).
	if n > 137 {
		t.Fatalf("packed segments = %d, want <= 137", n)
	}
	if float64(n) < tr.TotalBytes()/(r*d)-1 {
		t.Fatalf("packed segments = %d below floor", n)
	}
}

func TestPackedSegmentsErrors(t *testing.T) {
	tr := matrix(t)
	if _, err := PackedSegments(tr, 0, 1); err == nil {
		t.Fatal("want error for zero slot")
	}
	if _, err := PackedSegments(tr, 60, 0); err == nil {
		t.Fatal("want error for zero rate")
	}
}

func TestPeriodsCBRAreIdentity(t *testing.T) {
	tr := cbr(t, 600, 100)
	const d = 60.0
	periods, err := Periods(tr, d, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j <= 10; j++ {
		if periods[j] != j {
			t.Fatalf("CBR periods[%d] = %d, want %d", j, periods[j], j)
		}
	}
}

func TestPeriodsProperties(t *testing.T) {
	tr := matrix(t)
	d := tr.Duration() / 137
	r, err := MinWorkAheadRate(tr, d)
	if err != nil {
		t.Fatal(err)
	}
	n, err := PackedSegments(tr, d, r)
	if err != nil {
		t.Fatal(err)
	}
	periods, err := Periods(tr, d, r, n)
	if err != nil {
		t.Fatal(err)
	}
	if periods[1] != 1 {
		t.Fatalf("T[1] = %d, want 1", periods[1])
	}
	delayed := 0
	for j := 1; j <= n; j++ {
		if periods[j] < j {
			t.Fatalf("T[%d] = %d < %d: work-ahead periods can never shrink below the CBR deadline", j, periods[j], j)
		}
		if j > 1 && periods[j] < periods[j-1] {
			t.Fatalf("periods not monotone at %d: %d then %d", j, periods[j-1], periods[j])
		}
		if periods[j] > j {
			delayed++
		}
	}
	// Paper Section 4: "nearly all other segments could be delayed by one
	// to eight slots". At least half of the units must gain slack.
	if delayed < n/2 {
		t.Fatalf("only %d/%d units gained delay slack; expected most of them", delayed, n)
	}
}

func TestPeriodsErrors(t *testing.T) {
	tr := matrix(t)
	if _, err := Periods(tr, 0, 1, 5); err == nil {
		t.Fatal("want error for zero slot")
	}
	if _, err := Periods(tr, 60, 0, 5); err == nil {
		t.Fatal("want error for zero rate")
	}
	if _, err := Periods(tr, 60, 1, 0); err == nil {
		t.Fatal("want error for zero units")
	}
}

func TestVerifyFeasibleAcceptsDerivedPlan(t *testing.T) {
	tr := matrix(t)
	d := tr.Duration() / 137
	r, err := MinWorkAheadRate(tr, d)
	if err != nil {
		t.Fatal(err)
	}
	n, err := PackedSegments(tr, d, r)
	if err != nil {
		t.Fatal(err)
	}
	periods, err := Periods(tr, d, r, n)
	if err != nil {
		t.Fatal(err)
	}
	maxBuf, err := VerifyFeasible(tr, d, r, periods)
	if err != nil {
		t.Fatal(err)
	}
	if maxBuf <= 0 {
		t.Fatal("work-ahead plan should need a positive client buffer")
	}
	if maxBuf > tr.TotalBytes() {
		t.Fatalf("max buffer %v exceeds total video size", maxBuf)
	}
}

func TestVerifyFeasibleCatchesLatePlan(t *testing.T) {
	tr := matrix(t)
	d := tr.Duration() / 137
	r, err := MinWorkAheadRate(tr, d)
	if err != nil {
		t.Fatal(err)
	}
	n, err := PackedSegments(tr, d, r)
	if err != nil {
		t.Fatal(err)
	}
	periods, err := Periods(tr, d, r, n)
	if err != nil {
		t.Fatal(err)
	}
	// Delivering the first unit one slot too late must underflow.
	periods[1] = 3
	periods[2] = 3
	if _, err := VerifyFeasible(tr, d, r, periods); err == nil {
		t.Fatal("late delivery plan accepted")
	}
}

func TestVerifyFeasibleRejectsEmpty(t *testing.T) {
	tr := matrix(t)
	if _, err := VerifyFeasible(tr, 60, 1, []int{0}); err == nil {
		t.Fatal("want error for empty period vector")
	}
}

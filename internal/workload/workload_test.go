package workload

import (
	"math"
	"testing"
	"testing/quick"

	"vodcast/internal/sim"
)

func TestPerHour(t *testing.T) {
	if got := perHour(3600); got != 1 {
		t.Fatalf("PerHour(3600) = %v, want 1", got)
	}
	if got := perHour(10); math.Abs(got-10.0/3600) > 1e-15 {
		t.Fatalf("PerHour(10) = %v", got)
	}
}

func TestConstantRate(t *testing.T) {
	r := Constant(60)
	for _, at := range []float64{0, 100, 1e6} {
		if got := r(at); math.Abs(got-60.0/3600) > 1e-15 {
			t.Fatalf("Constant(60)(%v) = %v", at, got)
		}
	}
}

func TestDayNightPeaksAndTroughs(t *testing.T) {
	r := DayNight(100, 10, 18) // peaks at 6 pm
	peak := r(18 * 3600)
	trough := r(6 * 3600)
	if math.Abs(peak-perHour(100)) > 1e-12 {
		t.Fatalf("peak rate = %v, want %v", peak, perHour(100))
	}
	if math.Abs(trough-perHour(10)) > 1e-12 {
		t.Fatalf("trough rate = %v, want %v", trough, perHour(10))
	}
	// 24-hour periodicity.
	if math.Abs(r(18*3600)-r((18+24)*3600)) > 1e-12 {
		t.Fatal("DayNight is not 24-hour periodic")
	}
}

func TestDayNightBoundedProperty(t *testing.T) {
	r := DayNight(200, 5, 12)
	f := func(at float64) bool {
		v := r(math.Mod(math.Abs(at), 1e7))
		return v >= perHour(5)-1e-12 && v <= perHour(200)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSlottedArrivalsMean(t *testing.T) {
	rng := sim.NewRNG(3)
	const d = 72.7
	src := NewSlottedArrivals(rng, Constant(50), d)
	const slotCount = 50000
	total := 0
	for i := 0; i < slotCount; i++ {
		total += src.Next()
	}
	mean := float64(total) / slotCount
	want := 50.0 / 3600 * d // about 1.01 per slot
	if math.Abs(mean-want) > 0.02 {
		t.Fatalf("mean arrivals per slot = %.4f, want %.4f", mean, want)
	}
	if src.Slot() != slotCount {
		t.Fatalf("Slot = %d, want %d", src.Slot(), slotCount)
	}
}

func TestSlottedArrivalsTracksRate(t *testing.T) {
	rng := sim.NewRNG(4)
	src := NewSlottedArrivals(rng, DayNight(400, 0, 0), 3600)
	// Slot 0 covers the peak hour (midpoint 0.5 h), slot 12 the trough.
	var peakTotal, troughTotal int
	for day := 0; day < 300; day++ {
		for h := 0; h < 24; h++ {
			n := src.Next()
			switch h {
			case 0:
				peakTotal += n
			case 12:
				troughTotal += n
			}
		}
	}
	if peakTotal <= troughTotal*10 {
		t.Fatalf("peak arrivals %d not dominating trough arrivals %d", peakTotal, troughTotal)
	}
}

func TestSlottedArrivalsBadSlotPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero slot duration did not panic")
		}
	}()
	NewSlottedArrivals(sim.NewRNG(1), Constant(1), 0)
}

func TestZipfWeightsDecreaseAndSum(t *testing.T) {
	z, err := NewZipf(20, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i := 0; i < z.N(); i++ {
		sum += z.weight(i)
		if i > 0 && z.weight(i) > z.weight(i-1) {
			t.Fatalf("weights not decreasing at %d", i)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("weights sum to %v, want 1", sum)
	}
}

func TestZipfZeroSkewIsUniform(t *testing.T) {
	z, err := NewZipf(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if math.Abs(z.weight(i)-0.1) > 1e-12 {
			t.Fatalf("weight(%d) = %v, want 0.1", i, z.weight(i))
		}
	}
}

func TestZipfErrors(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Fatal("empty catalogue should error")
	}
	if _, err := NewZipf(5, -1); err == nil {
		t.Fatal("negative skew should error")
	}
}

func TestZipfSampleMatchesWeights(t *testing.T) {
	z, err := NewZipf(5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(9)
	counts := make([]int, 5)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Sample(rng)]++
	}
	for i := 0; i < 5; i++ {
		got := float64(counts[i]) / n
		if math.Abs(got-z.weight(i)) > 0.01 {
			t.Errorf("empirical weight of video %d = %.4f, want %.4f", i, got, z.weight(i))
		}
	}
}

func TestZipfSampleInRangeProperty(t *testing.T) {
	z, err := NewZipf(7, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(10)
	f := func() bool {
		v := z.Sample(rng)
		return v >= 0 && v < 7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

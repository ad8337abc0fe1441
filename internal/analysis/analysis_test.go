package analysis

import (
	"math"
	"testing"

	"vodcast/internal/broadcast"
	"vodcast/internal/core"
	"vodcast/internal/dynamic"
	"vodcast/internal/reactive"
	"vodcast/internal/sim"
	"vodcast/internal/video"
	"vodcast/internal/workload"
)

const (
	segments    = 99
	videoLen    = 7200.0
	slotSeconds = videoLen / segments
)

// simulateSlotted measures a slotted protocol's mean load under Poisson
// arrivals.
func simulateSlotted(t *testing.T, admit func(), advance func() int, ratePerHour float64, hours int, seed int64) float64 {
	t.Helper()
	rng := sim.NewRNG(seed)
	arrivals := workload.NewSlottedArrivals(rng, workload.Constant(ratePerHour), slotSeconds)
	horizon := int(float64(hours) * 3600 / slotSeconds)
	const warmup = 200
	total := 0
	for slot := 0; slot < horizon; slot++ {
		for a := 0; a < arrivals.Next(); a++ {
			admit()
		}
		load := advance()
		if slot >= warmup {
			total += load
		}
	}
	return float64(total) / float64(horizon-warmup)
}

func TestErrors(t *testing.T) {
	if _, err := OnDemandMean(nil, 1, 1); err == nil {
		t.Error("nil mapping accepted")
	}
	m, err := broadcast.FastBroadcast(7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OnDemandMean(m, 0, 1); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := DHBMean(nil, 1, 1); err == nil {
		t.Error("empty periods accepted")
	}
	if _, err := DHBMean([]int{0, 1}, 1, 0); err == nil {
		t.Error("zero slot accepted")
	}
	if _, err := DHBSaturated([]int{0}); err == nil {
		t.Error("empty periods accepted")
	}
	if _, err := DHBSaturated([]int{0, 0}); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := PatchingMean(-1, 10); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := PatchingMean(1, 0); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := HarmonicBandwidth(0); err == nil {
		t.Error("zero segments accepted")
	}
}

func TestHarmonicBandwidthValues(t *testing.T) {
	h1, err := HarmonicBandwidth(1)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != 1 {
		t.Fatalf("H(1) = %v, want 1", h1)
	}
	h99, err := HarmonicBandwidth(99)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h99-5.17) > 0.02 {
		t.Fatalf("H(99) = %v, want about 5.17", h99)
	}
}

func TestDHBSaturatedIsHarmonicForCBR(t *testing.T) {
	sat, err := DHBSaturated(video.DefaultPeriods(99))
	if err != nil {
		t.Fatal(err)
	}
	h, err := HarmonicBandwidth(99)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sat-h) > 1e-12 {
		t.Fatalf("saturated DHB %v != H(99) %v", sat, h)
	}
}

// TestDHBModelMatchesNaiveSimulation is the exact cross-validation: with
// naive latest-slot placement, successive instances of segment s are a true
// renewal process (coverage of T[s] slots, then an exponential wait), so
// the model must match the simulator tightly.
func TestDHBModelMatchesNaiveSimulation(t *testing.T) {
	periods := video.DefaultPeriods(segments)
	for _, rate := range []float64{1, 10, 100, 1000} {
		model, err := DHBMean(periods, rate, slotSeconds)
		if err != nil {
			t.Fatal(err)
		}
		s, err := core.New(core.Config{Segments: segments, Policy: core.PolicyNaive})
		if err != nil {
			t.Fatal(err)
		}
		hours := 3000 // low rates need long horizons for a stable mean
		if rate >= 100 {
			hours = 150
		}
		measured := simulateSlotted(t, func() { s.AdmitRequest(core.AdmitOptions{}) },
			func() int { return s.AdvanceSlot().Load }, rate, hours, 5)
		if relErr(measured, model) > 0.04 {
			t.Errorf("rate %v: naive DHB simulated %.3f vs model %.3f (%.1f%% off)",
				rate, measured, model, 100*relErr(measured, model))
		}
	}
}

// TestDHBHeuristicPremiumOverModel bounds the price of the peak-flattening
// heuristic: early placements shorten sharing windows, so the heuristic
// sits a little above the renewal model but never more than 15%, and never
// below it.
func TestDHBHeuristicPremiumOverModel(t *testing.T) {
	periods := video.DefaultPeriods(segments)
	for _, rate := range []float64{1, 10, 100, 1000} {
		model, err := DHBMean(periods, rate, slotSeconds)
		if err != nil {
			t.Fatal(err)
		}
		s, err := core.New(core.Config{Segments: segments})
		if err != nil {
			t.Fatal(err)
		}
		hours := 1500 // long horizons: low rates are noisy
		if rate >= 100 {
			hours = 150
		}
		measured := simulateSlotted(t, func() { s.AdmitRequest(core.AdmitOptions{}) },
			func() int { return s.AdvanceSlot().Load }, rate, hours, 5)
		if measured < model*0.93 || measured > model*1.18 {
			t.Errorf("rate %v: heuristic DHB %.3f outside [%.3f, %.3f] around the model",
				rate, measured, model*0.93, model*1.18)
		}
	}
}

// TestUDModelMatchesSimulation validates the on-demand occurrence model
// against the UD simulator.
func TestUDModelMatchesSimulation(t *testing.T) {
	m, err := broadcast.FastBroadcast(segments)
	if err != nil {
		t.Fatal(err)
	}
	for _, rate := range []float64{1, 10, 100, 1000} {
		model, err := OnDemandMean(m, rate, slotSeconds)
		if err != nil {
			t.Fatal(err)
		}
		ud, err := dynamic.UD(segments)
		if err != nil {
			t.Fatal(err)
		}
		hours := 400
		if rate >= 100 {
			hours = 100
		}
		measured := simulateSlotted(t, func() { ud.Admit() },
			func() int { _, l := ud.AdvanceSlot(); return l }, rate, hours, 6)
		if relErr(measured, model) > 0.06 {
			t.Errorf("rate %v: UD simulated %.3f vs model %.3f (%.1f%% off)",
				rate, measured, model, 100*relErr(measured, model))
		}
	}
}

// TestDSBModelMatchesSimulation repeats the validation on the skyscraper
// mapping.
func TestDSBModelMatchesSimulation(t *testing.T) {
	m, err := broadcast.Skyscraper(segments)
	if err != nil {
		t.Fatal(err)
	}
	for _, rate := range []float64{10, 200} {
		model, err := OnDemandMean(m, rate, slotSeconds)
		if err != nil {
			t.Fatal(err)
		}
		dsb, err := dynamic.DSB(segments)
		if err != nil {
			t.Fatal(err)
		}
		measured := simulateSlotted(t, func() { dsb.Admit() },
			func() int { _, l := dsb.AdvanceSlot(); return l }, rate, 150, 7)
		if relErr(measured, model) > 0.06 {
			t.Errorf("rate %v: DSB simulated %.3f vs model %.3f", rate, measured, model)
		}
	}
}

// TestPatchingModelMatchesSimulation validates sqrt(1 + 2 lambda D) - 1
// against the event-driven tapping simulator (which uses a near-optimal
// adaptive threshold, so it sits slightly above the optimum).
func TestPatchingModelMatchesSimulation(t *testing.T) {
	for _, rate := range []float64{1, 5, 20, 100, 500} {
		model, err := PatchingMean(rate, videoLen)
		if err != nil {
			t.Fatal(err)
		}
		res, err := reactive.Tapping(reactive.Config{
			RatePerHour:    rate,
			VideoSeconds:   videoLen,
			HorizonSeconds: 400 * 3600,
			WarmupSeconds:  4 * 3600,
			Seed:           8,
		})
		if err != nil {
			t.Fatal(err)
		}
		if relErr(res.AvgBandwidth, model) > 0.10 {
			t.Errorf("rate %v: tapping simulated %.2f vs model %.2f", rate, res.AvgBandwidth, model)
		}
	}
}

// TestHMSMWithinConstantOfBound checks the simulator sits between 1x and
// 1.3x the EVZ bound across rates, the published constant-factor claim.
func TestHMSMWithinConstantOfBound(t *testing.T) {
	for _, rate := range []float64{5, 50, 500} {
		bound := reactive.MergingLowerBound(rate, videoLen)
		res, err := reactive.HMSM(reactive.Config{
			RatePerHour:    rate,
			VideoSeconds:   videoLen,
			HorizonSeconds: 300 * 3600,
			WarmupSeconds:  4 * 3600,
			Seed:           9,
		})
		if err != nil {
			t.Fatal(err)
		}
		ratio := res.AvgBandwidth / bound
		if ratio < 1 || ratio > 1.3 {
			t.Errorf("rate %v: HMSM/bound = %.3f, want within [1, 1.3]", rate, ratio)
		}
	}
}

func relErr(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(b, 1e-12)
}

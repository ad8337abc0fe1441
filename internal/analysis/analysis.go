// Package analysis provides closed-form performance models for the
// protocols in this repository and cross-validates the simulators against
// them. Each model is derived from first principles:
//
//   - On-demand static mappings (UD, dynamic pagoda, DSB): segment s is
//     rebroadcast every p_s slots and each occurrence is transmitted iff at
//     least one request arrived in the p_s preceding slots, so the expected
//     per-slot load is sum over s of (1/p_s)(1 - e^(-lambda p_s d)).
//   - DHB: successive instances of segment s form a renewal process — an
//     instance placed for a request in slot i covers slots up to i+T[s]-1
//     and the next is scheduled by the first nonempty slot after coverage
//     expires, a geometric wait of mean 1/(e^(lambda d) - 1) slots — giving
//     a mean load of sum over s of 1/(T[s] + 1/(e^(lambda d) - 1)).
//   - Threshold patching: a restart cycle consists of a window W of taps
//     (mean length W/2 each) followed by an exponential wait for the arrival
//     that triggers the next complete stream, costing
//     (D + lambda W^2/2) / (W + 1/lambda) streams; minimizing over W gives
//     the closed form sqrt(1 + 2 lambda D) - 1, the exact renewal
//     counterpart of the classical sqrt(2 lambda D).
//
// All rates are requests per hour and all durations seconds, matching the
// rest of the repository.
package analysis

import (
	"fmt"
	"math"

	"vodcast/internal/broadcast"
)

// OnDemandMean returns the expected average load (in streams) of an
// on-demand protocol over the given static mapping at the given Poisson
// request rate.
func OnDemandMean(m *broadcast.Mapping, ratePerHour, slotSeconds float64) (float64, error) {
	if m == nil {
		return 0, fmt.Errorf("analysis: nil mapping")
	}
	if err := checkRates(ratePerHour, slotSeconds); err != nil {
		return 0, err
	}
	lambda := ratePerHour / 3600
	mean := 0.0
	for s := 1; s <= m.N(); s++ {
		p := float64(m.Period(s))
		mean += (1 - math.Exp(-lambda*p*slotSeconds)) / p
	}
	return mean, nil
}

// DHBMean returns the renewal-model average load of a DHB scheduler with
// the given 1-based period vector (periods[0] unused).
func DHBMean(periods []int, ratePerHour, slotSeconds float64) (float64, error) {
	if len(periods) < 2 {
		return 0, fmt.Errorf("analysis: empty period vector")
	}
	if err := checkRates(ratePerHour, slotSeconds); err != nil {
		return 0, err
	}
	mu := ratePerHour / 3600 * slotSeconds // mean arrivals per slot
	// Expected number of empty slots before the first nonempty one.
	wait := 1 / (math.Expm1(mu))
	mean := 0.0
	for s := 1; s < len(periods); s++ {
		mean += 1 / (float64(periods[s]) + wait)
	}
	return mean, nil
}

// DHBSaturated returns the saturation bandwidth of DHB: every segment at
// its minimum frequency, sum of 1/T[s] — the harmonic number H(n) for CBR.
func DHBSaturated(periods []int) (float64, error) {
	if len(periods) < 2 {
		return 0, fmt.Errorf("analysis: empty period vector")
	}
	mean := 0.0
	for s := 1; s < len(periods); s++ {
		if periods[s] < 1 {
			return 0, fmt.Errorf("analysis: period[%d] = %d", s, periods[s])
		}
		mean += 1 / float64(periods[s])
	}
	return mean, nil
}

// PatchingMean returns the bandwidth of threshold patching with the optimal
// restart window: sqrt(1 + 2 lambda D) - 1. (Minimizing the renewal cost
// (D + lambda W^2/2)/(W + 1/lambda) gives W* = (sqrt(1+2 lambda D)-1)/lambda
// and the cost collapses to that same square root minus one.)
func PatchingMean(ratePerHour, videoSeconds float64) (float64, error) {
	if err := checkRates(ratePerHour, videoSeconds); err != nil {
		return 0, err
	}
	lambda := ratePerHour / 3600
	return math.Sqrt(1+2*lambda*videoSeconds) - 1, nil
}

// HarmonicBandwidth returns the server bandwidth of Juhn and Tseng's
// harmonic broadcasting family for n segments: segment i on a dedicated
// sub-stream of rate b/i, for a total of H(n) = sum 1/i times the
// consumption rate. DHB's saturation load approaches the same harmonic
// number — the sense in which the paper calls its on-the-fly scheduling as
// efficient as the best fixed mappings.
func HarmonicBandwidth(n int) (float64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("analysis: segment count %d must be positive", n)
	}
	h := 0.0
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	return h, nil
}

func checkRates(ratePerHour, seconds float64) error {
	if ratePerHour <= 0 {
		return fmt.Errorf("analysis: rate %v must be positive", ratePerHour)
	}
	if seconds <= 0 {
		return fmt.Errorf("analysis: duration %v must be positive", seconds)
	}
	return nil
}

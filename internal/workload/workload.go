// Package workload generates the customer request patterns of the paper's
// evaluation: homogeneous Poisson arrivals at a configurable hourly rate,
// time-of-day varying rates (the introduction's child-oriented versus
// late-night videos), and Zipf-distributed popularity across a multi-video
// catalogue.
package workload

import (
	"fmt"
	"math"

	"vodcast/internal/sim"
)

// perHour converts an hourly request rate (the unit used throughout the
// paper) to the per-second rate used by the simulators.
func perHour(requestsPerHour float64) float64 {
	return requestsPerHour / 3600
}

// RateFunc reports an instantaneous arrival rate in requests per second at
// simulated time t (seconds).
type RateFunc func(t float64) float64

// Constant returns a rate function with a fixed hourly rate.
func Constant(requestsPerHour float64) RateFunc {
	r := perHour(requestsPerHour)
	return func(float64) float64 { return r }
}

// DayNight returns a 24-hour-periodic rate that peaks at peakPerHour around
// peakHour (0-24) and bottoms out at offPeakPerHour twelve hours later,
// varying sinusoidally. It models the introduction's observation that demand
// for any given video swings with the time of day.
func DayNight(peakPerHour, offPeakPerHour, peakHour float64) RateFunc {
	mid := (peakPerHour + offPeakPerHour) / 2
	amp := (peakPerHour - offPeakPerHour) / 2
	return func(t float64) float64 {
		hour := math.Mod(t/3600, 24)
		phase := 2 * math.Pi * (hour - peakHour) / 24
		return perHour(mid + amp*math.Cos(phase))
	}
}

// SlottedArrivals draws the number of requests arriving in each consecutive
// slot. For a non-constant rate the expected count integrates the rate across
// the slot with a midpoint rule, which is exact for the constant case and
// accurate for rates that vary on hour scales while slots last about a
// minute.
type SlottedArrivals struct {
	rng  *sim.RNG
	rate RateFunc
	d    float64
	slot int
}

// NewSlottedArrivals returns a slotted arrival source with the given slot
// duration in seconds. It panics if d <= 0.
func NewSlottedArrivals(rng *sim.RNG, rate RateFunc, d float64) *SlottedArrivals {
	if d <= 0 {
		panic("workload: slot duration must be positive")
	}
	return &SlottedArrivals{rng: rng, rate: rate, d: d}
}

// Next returns the number of requests arriving during the next slot.
func (s *SlottedArrivals) Next() int {
	mid := (float64(s.slot) + 0.5) * s.d
	s.slot++
	mean := s.rate(mid) * s.d
	return s.rng.Poisson(mean)
}

// Slot reports the index of the next slot Next will draw.
func (s *SlottedArrivals) Slot() int { return s.slot }

// Zipf models video popularity across a catalogue: the i-th most popular of
// n videos is requested proportionally to 1/i^skew.
type Zipf struct {
	cumulative []float64
	weights    []float64
}

// NewZipf builds a catalogue of n videos with the given skew (1.0 is the
// classic Zipf law typically fitted to video rental popularity).
func NewZipf(n int, skew float64) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: catalogue size %d must be positive", n)
	}
	if skew < 0 {
		return nil, fmt.Errorf("workload: skew %v must be non-negative", skew)
	}
	weights := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		weights[i] = 1 / math.Pow(float64(i+1), skew)
		sum += weights[i]
	}
	cum := make([]float64, n)
	acc := 0.0
	for i := 0; i < n; i++ {
		weights[i] /= sum
		acc += weights[i]
		cum[i] = acc
	}
	cum[n-1] = 1 // guard against rounding
	return &Zipf{cumulative: cum, weights: weights}, nil
}

// weight reports the probability that a request targets video i (0-based
// popularity rank).
func (z *Zipf) weight(i int) float64 { return z.weights[i] }

// N reports the catalogue size.
func (z *Zipf) N() int { return len(z.weights) }

// Sample draws a video index according to the popularity law.
func (z *Zipf) Sample(rng *sim.RNG) int {
	u := rng.Float64()
	// Binary search the cumulative distribution.
	lo, hi := 0, len(z.cumulative)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cumulative[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

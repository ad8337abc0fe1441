// Package sim provides the discrete-event simulation substrate used by every
// protocol simulator in this repository: a deterministic random number
// generator, Poisson arrival processes, and a time-ordered event loop.
//
// All randomness in the repository flows through RNG with explicit seeds so
// that every experiment and every test is exactly reproducible.
package sim

import (
	"math"
	"math/rand"
)

// RNG is a deterministic pseudo-random source. It wraps math/rand with an
// explicit seed and a small convenience API so that callers never touch the
// global (shared, racy) rand functions.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a generator seeded with seed. Two generators built with the
// same seed produce identical streams.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform integer in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Exp returns an exponentially distributed value with the given mean.
// It panics if mean <= 0.
func (g *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("sim: exponential mean must be positive")
	}
	return g.r.ExpFloat64() * mean
}

// NormFloat64 returns a standard normal value.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Poisson returns a Poisson-distributed count with the given mean. It uses
// Knuth inversion for small means and the additivity of the Poisson
// distribution to split large means into tractable halves, so it stays exact
// (not a normal approximation) at every mean this repository uses.
func (g *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		limit := math.Exp(-mean)
		p := 1.0
		n := -1
		for p > limit {
			p *= g.Float64()
			n++
		}
		return n
	}
	half := mean / 2
	return g.Poisson(half) + g.Poisson(mean-half)
}

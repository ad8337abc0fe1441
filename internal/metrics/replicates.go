package metrics

import "math"

// Replicates accumulates independent simulation replicates of one quantity
// and reports the mean with a 95% confidence half-width from the Student
// t-distribution, the standard way to put error bars on a discrete-event
// simulation result.
type Replicates struct {
	values []float64
}

// Add records one replicate's result.
func (r *Replicates) Add(v float64) { r.values = append(r.values, v) }

// Count reports the number of replicates recorded.
func (r *Replicates) Count() int { return len(r.values) }

// Mean reports the sample mean, or 0 with no replicates.
func (r *Replicates) Mean() float64 {
	if len(r.values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range r.values {
		sum += v
	}
	return sum / float64(len(r.values))
}

// stdDev reports the sample standard deviation (n-1 denominator), or 0 with
// fewer than two replicates.
func (r *Replicates) stdDev() float64 {
	n := len(r.values)
	if n < 2 {
		return 0
	}
	mean := r.Mean()
	sum := 0.0
	for _, v := range r.values {
		d := v - mean
		sum += d * d
	}
	return math.Sqrt(sum / float64(n-1))
}

// HalfWidth95 reports the 95% confidence half-width t_{n-1} * s / sqrt(n),
// or 0 with fewer than two replicates.
func (r *Replicates) HalfWidth95() float64 {
	n := len(r.values)
	if n < 2 {
		return 0
	}
	return tQuantile95(n-1) * r.stdDev() / math.Sqrt(float64(n))
}

// tQuantile95 returns the two-sided 95% quantile of the Student
// t-distribution with the given degrees of freedom.
func tQuantile95(df int) float64 {
	// Exact table for small df, where simulations actually operate; the
	// normal quantile beyond.
	table := []float64{
		0,      // unused
		12.706, // 1
		4.303, 3.182, 2.776, 2.571,
		2.447, 2.365, 2.306, 2.262, 2.228, // 6-10
		2.201, 2.179, 2.160, 2.145, 2.131, // 11-15
		2.120, 2.110, 2.101, 2.093, 2.086, // 16-20
		2.080, 2.074, 2.069, 2.064, 2.060, // 21-25
		2.056, 2.052, 2.048, 2.045, 2.042, // 26-30
	}
	if df <= 0 {
		return math.Inf(1)
	}
	if df < len(table) {
		return table[df]
	}
	return 1.96
}

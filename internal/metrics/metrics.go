// Package metrics collects the bandwidth and waiting-time statistics that the
// paper's evaluation reports: time-weighted average bandwidth, maximum
// bandwidth, and load histograms, all expressed in multiples of the video
// consumption rate b (one "data stream" = b).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Bandwidth accumulates a time-weighted bandwidth series. Loads are recorded
// with an explicit duration weight so slotted protocols (one sample per slot)
// and continuous-time protocols (variable-length intervals between events)
// share the same accumulator.
type Bandwidth struct {
	weightedSum float64
	totalWeight float64
	max         float64
	samples     int
	histogram   map[int]float64 // integer load -> accumulated weight
}

// NewBandwidth returns an empty accumulator.
func NewBandwidth() *Bandwidth {
	return &Bandwidth{histogram: make(map[int]float64)}
}

// Record adds an observation of the given load lasting for weight seconds.
// Zero-weight observations still update the maximum (an instantaneous peak
// counts even if it lasted no measurable time). Negative weights panic.
func (b *Bandwidth) Record(load, weight float64) {
	if weight < 0 {
		panic("metrics: negative weight")
	}
	if load > b.max {
		b.max = load
	}
	b.samples++
	if weight == 0 {
		return
	}
	b.weightedSum += load * weight
	b.totalWeight += weight
	b.histogram[int(math.Round(load))] += weight
}

// Mean reports the time-weighted average load, or 0 if nothing was recorded.
func (b *Bandwidth) Mean() float64 {
	if b.totalWeight == 0 {
		return 0
	}
	return b.weightedSum / b.totalWeight
}

// Max reports the largest load observed.
func (b *Bandwidth) Max() float64 { return b.max }

// Samples reports how many observations were recorded.
func (b *Bandwidth) Samples() int { return b.samples }

// Quantile returns the smallest integer load whose cumulative weight reaches
// the given fraction q in (0, 1]. It returns 0 when nothing was recorded.
func (b *Bandwidth) Quantile(q float64) int {
	if b.totalWeight == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	loads := make([]int, 0, len(b.histogram))
	for l := range b.histogram {
		loads = append(loads, l)
	}
	sort.Ints(loads)
	target := q * b.totalWeight
	cum := 0.0
	for _, l := range loads {
		cum += b.histogram[l]
		if cum >= target-1e-9 {
			return l
		}
	}
	return loads[len(loads)-1]
}

// String summarizes the accumulator for logs and CLI output.
func (b *Bandwidth) String() string {
	return fmt.Sprintf("mean=%.3f max=%.0f over %.0fs", b.Mean(), b.Max(), b.totalWeight)
}

// Wait accumulates customer waiting times in seconds.
type Wait struct {
	sum   float64
	max   float64
	count int
}

// NewWait returns an empty waiting-time accumulator.
func NewWait() *Wait { return &Wait{} }

// Record adds one customer's waiting time. Negative waits panic: a protocol
// can never serve a request before it arrives.
func (w *Wait) Record(seconds float64) {
	if seconds < 0 {
		panic("metrics: negative waiting time")
	}
	w.sum += seconds
	if seconds > w.max {
		w.max = seconds
	}
	w.count++
}

// Mean reports the average waiting time, or 0 with no observations.
func (w *Wait) Mean() float64 {
	if w.count == 0 {
		return 0
	}
	return w.sum / float64(w.count)
}

// Max reports the longest waiting time observed.
func (w *Wait) Max() float64 { return w.max }

// Count reports the number of customers recorded.
func (w *Wait) Count() int { return w.count }

// Counter is a time-weighted step-function tracker for continuous-time
// simulations: call Set (or Add) whenever the tracked quantity changes and
// the counter attributes the elapsed interval to the previous value.
type Counter struct {
	bw      *Bandwidth
	value   float64
	lastAt  float64
	started bool
}

// NewCounter returns a counter feeding the given bandwidth accumulator.
func NewCounter(bw *Bandwidth) *Counter {
	return &Counter{bw: bw}
}

// Set records that the tracked value changed to v at time now. Time must not
// move backwards.
func (c *Counter) Set(v, now float64) {
	if c.started {
		if now < c.lastAt {
			panic("metrics: counter time moved backwards")
		}
		c.bw.Record(c.value, now-c.lastAt)
	}
	c.value = v
	c.lastAt = now
	c.started = true
	// Make sure instantaneous peaks register even before the next change.
	if v > c.bw.max {
		c.bw.max = v
	}
}

// Add shifts the tracked value by delta at time now.
func (c *Counter) Add(delta, now float64) {
	c.Set(c.value+delta, now)
}

// Value reports the current tracked value.
func (c *Counter) Value() float64 { return c.value }

// Finish closes the last interval at time now.
func (c *Counter) Finish(now float64) {
	if c.started {
		c.Set(c.value, now)
	}
}

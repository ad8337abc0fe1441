package workload

import (
	"fmt"
	"sort"
)

// ArrivalTrace replays a recorded sequence of request timestamps — for
// example a production VOD request log — instead of drawing synthetic
// Poisson arrivals. Timestamps are seconds from the start of the trace.
type ArrivalTrace struct {
	times []float64
}

// NewArrivalTrace validates and wraps a timestamp series. Times must be
// non-negative; they are sorted if needed.
func NewArrivalTrace(times []float64) (*ArrivalTrace, error) {
	if len(times) == 0 {
		return nil, fmt.Errorf("workload: empty arrival trace")
	}
	own := make([]float64, len(times))
	copy(own, times)
	for i, t := range own {
		if t < 0 {
			return nil, fmt.Errorf("workload: arrival %d at negative time %v", i, t)
		}
	}
	sort.Float64s(own)
	return &ArrivalTrace{times: own}, nil
}

// Count reports the number of recorded arrivals (zero for a nil trace).
func (a *ArrivalTrace) Count() int {
	if a == nil {
		return 0
	}
	return len(a.times)
}

// Duration reports the time of the last arrival. A degenerate trace (nil,
// empty, or a zero-value ArrivalTrace that skipped the constructor) reports
// zero instead of panicking: downstream consumers divide by it and are
// expected to handle zero, not recover.
func (a *ArrivalTrace) Duration() float64 {
	if a == nil || len(a.times) == 0 {
		return 0
	}
	return a.times[len(a.times)-1]
}

// Slotted converts the trace into per-slot arrival counts for a slotted
// protocol simulation with the given slot duration.
func (a *ArrivalTrace) Slotted(slotSeconds float64) ([]int, error) {
	if slotSeconds <= 0 {
		return nil, fmt.Errorf("workload: slot duration %v must be positive", slotSeconds)
	}
	slots := int(a.Duration()/slotSeconds) + 1
	counts := make([]int, slots)
	for _, t := range a.times {
		counts[int(t/slotSeconds)]++
	}
	return counts, nil
}

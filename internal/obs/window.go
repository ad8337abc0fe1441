package obs

import (
	"fmt"
	"sort"
	"sync"
)

// This file implements the rolling-window latency tracker: exact quantiles
// over the last N observations, lifetime count and sum, plus SLO burn
// accounting. It is the one distribution instrument: /statusz and vodtop
// render its snapshot, and a window registered on a Registry (see
// registry.go) is a Prometheus summary — quantiles over the recent sample for
// "what is the pipeline doing RIGHT NOW", lifetime _sum and _count for rates
// and means over any scrape interval.
//
// The paper's evaluation bounds client waiting time while holding bandwidth
// near FB; an SLO of the form "objective fraction of admissions reach first
// byte within threshold seconds" is exactly that bound restated as an
// operational target, so the tracker carries one per pipeline stage.

// defaultWindowSize bounds a Window when the owner does not choose one.
const defaultWindowSize = 1024

// Window is a rolling window of float64 observations with quantile
// snapshots and optional SLO accounting. All methods are safe for concurrent
// use.
type Window struct {
	mu   sync.Mutex
	buf  []float64
	next int
	full bool

	total uint64
	sum   float64 // lifetime, beside total

	// SLO accounting (threshold <= 0 disables it).
	threshold float64
	objective float64
	good, bad uint64
}

// NewWindow returns a tracker over the last size observations (size <= 0
// selects defaultWindowSize).
func NewWindow(size int) *Window {
	if size <= 0 {
		size = defaultWindowSize
	}
	return &Window{buf: make([]float64, 0, size)}
}

// SetSLO arms burn accounting: an observation at or under threshold is
// "good"; the budget is the 1-objective fraction allowed to be bad
// (objective in (0,1), e.g. 0.99 for a 99% target). Observations recorded
// before SetSLO are not reclassified.
func (w *Window) SetSLO(threshold, objective float64) error {
	if threshold <= 0 {
		return fmt.Errorf("obs: SLO threshold %v must be positive", threshold)
	}
	if objective <= 0 || objective >= 1 {
		return fmt.Errorf("obs: SLO objective %v must be in (0,1)", objective)
	}
	w.mu.Lock()
	w.threshold = threshold
	w.objective = objective
	w.mu.Unlock()
	return nil
}

// Observe records one value.
func (w *Window) Observe(v float64) {
	w.mu.Lock()
	if len(w.buf) < cap(w.buf) {
		w.buf = append(w.buf, v)
	} else {
		w.buf[w.next] = v
		w.next = (w.next + 1) % cap(w.buf)
		w.full = true
	}
	w.total++
	w.sum += v
	if w.threshold > 0 {
		if v <= w.threshold {
			w.good++
		} else {
			w.bad++
		}
	}
	w.mu.Unlock()
}

// WindowSnapshot is one consistent view of a Window.
type WindowSnapshot struct {
	// Count is the number of observations currently in the window; Total
	// counts every observation over the tracker's lifetime.
	Count int    `json:"count"`
	Total uint64 `json:"total"`
	// Quantiles, mean and extremes of the windowed sample, zero when empty.
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
	// SLO accounting, zero unless SetSLO armed it. Good and Bad are
	// lifetime totals; BurnRate is the rate the error budget burns at:
	// (bad fraction)/(1-objective), so 1.0 means "exactly on budget",
	// above 1 means the objective will be missed if the rate holds.
	SLOThreshold float64 `json:"slo_threshold,omitempty"`
	SLOObjective float64 `json:"slo_objective,omitempty"`
	Good         uint64  `json:"good,omitempty"`
	Bad          uint64  `json:"bad,omitempty"`
	BurnRate     float64 `json:"burn_rate"`
	// sum is the lifetime sum beside Total: the summary's _sum, which
	// /statusz does not carry.
	sum float64
}

// quantile reads q in [0,1] from the sorted sample using the
// nearest-rank method.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Snapshot computes quantiles over the current window and the SLO burn
// rate. It copies and sorts the window (O(n log n) for n = window size), a
// cost paid by the introspection reader, never the observation hot path.
func (w *Window) Snapshot() WindowSnapshot {
	w.mu.Lock()
	sample := append([]float64(nil), w.buf...)
	snap := WindowSnapshot{
		Count: len(w.buf), Total: w.total, sum: w.sum,
		SLOThreshold: w.threshold, SLOObjective: w.objective,
		Good: w.good, Bad: w.bad,
	}
	w.mu.Unlock()

	if len(sample) > 0 {
		var sum float64
		for _, v := range sample {
			sum += v
		}
		snap.Mean = sum / float64(len(sample))
		sort.Float64s(sample)
		snap.P50 = quantile(sample, 0.50)
		snap.P95 = quantile(sample, 0.95)
		snap.P99 = quantile(sample, 0.99)
		snap.Max = sample[len(sample)-1]
	}
	if snap.SLOThreshold > 0 && snap.Good+snap.Bad > 0 {
		badFrac := float64(snap.Bad) / float64(snap.Good+snap.Bad)
		snap.BurnRate = badFrac / (1 - snap.SLOObjective)
	}
	return snap
}

// Package trace provides the variable-bit-rate video substrate for the
// paper's Section 4 study. The paper analyzes a DVD trace of The Matrix
// (8170 s long, 636 KB/s mean, 951 KB/s one-second peak); since the real
// MPEG trace is proprietary, this package generates a seeded synthetic trace
// calibrated to exactly those published statistics, with MPEG-like structure
// (scene-level rate shifts, GOP-periodic ripple, occasional action bursts).
package trace

import (
	"fmt"
	"math"
)

// Trace is a per-second bit-rate series: Rates[k] is the number of bytes the
// decoder consumes during second k of playback.
type Trace struct {
	rates []float64
	cum   []float64 // cum[k] = bytes consumed in the first k seconds
}

// New builds a trace from a per-second byte series. Rates must be positive.
func New(rates []float64) (*Trace, error) {
	if len(rates) == 0 {
		return nil, fmt.Errorf("trace: empty rate series")
	}
	cum := make([]float64, len(rates)+1)
	for i, r := range rates {
		if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return nil, fmt.Errorf("trace: rate[%d] = %v is not a positive finite number", i, r)
		}
		cum[i+1] = cum[i] + r
	}
	out := &Trace{rates: make([]float64, len(rates)), cum: cum}
	copy(out.rates, rates)
	return out, nil
}

// Duration reports the playback length in seconds.
func (t *Trace) Duration() float64 { return float64(len(t.rates)) }

// Seconds reports the number of one-second samples.
func (t *Trace) Seconds() int { return len(t.rates) }

// Rate reports the consumption rate during second k.
func (t *Trace) Rate(k int) float64 { return t.rates[k] }

// TotalBytes reports the size of the whole video.
func (t *Trace) TotalBytes() float64 { return t.cum[len(t.cum)-1] }

// Mean reports the average consumption rate in bytes per second.
func (t *Trace) Mean() float64 { return t.TotalBytes() / t.Duration() }

// Peak reports the maximum consumption rate over any one-second window, the
// statistic the paper quotes (951 KB/s for its trace).
func (t *Trace) Peak() float64 {
	peak := 0.0
	for _, r := range t.rates {
		if r > peak {
			peak = r
		}
	}
	return peak
}

// CumulativeAt reports C(x): the bytes consumed during the first x seconds of
// playback, interpolating linearly inside a second. Arguments are clamped to
// [0, Duration].
func (t *Trace) CumulativeAt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= t.Duration() {
		return t.TotalBytes()
	}
	k := int(x)
	frac := x - float64(k)
	return t.cum[k] + frac*t.rates[k]
}

// TimeOfByte reports C^-1(bytes): the playback instant at which cumulative
// consumption reaches the given byte count, interpolating linearly inside a
// second. Arguments are clamped to [0, TotalBytes].
func (t *Trace) TimeOfByte(bytes float64) float64 {
	if bytes <= 0 {
		return 0
	}
	total := t.TotalBytes()
	if bytes >= total {
		return t.Duration()
	}
	// Binary search the first whole second whose cumulative count reaches
	// the target, then interpolate within it.
	lo, hi := 0, len(t.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if t.cum[mid] < bytes {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	k := lo - 1 // cum[k] < bytes <= cum[k+1]
	return float64(k) + (bytes-t.cum[k])/t.rates[k]
}

// SegmentBytes splits playback into n equal-duration segments and reports the
// bytes of video data inside each (index 0 .. n-1).
func (t *Trace) SegmentBytes(n int) ([]float64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("trace: segment count %d must be positive", n)
	}
	d := t.Duration() / float64(n)
	out := make([]float64, n)
	prev := 0.0
	for i := 0; i < n; i++ {
		next := t.CumulativeAt(float64(i+1) * d)
		out[i] = next - prev
		prev = next
	}
	return out, nil
}

// Package smoothing implements the bandwidth-smoothing analysis of the
// paper's Section 4: the per-segment rates of solution DHB-b, the
// work-ahead smoothing of Salehi et al. behind solutions DHB-c/DHB-d, and
// the per-segment maximum transmission periods T[i] that DHB-d feeds back
// into the DHB scheduler.
//
// Conventions (matching the slotted DHB protocol): a request arriving during
// slot i0 has transmission unit j delivered in some slot of
// [i0+1, i0+T[j]]; the video time interval [(m-1)d, m d) is consumed during
// slot i0+m+1, so a unit whose first byte is consumed in interval m is safe
// whenever T[j] <= m.
package smoothing

import (
	"fmt"
	"math"

	"vodcast/internal/trace"
)

// PeakSegmentRate returns the DHB-b stream rate for a video split into n
// equal-duration segments: the largest per-segment average rate, i.e. the
// bandwidth needed to deliver every segment within one slot.
func PeakSegmentRate(tr *trace.Trace, n int) (float64, error) {
	segs, err := tr.SegmentBytes(n)
	if err != nil {
		return 0, err
	}
	d := tr.Duration() / float64(n)
	peak := 0.0
	for _, bytes := range segs {
		if r := bytes / d; r > peak {
			peak = r
		}
	}
	return peak, nil
}

// MinWorkAheadRate returns the smallest constant stream rate r such that a
// client receiving r*d bytes in every slot (starting one slot after its
// request) always holds each datum before consuming it. This is the
// "smoothing by work-ahead" rate of solution DHB-c:
//
//	r = max over k >= 1 of C(k d) / (k d)
//
// where C is the cumulative consumption curve of the trace.
func MinWorkAheadRate(tr *trace.Trace, d float64) (float64, error) {
	if d <= 0 {
		return 0, fmt.Errorf("smoothing: slot duration %v must be positive", d)
	}
	n := int(math.Ceil(tr.Duration() / d))
	r := 0.0
	for k := 1; k <= n; k++ {
		t := math.Min(float64(k)*d, tr.Duration())
		if rate := tr.CumulativeAt(t) / (float64(k) * d); rate > r {
			r = rate
		}
	}
	return r, nil
}

// PackedSegments returns how many full-rate transmission units of size r*d
// the video occupies once smoothing packs data back to back: the segment
// count of solutions DHB-c and DHB-d. The last unit may be partially filled.
func PackedSegments(tr *trace.Trace, d, r float64) (int, error) {
	if d <= 0 || r <= 0 {
		return 0, fmt.Errorf("smoothing: slot duration %v and rate %v must be positive", d, r)
	}
	return int(math.Ceil(tr.TotalBytes() / (r * d))), nil
}

// Periods derives the DHB-d maximum-period vector for a video transmitted in
// n units of r*d bytes: T[j] is the largest slot delay after which unit j
// still arrives before any of its content is consumed. T is 1-based with
// T[0] unused, T[1] = 1, and T nondecreasing; T[j] >= j always holds when r
// is at least the work-ahead rate.
func Periods(tr *trace.Trace, d, r float64, n int) ([]int, error) {
	if d <= 0 || r <= 0 {
		return nil, fmt.Errorf("smoothing: slot duration %v and rate %v must be positive", d, r)
	}
	if n <= 0 {
		return nil, fmt.Errorf("smoothing: unit count %d must be positive", n)
	}
	periods := make([]int, n+1)
	periods[1] = 1
	for j := 2; j <= n; j++ {
		firstByte := float64(j-1) * r * d
		tx := tr.TimeOfByte(firstByte)
		periods[j] = int(tx/d) + 1
	}
	return periods, nil
}

// VerifyFeasible checks that transmitting r*d bytes per slot, each unit j
// delivered at the latest slot its period allows, never underflows the
// client: by the start of each consumption interval the cumulative delivered
// bytes cover the cumulative consumed bytes. It returns the maximum client
// buffer occupancy in bytes, a statistic Section 2's STB sizing discussion
// cares about.
func VerifyFeasible(tr *trace.Trace, d, r float64, periods []int) (maxBuffer float64, err error) {
	n := len(periods) - 1
	if n <= 0 {
		return 0, fmt.Errorf("smoothing: empty period vector")
	}
	unit := r * d
	total := tr.TotalBytes()
	// delivered[s] = bytes on hand after slot s (1-based slots relative to
	// the request; unit j arrives at the end of slot periods[j]).
	lastSlot := periods[n]
	consSlots := int(math.Ceil(tr.Duration()/d)) + 1
	horizon := lastSlot
	if consSlots+1 > horizon {
		horizon = consSlots + 1
	}
	arrived := make([]float64, horizon+2)
	for j := 1; j <= n; j++ {
		bytes := unit
		if j == n {
			bytes = total - float64(n-1)*unit
		}
		if periods[j] < 1 || periods[j] > horizon {
			return 0, fmt.Errorf("smoothing: period[%d] = %d outside [1, %d]", j, periods[j], horizon)
		}
		arrived[periods[j]] += bytes
	}
	// Both sides of the comparison below are sums of up to n terms that reach
	// total, so their rounding grows with total: tolerate a billionth of it
	// (5 bytes of a 5 GB video), far above the rounding and far below a frame.
	tolerance := 1e-9 * total
	delivered := 0.0 // bytes on hand at the end of slot s
	for s := 1; s <= horizon+1; s++ {
		// Data consumed DURING slot s covers video time up to (s-1)d and
		// must have been delivered by the end of slot s-1.
		consumed := tr.CumulativeAt(float64(s-1) * d)
		if consumed > delivered+tolerance {
			return 0, fmt.Errorf("smoothing: client underflow during slot %d: consumed %.0f > delivered %.0f",
				s, consumed, delivered)
		}
		if s <= horizon {
			delivered += arrived[s]
		}
		// Buffer occupancy at the end of slot s: delivered so far minus
		// consumed so far.
		if buf := delivered - consumed; buf > maxBuffer {
			maxBuffer = buf
		}
	}
	return maxBuffer, nil
}

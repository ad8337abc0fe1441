package obs

import (
	"math"
	"sync/atomic"
)

// HighWatermark is a since-last-read maximum: writers Record values from the
// hot path with one lock-free compare-and-swap, and each read returns the
// largest value seen since the previous read, then resets.
//
// It exists for exactly the failure mode a plain gauge has under scraping: a
// gauge Set every tick only exposes the value of the LAST tick before the
// scrape, so a one-tick spike between scrapes is overwritten and invisible.
// A watermark turns "value at scrape time" into "worst value since the last
// scrape" — registered through Registry.GaugeFunc with Read as the source, a
// spike always survives to the next scrape that follows it.
//
// With more than one reader (a history scrape and an external /metricsz
// scrape, say) each observed maximum is delivered to exactly one of them;
// the union of all readers still sees every spike.
type HighWatermark struct {
	bits atomic.Uint64
}

// Record folds v into the watermark if it exceeds the current maximum.
// Negative values are recorded too (the zero reset means an all-negative
// interval reads 0 — callers tracking depths and counts never go negative).
func (h *HighWatermark) Record(v float64) {
	for {
		old := h.bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if h.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Read returns the maximum recorded since the previous Read and resets the
// watermark to zero. This is the GaugeFunc source: wire it with
//
//	reg.GaugeFunc("vod_fanout_ring_depth_max", help, h.Read)
func (h *HighWatermark) Read() float64 {
	return math.Float64frombits(h.bits.Swap(0))
}

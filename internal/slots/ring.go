// Package slots implements the slotted transmission schedule at the heart of
// the DHB protocol: a bounded window of future slots, each holding the set of
// segment instances scheduled for transmission during that slot.
//
// The window advances one slot at a time; retired slots report their load to
// the caller, which feeds the bandwidth statistics. Because no protocol in
// this repository ever schedules further than n slots ahead of the current
// slot, the window is a fixed-size ring. Loads and single-slot reads are
// O(1); the min-load window scans behind DHB's placement rule walk the
// window, O(to-from).
package slots

import "fmt"

// Ring is a fixed-horizon window of future transmission slots. Slot indices
// are absolute and monotonically increasing; the ring tracks slots
// [Base, Base+Horizon-1].
type Ring struct {
	horizon   int
	base      int
	total     int // instances scheduled across the whole window
	loads     []int
	segs      [][]int
	trackSegs bool
}

// NewRing returns a ring tracking horizon consecutive slots starting at
// absolute slot base. If trackSegs is true the ring also records which
// segment ids were scheduled in each slot (used by golden tests and the
// schedule visualizer; the hot simulation path leaves it off).
func NewRing(horizon, base int, trackSegs bool) *Ring {
	if horizon <= 0 {
		panic("slots: horizon must be positive")
	}
	r := &Ring{
		horizon:   horizon,
		base:      base,
		loads:     make([]int, horizon),
		trackSegs: trackSegs,
	}
	if trackSegs {
		r.segs = make([][]int, horizon)
	}
	return r
}

// End reports the absolute index of the latest tracked slot.
func (r *Ring) End() int { return r.base + r.horizon - 1 }

func (r *Ring) pos(abs int) int {
	if abs < r.base || abs > r.End() {
		panic(fmt.Sprintf("slots: slot %d outside window [%d, %d]", abs, r.base, r.End()))
	}
	return abs % r.horizon
}

// Load reports the number of segment instances scheduled in slot abs.
func (r *Ring) Load(abs int) int { return r.loads[r.pos(abs)] }

// Add schedules one instance of segment seg in slot abs.
func (r *Ring) Add(abs, seg int) {
	p := r.pos(abs)
	r.loads[p]++
	r.total++
	if r.trackSegs {
		r.segs[p] = append(r.segs[p], seg)
	}
}

// Segments returns the segment ids scheduled in slot abs, in scheduling
// order. It returns nil unless the ring was built with trackSegs. The
// returned slice is a copy owned by the caller; replay paths that visit many
// slots use EachSegment instead.
func (r *Ring) Segments(abs int) []int {
	if !r.trackSegs {
		return nil
	}
	p := r.pos(abs)
	out := make([]int, len(r.segs[p]))
	copy(out, r.segs[p])
	return out
}

// EachSegment calls fn with each segment id scheduled in slot abs, in
// scheduling order, without copying the slot's segment list. It is a no-op
// unless the ring was built with trackSegs. fn must not call methods that
// mutate the ring.
func (r *Ring) EachSegment(abs int, fn func(seg int)) {
	if !r.trackSegs {
		return
	}
	for _, seg := range r.segs[r.pos(abs)] {
		fn(seg)
	}
}

// MinLoadLatest returns the slot of [from, to] with the minimum load,
// preferring the latest slot among ties — the DHB heuristic of Figure 6.
// Both bounds must lie inside the window and from <= to. O(to-from).
func (r *Ring) MinLoadLatest(from, to int) (slot, load int) {
	if from > to {
		panic(fmt.Sprintf("slots: empty scan range [%d, %d]", from, to))
	}
	slot, load = to, r.Load(to)
	for s := to - 1; s >= from; s-- {
		if l := r.Load(s); l < load {
			slot, load = s, l
		}
	}
	return slot, load
}

// MinLoadEarliest returns the slot of [from, to] with the minimum load,
// preferring the earliest slot among ties — the ablated tie-breaking rule
// core's PolicyMinLoadEarliest studies.
func (r *Ring) MinLoadEarliest(from, to int) (slot, load int) {
	if from > to {
		panic(fmt.Sprintf("slots: empty scan range [%d, %d]", from, to))
	}
	slot, load = from, r.Load(from)
	for s := from + 1; s <= to; s++ {
		if l := r.Load(s); l < load {
			slot, load = s, l
		}
	}
	return slot, load
}

// Total reports the number of instances scheduled across the whole window.
func (r *Ring) Total() int { return r.total }

// Skip moves an empty window k slots forward: with nothing scheduled, k
// Retires only move the base. It panics when an instance is scheduled.
func (r *Ring) Skip(k int) {
	if r.total != 0 || k < 0 {
		panic(fmt.Sprintf("slots: skip %d slots with %d instances scheduled", k, r.total))
	}
	r.base += k
}

// Peek returns the earliest slot's absolute index, load and segment ids (when
// tracked) without retiring it. The segment slice is the ring's own: the
// caller must not modify it, and it stays the ring's until the next Retire.
func (r *Ring) Peek() (abs, load int, segs []int) {
	p := r.base % r.horizon
	if r.trackSegs {
		segs = r.segs[p]
	}
	return r.base, r.loads[p], segs
}

// Retire removes the earliest slot from the window, appends a fresh empty
// slot at the far end, and returns the retired slot's absolute index and
// load. Segment ids, when tracked, are returned in scheduling order and the
// returned slice is owned by the caller.
func (r *Ring) Retire() (abs, load int, segs []int) {
	abs = r.base
	p := abs % r.horizon
	load = r.loads[p]
	r.loads[p] = 0
	r.total -= load
	if r.trackSegs {
		segs = r.segs[p]
		r.segs[p] = nil
	}
	r.base++
	return abs, load, segs
}

// Package dynamic implements the dynamic (on-demand) broadcasting protocols
// the paper compares DHB against: the universal distribution protocol (UD),
// which transmits segments on the fast-broadcasting schedule only when some
// active request needs them, and the dynamic pagoda variant Section 3
// reports the authors tried before designing DHB.
//
// Both are the same machine over different static mappings: a request
// arriving during slot i needs, for every segment s, the first occurrence of
// s in its stream after slot i; the server transmits exactly the needed
// (stream, slot) pairs. Under saturation every slot of every stream is
// needed and the protocol degenerates to its static parent, which is how UD
// "reverts to a conventional FB protocol" above 200 requests per hour.
package dynamic

import (
	"fmt"

	"vodcast/internal/broadcast"
	"vodcast/internal/slots"
)

// OnDemand simulates a dynamic broadcasting protocol over a static mapping.
// It is not safe for concurrent use.
type OnDemand struct {
	mapping *broadcast.Mapping
	ring    *slots.Ring
	// lastMark[s] is the most recent slot in which a transmission of
	// segment s was marked needed. The first occurrence of s after slot i
	// is unique, and any marked occurrence later than i is exactly that
	// occurrence, so a request shares it if and only if lastMark[s] > i.
	lastMark []int
	current  int

	requests  int64
	instances int64
}

// newOnDemand wraps the given static mapping; transmission begins at
// startSlot.
func newOnDemand(m *broadcast.Mapping, startSlot int) (*OnDemand, error) {
	if m == nil {
		return nil, fmt.Errorf("dynamic: nil mapping")
	}
	if startSlot < 0 {
		return nil, fmt.Errorf("dynamic: start slot %d must be non-negative", startSlot)
	}
	maxP := 0
	for s := 1; s <= m.N(); s++ {
		if p := m.Period(s); p > maxP {
			maxP = p
		}
	}
	o := &OnDemand{
		mapping:  m,
		ring:     slots.NewRing(maxP+1, startSlot, false),
		lastMark: make([]int, m.N()+1),
		current:  startSlot,
	}
	for s := range o.lastMark {
		o.lastMark[s] = startSlot - 1
	}
	return o, nil
}

// UD builds the universal distribution protocol for n segments: on-demand
// transmission over the fast-broadcasting segment-to-stream mapping.
func UD(n int) (*OnDemand, error) {
	m, err := broadcast.FastBroadcast(n)
	if err != nil {
		return nil, fmt.Errorf("dynamic: UD: %w", err)
	}
	return newOnDemand(m, 0)
}

// DynamicPagoda builds the on-demand pagoda protocol of Section 3's ablation
// ("we first experimented with a dynamic version of the NPB protocol").
func DynamicPagoda(n int) (*OnDemand, error) {
	m, err := broadcast.Pagoda(n)
	if err != nil {
		return nil, fmt.Errorf("dynamic: dynamic pagoda: %w", err)
	}
	return newOnDemand(m, 0)
}

// DSB builds Eager and Vernon's dynamic skyscraper broadcasting: on-demand
// transmission over the skyscraper mapping. Because SB packs fewer segments
// per stream than FB to keep the client to two concurrent streams, DSB
// needs more server bandwidth than UD at every rate (Section 2).
func DSB(n int) (*OnDemand, error) {
	m, err := broadcast.Skyscraper(n)
	if err != nil {
		return nil, fmt.Errorf("dynamic: DSB: %w", err)
	}
	return newOnDemand(m, 0)
}

// N reports the segment count.
func (o *OnDemand) N() int { return o.mapping.N() }

// Streams reports the static parent's stream count, the protocol's bandwidth
// ceiling.
func (o *OnDemand) Streams() int { return o.mapping.Streams() }

// CurrentSlot reports the slot currently being transmitted.
func (o *OnDemand) CurrentSlot() int { return o.current }

// Requests reports how many requests have been admitted.
func (o *OnDemand) Requests() int64 { return o.requests }

// Instances reports how many segment transmissions were marked needed.
func (o *OnDemand) Instances() int64 { return o.instances }

// Admit processes one request arriving during the current slot and reports
// how many new transmissions it forced.
func (o *OnDemand) Admit() int {
	return len(o.admit(nil))
}

// AdmitTraced is Admit returning the serving slot of every segment
// (result[s], with result[0] unused).
func (o *OnDemand) AdmitTraced() []int {
	assignment := make([]int, o.N()+1)
	o.admit(assignment)
	return assignment
}

func (o *OnDemand) admit(assignment []int) []int {
	i := o.current
	o.requests++
	var marked []int
	for s := 1; s <= o.N(); s++ {
		if o.lastMark[s] > i {
			if assignment != nil {
				assignment[s] = o.lastMark[s]
			}
			continue
		}
		occ := o.mapping.FirstOccurrenceAfter(s, i)
		o.ring.Add(occ, s)
		o.lastMark[s] = occ
		o.instances++
		marked = append(marked, occ)
		if assignment != nil {
			assignment[s] = occ
		}
	}
	return marked
}

// AdvanceSlot finishes the current slot and reports how many streams had to
// transmit during it.
func (o *OnDemand) AdvanceSlot() (slot, load int) {
	abs, load, _ := o.ring.Retire()
	o.current++
	return abs, load
}

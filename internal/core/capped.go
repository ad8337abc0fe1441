package core

import "fmt"

// This file implements the client-bandwidth-limited DHB variant the paper's
// conclusion singles out as future work: "we would like to investigate
// dynamic heuristic broadcasting protocols that limit the client bandwidth
// to two or three data streams".
//
// With a cap c, a request's assignment may place at most c of its segments
// in any one slot, so the set-top box never receives more than c streams
// simultaneously. Sharing becomes harder: an already-scheduled instance only
// helps if its slot still has client-side capacity, so the loop walks every
// pending instance of the segment in the instance index, latest first, and
// falls back to scheduling a duplicate in a capacity-feasible slot.
//
// Feasibility is what Config.Validate checks: c·T[k] >= k for every k. The
// loop takes segments in index order, so the k-th segment it places (k =
// j-from+1 for a resume from segment from, k = j for a full viewing) has a
// window of T[k] slots holding c·T[k] client slots, of which the k-1
// segments placed before it fill at most k-1; at least one slot always has
// room. The CBR default T[k] = k meets the condition for every c >= 1 (c = 1
// degenerates to the sequential just-in-time schedule S_j at slot i+j); a
// vector with some T[k] < k needs a cap of at least ⌈k/T[k]⌉.

// admitFromCapped is the capped counterpart of admitFrom and the only capped
// placement loop: segment j >= from must arrive within [i+1, i+T[j-from+1]].
func (s *Scheduler) admitFromCapped(from int, assignment []int) int {
	i := s.current
	s.requests++
	// clientLoad[k] counts this request's segments assigned to slot i+1+k.
	for k := range s.clientLoad {
		s.clientLoad[k] = 0
	}
	placed := 0
	for j := from; j <= s.n; j++ {
		hi := i + s.periods[j-from+1]
		chosen := -1
		shared := true

		// Try to share an already-scheduled instance; prefer the latest
		// feasible one so earlier slots keep capacity for tighter windows.
		inst := s.pruneInstances(j)
		for k := len(inst) - 1; k >= 0; k-- {
			slot := inst[k]
			if slot > hi {
				continue
			}
			if s.clientLoad[slot-i-1] < s.cap {
				chosen = slot
				break
			}
		}

		if chosen < 0 {
			shared = false
			// Schedule a new instance in the minimum-load slot among the
			// window slots with client capacity, ties toward the latest.
			bestLoad := int(^uint(0) >> 1)
			for slot := hi; slot >= i+1; slot-- {
				if s.clientLoad[slot-i-1] >= s.cap {
					continue
				}
				if l := s.ring.Load(slot); l < bestLoad {
					chosen, bestLoad = slot, l
				}
			}
			if chosen < 0 {
				// Unreachable on a configuration Validate accepts, by the
				// feasibility argument above.
				panic(fmt.Sprintf("core: no feasible slot for segment %d from %d (cap %d)", j, from, s.cap))
			}
			s.ring.Add(chosen, j)
			s.insertInstance(j, chosen)
			s.instances++
			placed++
		}

		s.clientLoad[chosen-i-1]++
		if assignment != nil {
			assignment[j] = chosen
		}
		if s.obs != nil {
			s.obs.ObserveDecision(i, j, chosen, i+1, hi, s.ring.Load(chosen), shared)
		}
	}
	if s.obs != nil {
		s.obs.ObserveAdmit(i, from, placed)
	}
	return placed
}

// Package core implements the paper's contribution: the Dynamic Heuristic
// Broadcasting (DHB) protocol of Figure 6.
//
// DHB is a slotted protocol. A video is split into n segments of equal
// duration d; requests arriving during slot i are served by a transmission
// schedule starting at slot i+1. Each segment S_j carries a maximum period
// T[j] (T[j] = j for constant-bit-rate video): a request is satisfied by any
// instance of S_j transmitted in the window [i+1, i+T[j]]. When no such
// instance exists, DHB schedules a new one in the window slot with the
// minimum number of already-scheduled instances, breaking ties toward the
// latest slot so future requests have the best chance of sharing it. The
// scheduler runs that rule as written: one loop over the segments, and a
// linear scan of the window for each instance it places.
//
// The package also provides the naive variant Section 3 discusses (always
// schedule at the last possible slot i+T[j]), whose bandwidth peaks grow to
// n times the consumption rate, and the VBR planning pipeline of Section 4
// (solutions DHB-a through DHB-d).
package core

import (
	"fmt"

	"vodcast/internal/slots"
	"vodcast/internal/video"
)

// Policy selects how the scheduler places a segment instance that no
// previous schedule covers.
type Policy int

const (
	// PolicyHeuristic is the DHB rule of Figure 6: minimum-load slot in the
	// window, ties broken toward the latest slot.
	PolicyHeuristic Policy = iota + 1
	// PolicyNaive is Section 3's strawman: always the latest slot of the
	// window. It maximizes sharing but piles transmissions into common
	// slots, producing bandwidth peaks up to n instances in one slot.
	PolicyNaive
	// PolicyMinLoadEarliest is an ablation of Figure 6's tie-breaking rule:
	// minimum-load slot, ties toward the EARLIEST slot. It flattens peaks
	// exactly like the heuristic but forfeits sharing, because instances
	// placed early leave the next request's window sooner.
	PolicyMinLoadEarliest
)

// Config parameterizes a Scheduler.
type Config struct {
	// Segments is the number of video segments n.
	Segments int
	// Periods is the 1-based maximum-period vector T (Periods[0] unused).
	// Nil selects the CBR default T[i] = i. Section 4's DHB-d solution
	// passes the work-ahead periods derived by internal/smoothing.
	Periods []int
	// Policy selects the placement rule; the zero value means
	// PolicyHeuristic.
	Policy Policy
	// MaxClientStreams caps how many streams one set-top box may receive
	// simultaneously (Section 5's future-work variant). Zero means
	// unlimited, the published protocol. A positive cap requires the
	// heuristic policy and must satisfy cap·T[k] >= k for every k.
	MaxClientStreams int
	// TrackSegments records which segment ids occupy each slot, needed by
	// the schedule visualizer and the golden tests. Leave it off in large
	// simulations.
	TrackSegments bool
	// StartSlot is the index of the first transmission slot (the paper's
	// figures number slots from 1). The scheduler begins with this slot
	// current.
	StartSlot int
	// Observer optionally receives a callback at every scheduling
	// decision (see the Observer interface). Nil disables observation at
	// the cost of one branch per decision.
	Observer Observer
}

// SlotReport describes one retired (transmitted) slot.
type SlotReport struct {
	// Slot is the absolute slot index.
	Slot int
	// Load is the number of segment instances transmitted during the slot,
	// i.e. the slot's bandwidth in multiples of the consumption rate.
	Load int
	// Segments lists the transmitted segment ids when tracking is enabled.
	Segments []int
}

// Scheduler is the DHB transmission scheduler for a single video. It is not
// safe for concurrent use; every simulation drives it from one goroutine.
type Scheduler struct {
	n       int
	periods []int
	policy  Policy
	ring    *slots.Ring
	// futureInst[j] lists the slot of every pending instance of segment j,
	// ascending: the one instance index both placement loops share from and
	// place into. It may still hold transmitted entries, at or before the
	// current slot; a list drops them before it grows and before the capped
	// loop walks it.
	futureInst [][]int
	current    int

	// Client-bandwidth-capped mode (cap > 0) also keeps a per-request
	// slot-occupancy scratch.
	cap        int
	clientLoad []int

	requests  int64
	instances int64

	obs Observer
}

// Validate reports the error New would return for cfg, building nothing: a
// caller that builds its schedulers later can reject a bad configuration up
// front.
func (cfg Config) Validate() error {
	if cfg.Segments <= 0 {
		return fmt.Errorf("%w: got %d", ErrBadSegmentCount, cfg.Segments)
	}
	// The CBR default T[i] = i is always valid.
	if cfg.Periods != nil {
		if err := video.ValidatePeriods(cfg.Periods, cfg.Segments); err != nil {
			return fmt.Errorf("%w: %v", ErrBadPeriods, err)
		}
	}
	policy := cfg.Policy
	if policy == 0 {
		policy = PolicyHeuristic
	}
	if policy != PolicyHeuristic && policy != PolicyNaive && policy != PolicyMinLoadEarliest {
		return fmt.Errorf("%w: %d", ErrBadPolicy, policy)
	}
	if cfg.StartSlot < 0 {
		return fmt.Errorf("%w: got %d", ErrBadStartSlot, cfg.StartSlot)
	}
	if cfg.MaxClientStreams < 0 {
		return fmt.Errorf("%w: %d must be non-negative", ErrBadClientCap, cfg.MaxClientStreams)
	}
	if cfg.MaxClientStreams > 0 && policy != PolicyHeuristic {
		return fmt.Errorf("%w: a positive cap requires the heuristic policy", ErrBadClientCap)
	}
	// The capped loop needs c·T[k] >= k for every k (see capped.go); the
	// CBR default T[k] = k meets it for every cap. c·T[k] < k is written
	// T[k] <= (k-1)/c so no product can overflow.
	if c := cfg.MaxClientStreams; c > 0 && cfg.Periods != nil {
		for k := 2; k <= cfg.Segments; k++ {
			if cfg.Periods[k] <= (k-1)/c {
				return fmt.Errorf("%w: cap %d leaves segment %d's %d-slot window %d client slots for %d segments",
					ErrBadClientCap, c, k, cfg.Periods[k], c*cfg.Periods[k], k)
			}
		}
	}
	return nil
}

// New validates cfg and returns a scheduler whose current slot is
// cfg.StartSlot.
func New(cfg Config) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	periods := cfg.Periods
	if periods == nil {
		periods = video.DefaultPeriods(cfg.Segments)
	}
	policy := cfg.Policy
	if policy == 0 {
		policy = PolicyHeuristic
	}
	maxP := 0
	for j := 1; j <= cfg.Segments; j++ {
		if periods[j] > maxP {
			maxP = periods[j]
		}
	}
	own := make([]int, len(periods))
	copy(own, periods)
	s := &Scheduler{
		n:       cfg.Segments,
		periods: own,
		policy:  policy,
		ring:    slots.NewRing(maxP+1, cfg.StartSlot, cfg.TrackSegments),
		current: cfg.StartSlot,
		obs:     cfg.Observer,
	}
	// Full viewings alone never leave two pending instances of a segment,
	// so every list starts with room for one in a shared backing array and
	// only resumes grow it.
	backing := make([]int, cfg.Segments+1)
	s.futureInst = make([][]int, cfg.Segments+1)
	for j := range s.futureInst {
		s.futureInst[j] = backing[j : j : j+1]
	}
	if cfg.MaxClientStreams > 0 {
		s.cap = cfg.MaxClientStreams
		s.clientLoad = make([]int, maxP)
	}
	return s, nil
}

// CurrentSlot reports the slot currently being transmitted; arrivals admitted
// now are served starting at CurrentSlot()+1.
func (s *Scheduler) CurrentSlot() int { return s.current }

// Requests reports how many requests have been admitted.
func (s *Scheduler) Requests() int64 { return s.requests }

// Instances reports how many segment instances have been scheduled in total.
func (s *Scheduler) Instances() int64 { return s.instances }

// Period reports T[j].
func (s *Scheduler) Period(j int) int { return s.periods[j] }

// admitFrom is Figure 6, the only uncapped placement loop: it serves a
// customer whose first segment is from (1 is a full viewing; 2..n an
// interactive customer who paused, or whose session dropped, resuming
// there). Admitted during slot i, the customer consumes segment from during
// slot i+1, so segment j >= from is its (j-from+1)-th and must arrive within
// [i+1, i+T[j-from+1]]: the ordinary window shifted to the remaining
// suffix. It shares the latest instance of S_j in that window, if any, and
// schedules a new one otherwise, so resumes and full viewings share each
// other's instances whatever the vector. When assignment is non-nil it is
// filled with the serving slot of every segment from..n. It returns the
// number of newly scheduled instances.
func (s *Scheduler) admitFrom(from int, assignment []int) int {
	i := s.current
	s.requests++
	placed := 0
	for j := from; j <= s.n; j++ {
		hi := i + s.periods[j-from+1]
		// The window holds an instance if and only if the latest one no
		// later than hi does.
		inst := s.futureInst[j]
		k := len(inst)
		for k > 0 && inst[k-1] > hi {
			k--
		}
		if k > 0 && inst[k-1] > i {
			last := inst[k-1]
			if assignment != nil {
				assignment[j] = last
			}
			if s.obs != nil {
				s.obs.ObserveDecision(i, j, last, i+1, hi, s.ring.Load(last), true)
			}
			continue
		}
		var slot int
		switch s.policy {
		case PolicyHeuristic:
			slot, _ = s.ring.MinLoadLatest(i+1, hi)
		case PolicyMinLoadEarliest:
			slot, _ = s.ring.MinLoadEarliest(i+1, hi)
		default: // PolicyNaive
			slot = hi
		}
		s.ring.Add(slot, j)
		s.insertInstance(j, slot)
		s.instances++
		placed++
		if assignment != nil {
			assignment[j] = slot
		}
		if s.obs != nil {
			s.obs.ObserveDecision(i, j, slot, i+1, hi, s.ring.Load(slot), false)
		}
	}
	if s.obs != nil {
		s.obs.ObserveAdmit(i, from, placed)
	}
	return placed
}

// pruneInstances drops the instances of segment j that already transmitted
// and returns the pending, ascending list. The pending entries move to the
// front, so a list keeps its capacity and the steady state allocates
// nothing.
func (s *Scheduler) pruneInstances(j int) []int {
	inst := s.futureInst[j]
	k := 0
	for k < len(inst) && inst[k] <= s.current {
		k++
	}
	if k > 0 {
		inst = inst[:copy(inst, inst[k:])]
		s.futureInst[j] = inst
	}
	return inst
}

// insertInstance adds slot to futureInst[j], keeping it sorted ascending.
// It prunes the list first, so the list grows only past its pending entries.
func (s *Scheduler) insertInstance(j, slot int) {
	inst := append(s.pruneInstances(j), slot)
	k := len(inst) - 1
	for k > 0 && inst[k-1] > slot {
		inst[k] = inst[k-1]
		k--
	}
	inst[k] = slot
	s.futureInst[j] = inst
}

// ScheduledAt lists the segment ids currently scheduled in the given slot
// (only when the scheduler was built with TrackSegments). The returned slice
// is a copy; replay loops over many slots use EachScheduledAt.
func (s *Scheduler) ScheduledAt(slot int) []int { return s.ring.Segments(slot) }

// EachScheduledAt calls fn with each segment id currently scheduled in the
// given slot, in scheduling order, without copying the slot's segment list.
// It is a no-op unless the scheduler was built with TrackSegments; fn must
// not call back into the scheduler.
func (s *Scheduler) EachScheduledAt(slot int, fn func(seg int)) { s.ring.EachSegment(slot, fn) }

// LoadAt reports the number of instances currently scheduled in the given
// slot, which must lie inside the tracked window
// [CurrentSlot, CurrentSlot+maxPeriod].
func (s *Scheduler) LoadAt(slot int) int { return s.ring.Load(slot) }

// Pending reports the scheduled, not yet retired instances (current slot's too).
func (s *Scheduler) Pending() int { return s.ring.Total() }

// Skip moves a drained scheduler k slots forward in O(1): the state k
// AdvanceSlot calls leave, without their k empty ObserveRetire callbacks. It
// panics when an instance is pending.
func (s *Scheduler) Skip(k int) {
	s.ring.Skip(k)
	s.current += k
}

// Current reports what the current slot carries. Requests cannot add
// instances to it (their windows start one slot later), so the report is
// final and equals the one AdvanceSlot returns when the slot retires. It does
// not copy: Segments is the scheduler's own slice, not to be modified, and
// stays so until the next AdvanceSlot.
func (s *Scheduler) Current() SlotReport {
	abs, load, segs := s.ring.Peek()
	return SlotReport{Slot: abs, Load: load, Segments: segs}
}

// AdvanceSlot finishes transmitting the current slot and moves to the next,
// returning what the finished slot carried. Requests cannot add instances to
// a slot once it is current (their windows start one slot later), so the
// report is final.
func (s *Scheduler) AdvanceSlot() SlotReport {
	abs, load, segs := s.ring.Retire()
	s.current++
	if s.obs != nil {
		s.obs.ObserveRetire(abs, load, segs)
	}
	return SlotReport{Slot: abs, Load: load, Segments: segs}
}

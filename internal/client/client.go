// Package client models the customer's set-top box (STB): it replays the
// transmissions of a slotted broadcasting protocol and verifies, segment by
// segment, that everything a customer needs arrives before its deadline.
// Integration tests use it as the correctness oracle for the schedulers, and
// it reports the buffer occupancy Section 2's STB-sizing discussion cares
// about. It also measures how delivery went — startup, slack to deadline,
// misses and the stalls they cause — so a networked client that tolerates
// a miss keeps playing on the same model and reports what it saw.
package client

import (
	"errors"
	"fmt"
	"math"

	"vodcast/internal/video"
)

// ErrMissedDeadline is wrapped by the error ObserveSlot returns when a
// needed segment has not arrived by the end of its deadline slot. A caller
// that tolerates misses checks for it with errors.Is and keeps feeding slots.
var ErrMissedDeadline = errors.New("missed its deadline")

// QoE is what a session measured against its deadlines, in slots.
type QoE struct {
	// Needed counts the segments the customer had to receive (from the
	// resume point on); Received those that arrived, on time or late.
	Needed, Received int
	// Startup is the delay from arrival to the resume segment, or the whole
	// session when it never arrived.
	Startup int
	// Misses counts deadlines that passed without their segment; Rebuffers
	// counts the playback stalls they caused, a run of consecutive miss
	// slots being one stall.
	Misses, Rebuffers int
	// MinSlack and SumSlack summarize deadline minus arrival slot over the
	// received segments (negative when late); MinSlack is 0 when none came.
	MinSlack int
	SumSlack int64
	// Slots is the session's length: the last observed slot minus arrival.
	Slots int
}

// STB follows one customer's download. The customer requested the video
// during arrivalSlot; segment j must be fully received by the end of slot
// arrivalSlot + T[j] and is consumed during the following slot.
type STB struct {
	arrival  int
	from     int
	periods  []int
	received []bool
	pending  int
	// buffered tracks segments received on time but not yet consumed.
	buffered    int
	maxBuffered int
	lastSlot    int
	// qoe accumulates the measurements; its Startup is -1 until the resume
	// segment arrives, and QoE fills in the rest.
	qoe          QoE
	lastMissSlot int
}

// NewFrom returns an STB for a request that arrived during arrivalSlot, for a
// video whose 1-based maximum-period vector is periods (as in core.Config),
// resuming playback at segment from (1 for a full viewing): it only expects
// segments from..n, and segment j's deadline shifts to
// arrivalSlot + periods[j-from+1] because the customer consumes the suffix as
// if it were the whole video.
func NewFrom(arrivalSlot int, periods []int, from int) (*STB, error) {
	n := len(periods) - 1
	if n < 1 {
		return nil, fmt.Errorf("client: empty period vector")
	}
	if err := video.ValidatePeriods(periods, n); err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	if arrivalSlot < 0 {
		return nil, fmt.Errorf("client: arrival slot %d must be non-negative", arrivalSlot)
	}
	if from < 1 || from > n {
		return nil, fmt.Errorf("client: resume segment %d outside 1..%d", from, n)
	}
	own := make([]int, len(periods))
	copy(own, periods)
	received := make([]bool, n+1)
	for j := 1; j < from; j++ {
		received[j] = true // already watched before the pause
	}
	return &STB{
		arrival:  arrivalSlot,
		from:     from,
		periods:  own,
		received: received,
		pending:  n - from + 1,
		lastSlot: arrivalSlot,

		qoe:          QoE{Startup: -1, MinSlack: math.MaxInt},
		lastMissSlot: -2,
	}, nil
}

// N reports the video's segment count.
func (c *STB) N() int { return len(c.periods) - 1 }

// Deadline reports the last slot in which segment j may arrive; it is only
// meaningful for segments the customer still needs (j >= the resume point).
func (c *STB) Deadline(j int) int {
	if j < c.from {
		return -1 // already held; no deadline
	}
	return c.arrival + c.periods[j-c.from+1]
}

// Received reports whether segment j has arrived.
func (c *STB) Received(j int) bool { return c.received[j] }

// Complete reports whether every segment has arrived.
func (c *STB) Complete() bool { return c.pending == 0 }

// MaxBuffered reports the largest number of segments the STB held before
// consuming them. A segment that arrives after its deadline is played on
// arrival and never buffered.
func (c *STB) MaxBuffered() int { return c.maxBuffered }

// QoE reports what the session has measured up to the last observed slot.
func (c *STB) QoE() QoE {
	q := c.qoe
	q.Needed = c.N() - c.from + 1
	q.Received = q.Needed - c.pending
	q.Slots = c.lastSlot - c.arrival
	if q.Startup < 0 {
		q.Startup = q.Slots
	}
	if q.Received == 0 {
		q.MinSlack = 0
	}
	return q
}

// ObserveSlot ingests the transmissions of one slot and then settles the
// deadlines that expire with it, so a segment arriving in its deadline slot
// is on time. Slots must be fed in non-decreasing order, starting no earlier
// than the arrival slot; segments the customer already holds are ignored
// (the STB simply does not tune in again). A slot between the last one fed
// and this one that was never fed carried nothing for the customer: its
// deadlines settle first, in order, exactly as if it had been fed empty.
// Every slot is fully accounted even when a deadline passes unmet; the
// first such miss is then returned, wrapping ErrMissedDeadline.
func (c *STB) ObserveSlot(slot int, segments []int) error {
	if slot < c.lastSlot {
		return fmt.Errorf("client: slot %d fed after slot %d", slot, c.lastSlot)
	}
	var miss error
	for skipped := c.lastSlot + 1; skipped < slot; skipped++ {
		if err := c.settle(skipped); miss == nil {
			miss = err
		}
	}
	c.lastSlot = slot
	for _, j := range segments {
		if j < 1 || j > c.N() {
			return fmt.Errorf("client: transmission of unknown segment %d", j)
		}
		if c.received[j] {
			continue
		}
		if slot <= c.arrival {
			// The customer cannot download before the slot after arrival.
			continue
		}
		c.received[j] = true
		c.pending--
		slack := c.Deadline(j) - slot
		c.qoe.SumSlack += int64(slack)
		c.qoe.MinSlack = min(c.qoe.MinSlack, slack)
		if j == c.from {
			c.qoe.Startup = slot - c.arrival
		}
		if slack >= 0 {
			c.buffered++
			c.maxBuffered = max(c.maxBuffered, c.buffered)
		}
	}
	if err := c.settle(slot); miss == nil {
		miss = err
	}
	return miss
}

// settle passes the deadlines expiring at the end of slot: a received
// segment leaves the buffer, a missing one is a miss. It returns the first
// miss, wrapping ErrMissedDeadline.
func (c *STB) settle(slot int) error {
	var miss error
	for k, t := range c.periods[1 : c.N()-c.from+2] {
		if c.arrival+t != slot {
			continue
		}
		j := c.from + k
		if c.received[j] {
			// Consumed during the next slot; it leaves the buffer now.
			c.buffered--
			continue
		}
		c.qoe.Misses++
		if miss == nil {
			miss = fmt.Errorf("client: segment %d %w slot %d (arrival %d, T=%d)",
				j, ErrMissedDeadline, slot, c.arrival, t)
		}
	}
	if miss != nil {
		if slot != c.lastMissSlot+1 {
			c.qoe.Rebuffers++
		}
		c.lastMissSlot = slot
	}
	return miss
}

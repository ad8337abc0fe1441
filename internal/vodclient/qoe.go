package vodclient

import "vodcast/internal/wire"

// This file is the client half of the QoE observability loop. The STB oracle
// (internal/client) JUDGES a session — any missed deadline is an error and
// the fetch dies. Production set-top boxes cannot afford that: a miss is a
// rebuffer the customer suffers through, and the interesting question is how
// often and how close to the bound delivery runs. qoeTracker therefore
// mirrors the oracle's deadline arithmetic (segment j is due by slot
// AdmitSlot + Periods[j-from+1] for a session resumed at segment from)
// but measures instead of erroring: startup delay, per-segment slack to
// deadline, miss and rebuffer counts, and buffer occupancy. The summary
// becomes the wire.ClientReport shipped back to the server at session end,
// which the server aggregates into its client_* metric families.

// qoeTracker accumulates one session's playback telemetry. It is fed the
// same per-slot transmission lists the STB oracle sees.
type qoeTracker struct {
	admit, from, n int
	periods        []int // 1-based; deadline(j) = admit + periods[j-from+1]
	received       []bool
	receivedCount  int
	minSlack       int
	sumSlack       int64
	startup        int // -1 until the resume segment arrives
	misses         int
	rebuffers      int
	lastMissSlot   int
	buffered       int
	maxBuffered    int
	sessionSlots   int
}

// newQoETracker mirrors client.NewFrom: admit is the admission slot, periods
// the 1-based maximum-period vector, from the resume segment. The caller has
// already validated all three by arming the oracle.
func newQoETracker(admit int, periods []int, from int) *qoeTracker {
	n := len(periods) - 1
	received := make([]bool, n+1)
	for j := 1; j < from; j++ {
		received[j] = true // already watched before the pause
	}
	return &qoeTracker{
		admit: admit, from: from, n: n, periods: periods,
		received: received,
		startup:  -1, lastMissSlot: -2, minSlack: int(^uint(0) >> 1),
	}
}

// deadline reports the last slot segment j may arrive in (j >= from).
func (q *qoeTracker) deadline(j int) int { return q.admit + q.periods[j-q.from+1] }

// seen reports whether segment j is already held (watched before the resume
// point, or received earlier in the session).
func (q *qoeTracker) seen(j int) bool { return j >= 1 && j <= q.n && q.received[j] }

// observeSlot ingests the transmissions of one slot, then settles the
// deadlines that expire with it — the same two-phase order as the oracle, so
// a segment arriving in its deadline slot counts as on time.
func (q *qoeTracker) observeSlot(slot int, segments []int) {
	for _, j := range segments {
		if j < 1 || j > q.n || q.received[j] || slot <= q.admit {
			continue
		}
		q.received[j] = true
		q.receivedCount++
		slack := q.deadline(j) - slot
		q.sumSlack += int64(slack)
		if slack < q.minSlack {
			q.minSlack = slack
		}
		if q.startup < 0 && j == q.from {
			q.startup = slot - q.admit
		}
		if slack >= 0 {
			// On-time segments sit in the buffer until consumption; a late
			// segment is consumed immediately on arrival.
			q.buffered++
			if q.buffered > q.maxBuffered {
				q.maxBuffered = q.buffered
			}
		}
	}
	missed := false
	for j := q.from; j <= q.n; j++ {
		if q.deadline(j) != slot {
			continue
		}
		if q.received[j] {
			q.buffered-- // consumed during the next slot; leaves the buffer now
		} else {
			q.misses++
			missed = true
		}
	}
	if missed {
		// Consecutive miss slots are one continuous stall, not N rebuffers.
		if slot != q.lastMissSlot+1 {
			q.rebuffers++
		}
		q.lastMissSlot = slot
	}
}

// finalize closes the session at endSlot. A session whose resume segment
// never arrived has its startup pinned to the whole session length.
func (q *qoeTracker) finalize(endSlot int) {
	q.sessionSlots = endSlot - q.admit
	if q.sessionSlots < 0 {
		q.sessionSlots = 0
	}
	if q.startup < 0 {
		q.startup = q.sessionSlots
	}
	if q.receivedCount == 0 {
		q.minSlack = 0
	}
}

// needed reports how many segments the session had to deliver.
func (q *qoeTracker) needed() int { return q.n - q.from + 1 }

// meanSlack reports the mean slack-to-deadline over arrived segments.
func (q *qoeTracker) meanSlack() float64 {
	if q.receivedCount == 0 {
		return 0
	}
	return float64(q.sumSlack) / float64(q.receivedCount)
}

// report assembles the wire summary. Call after finalize.
func (q *qoeTracker) report(videoID uint32, traceID, spanID uint64, shared int, payloadBytes int64) wire.ClientReport {
	return wire.ClientReport{
		Version:          wire.ProtoV2,
		VideoID:          videoID,
		TraceID:          traceID,
		SpanID:           spanID,
		AdmitSlot:        uint64(q.admit),
		FromSegment:      uint32(q.from),
		SegmentsNeeded:   uint32(q.needed()),
		SegmentsReceived: uint32(q.receivedCount),
		SharedFrames:     uint32(shared),
		StartupSlots:     uint32(q.startup),
		DeadlineMisses:   uint32(q.misses),
		Rebuffers:        uint32(q.rebuffers),
		MaxBuffered:      uint32(q.maxBuffered),
		SessionSlots:     uint32(q.sessionSlots),
		MinSlackSlots:    int32(q.minSlack),
		SumSlackSlots:    q.sumSlack,
		PayloadBytes:     uint64(payloadBytes),
	}
}

package vodserver

// This file is the per-slot broadcast: the station clock's tick callback
// walks the active videos over the station's spans, encodes each slot once
// and hands the shared frame to the ring of every subscriber that needs the
// slot (one of its segments was assigned there, or it is its last). The
// flush rule (session.go) decides how: at a flush slot the frame is pushed,
// due with every frame held before it, and written to the socket by the
// tick itself when the subscriber's handler is parked with nothing queued,
// or else by the handler, woken for it, in one vectored write; at any other
// needed slot it is held without waking anyone; and a flush slot that
// carries none of the subscriber's segments makes its held frames due
// without a frame.

import (
	"time"

	"vodcast/internal/core"
	"vodcast/internal/fanout"
)

// fanoutTally accumulates one worker's per-tick broadcast accounting,
// merged into the shared atomics and registry counters once per tick. The
// pad keeps adjacent workers' tallies on separate cache lines so the hot
// loop never false-shares.
type fanoutTally struct {
	instances int64
	bytes     int64
	maxDepth  int64
	_         [40]byte
}

// dropHook adapts the fault-injection hook to one video and slot. It is
// only materialized when DropInstance is armed, so the production fan-out
// never allocates a closure per tick.
func (s *Server) dropHook(videoID uint32, slot int) func(segment int) bool {
	if s.cfg.DropInstance == nil {
		return nil
	}
	return func(seg int) bool { return s.cfg.DropInstance(videoID, seg, slot) }
}

// fanOut runs on the station's clock goroutine once per slot, as the slot
// begins: each active video's broadcast instances are encoded exactly once
// into a shared ref-counted frame and one reference is handed to the ring
// of each subscriber that needs the slot (push) — the per-audience cost is
// a pointer, not a copy, plus the socket write the tick makes itself for a
// handler parked with nothing queued; an idle video costs nothing. It walks
// the active videos twice: the first walk encodes and hands the frame to
// every session whose first frame is not yet written, the second to
// everyone else, so a new session's first byte never waits behind the
// tick's steady-state writes. The station walks its active videos span by
// span — on its pool when there is more than one span, the clock only
// dispatching and joining — and per-worker tallies merge into the shared
// counters once per tick, so the hot loops touch no shared cache line and
// take no lock but each ring's own.
func (s *Server) fanOut() {
	t0 := time.Now()
	defer func() { s.fanout.Observe(time.Since(t0).Seconds()) }()
	if s.closed.Load() {
		return
	}
	s.station.EachActive(s.walks[0])
	s.station.EachActive(s.walks[1])
	var instances, bytes, maxDepth int64
	for i := range s.tallies {
		t := &s.tallies[i]
		instances += t.instances
		bytes += t.bytes
		if t.maxDepth > maxDepth {
			maxDepth = t.maxDepth
		}
		*t = fanoutTally{}
	}
	s.mInstances.Add(float64(instances))
	s.mBroadcastBytes.Add(float64(bytes))
	s.ringDepth.Record(float64(maxDepth))
}

// firstFrames is the tick's first walk over one active video: encode the
// slot it begins once, keep the frame on the record for the second walk,
// and hand it to the subscribers whose first frame is not yet written.
// worker indexes the tally; the only locks taken are each ring's own.
func (s *Server) firstFrames(worker, video int, rep core.SlotReport) bool {
	v := &s.vlist[video]
	r := v.rec.Load()
	if r == nil {
		return false // unreachable: admit builds the record before the station admits
	}
	tally := &s.tallies[worker]
	r.load.Set(float64(rep.Load))
	tally.instances += int64(rep.Load)
	r.slot.Store(int64(rep.Slot))
	frame, err := s.enc.EncodeSlot(v.cfg.ID, rep.Slot, rep.Segments, s.dropHook(v.cfg.ID, rep.Slot))
	if err != nil {
		return false // unreachable: the catalogue was built from the same configs
	}
	tally.bytes += frame.PayloadBytes()
	r.frame = frame
	for _, sub := range r.subs.Snapshot() {
		if !sub.firstSent.Load() {
			push(tally, sub, frame, rep.Slot)
		}
	}
	return true
}

// steadyFrames is the second walk: hand the frame to every subscriber the
// first walk skipped, drop the encoder's reference, then retire the
// subscribers whose last slot this was, collected on the way so the push
// loop stays tight. It reports whether the video still has an audience:
// that, not a subscriber's last slot (maybe still the placeholder), keeps a
// drained video active.
func (s *Server) steadyFrames(worker, video int, rep core.SlotReport) bool {
	r := s.vlist[video].rec.Load()
	if r == nil || r.frame == nil {
		return false // the first walk encoded nothing
	}
	frame := r.frame
	r.frame = nil
	tally := &s.tallies[worker]
	retire := s.retire[worker][:0]
	for _, sub := range r.subs.Snapshot() {
		if sub.pushed != rep.Slot {
			push(tally, sub, frame, rep.Slot)
		}
		if int64(rep.Slot) >= sub.lastSlot.Load() {
			retire = append(retire, sub)
		}
	}
	// Subscribers now hold their references and the frame recycles once
	// the last write completes.
	frame.Release()
	for _, sub := range retire {
		// The queued tail still drains; the handler's write deadline bounds
		// how long it may take. Close is a no-op on a dropped ring.
		r.subs.Remove(sub)
		sub.ring.Close()
	}
	s.retire[worker] = retire[:0]
	return r.subs.Len() > 0
}

// push hands the slot to a subscriber's ring by the flush rule (wants): a
// needed slot's frame is held when the slot is not a flush slot and pushed
// when it is — written at once if the handler is parked with nothing due —
// and a flush slot the subscriber needs no frame of flushes its held frames
// alone. Only what becomes due feeds the depth signals: a held frame is not
// a backlog.
func push(tally *fanoutTally, sub *subscriber, frame *fanout.Frame, slot int) {
	sub.pushed = slot
	var depth int
	switch want, flush := sub.wants(slot); {
	case want && !flush:
		frame.Retain()
		if !sub.ring.Hold(frame) {
			frame.Release() // closed, as below
		}
		return
	case want:
		frame.Retain()
		var ok bool
		if depth, ok = sub.ring.Push(frame); !ok {
			// Closed: the handler dropped the ring after a failed write,
			// or the server is shutting down.
			frame.Release()
			return
		}
	case flush:
		depth = sub.ring.Flush()
	default:
		return
	}
	sub.ct.RecordPush(depth)
	if int64(depth) > tally.maxDepth {
		tally.maxDepth = int64(depth)
	}
}

// latePath names the side that made a write, the label of
// vod_late_writes_total: the tick's direct write or the handler's drain.
type latePath uint8

const (
	lateByTick latePath = iota
	lateByHandler
	numLatePaths
)

func (p latePath) String() string {
	return [numLatePaths]string{"tick", "handler"}[p]
}

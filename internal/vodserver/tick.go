package vodserver

// This file is the per-slot broadcast: the station clock's tick callback
// walks the active videos over the station's spans, encodes each slot once
// and hands the shared frame to the ring of every subscriber that needs the
// slot (one of its segments was assigned there, or it is its last). The
// flush rule (session.go) decides how: at a flush slot the frame is pushed,
// due with every frame held before it, and the ring writes them to the
// socket at once in one vectored write; at any other needed slot it is
// held; and a flush slot that carries none of the subscriber's segments
// makes its held frames due without a frame. After both walks a service
// pass over each span's listed sessions retries short writes, cuts what is
// still queued at a session's bound, reads reports and closes sockets: the
// tick is every session's only writer, and ends it.

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
// begins, with the slot's reports: each active video's broadcast instances
// are encoded exactly once into a shared ref-counted frame and one reference
// is handed to the ring of each subscriber that needs the slot (push) — the
// per-audience cost is a pointer, not a copy, plus the socket write of a
// flush; an idle video costs nothing. It walks
// the active videos twice: the first walk encodes and hands the frame to
// every session whose first frame is not yet written, the second to
// everyone else, so a new session's first byte never waits behind the
// tick's steady-state writes. The station walks its active videos span by
// span — on its pool when there is more than one span, the clock only
// dispatching and joining — and per-worker tallies merge into the shared
// counters once per tick, so the hot loops touch no shared cache line and
// take no lock but each ring's own. The service pass (serveListed) follows
// the walks.
func (s *Server) fanOut(reports []core.SlotReport) {
	t0 := time.Now()
	defer func() { s.fanout.Observe(time.Since(t0).Seconds()) }()
	if s.closed.Load() {
		return
	}
	if len(reports) > 0 {
		s.slot.Store(int64(reports[0].Slot))
	}
	s.station.EachActive(s.walks[0])
	s.station.EachActive(s.walks[1])
	s.serveListed(t0)
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
// first walk skipped, list for the service pass each whose write came up
// short, and retire — and list — those whose last slot this was; then drop
// the encoder's reference. It reports whether the video still has an
// audience: that, not a subscriber's last slot (maybe still the
// placeholder), keeps a drained video active.
func (s *Server) steadyFrames(worker, video int, rep core.SlotReport) bool {
	r := s.vlist[video].rec.Load()
	if r == nil || r.frame == nil {
		return false // the first walk encoded nothing
	}
	frame := r.frame
	r.frame = nil
	tally := &s.tallies[worker]
	for _, sub := range r.subs.Snapshot() {
		if sub.pushed != rep.Slot {
			push(tally, sub, frame, rep.Slot)
		}
		if int64(rep.Slot) >= sub.lastSlot.Load() {
			// The queued tail is still written; the session's bound limits
			// how long that may take.
			r.subs.Remove(sub)
			sub.ring.Close()
			sub.retired = true
			s.enlist(worker, sub)
		} else if !sub.listed && sub.handed.Load() && sub.backlog {
			s.enlist(worker, sub)
		}
	}
	// Subscribers now hold their references and the frame recycles once
	// the last write completes.
	frame.Release()
	return r.subs.Len() > 0
}

// enlist puts sub on span worker's service list, once.
func (s *Server) enlist(worker int, sub *subscriber) {
	if !sub.listed {
		sub.listed = true
		s.service[worker] = append(s.service[worker], sub)
	}
}

// serveListed is the tick's service pass, after both walks: every listed
// session is tended, and leaves its span's list once nothing more is due.
func (s *Server) serveListed(now time.Time) {
	for w, list := range s.service {
		keep := list[:0]
		for _, sub := range list {
			if s.tend(sub, now) {
				keep = append(keep, sub)
			} else {
				sub.listed = false
			}
		}
		clear(list[len(keep):])
		s.service[w] = keep
	}
}

// tend is one service-pass visit to a listed session; it reports whether
// the session needs the next pass too. It retries a short write's rest; a
// backlog still queued at the session's bound is cut, counted under the
// connection's last transport state, and a failed client is hung up on. A
// retired session with every byte out reads its report from the tick after
// its last slot, which the client answers, until the report is in, the
// client closes or the bound passes.
func (s *Server) tend(sub *subscriber, now time.Time) bool {
	if !sub.handed.Load() {
		return sub.retired
	}
	if sub.backlog {
		sub.ct.RecordPush(sub.ring.Write(sub))
	}
	switch {
	case sub.failed:
	case sub.backlog:
		if now.Before(sub.until) {
			return true
		}
		s.mDroppedBy[sub.ct.State()].Inc()
	case !sub.retired:
		return false
	case sub.wantReport && !sub.reading:
		sub.reading = true
		return true
	case sub.wantReport:
		if !s.readReport(sub) && now.Before(sub.until) {
			return true
		}
	}
	s.hangUp(sub)
	return false
}

// push hands the slot to a subscriber's ring by the flush rule (wants): a
// needed slot's frame is held when the slot is not a flush slot and pushed
// — written at once, with everything queued ahead of it — when it is, and a
// flush slot the subscriber needs no frame of flushes its held frames
// alone. Only a flush feeds the depth signals, with what its write left
// queued: a held frame is not a backlog.
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
			// Closed: the session was hung up on, or the server is
			// shutting down.
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

// latePath names the write that finished a frame, the label of
// vod_late_writes_total: a flush's own write, or a retry — a later write
// that finished what a short one left.
type latePath uint8

const (
	lateByTick latePath = iota
	lateByRetry
	numLatePaths
)

func (p latePath) String() string {
	return [numLatePaths]string{"tick", "retry"}[p]
}

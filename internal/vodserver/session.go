package vodserver

// This file is one connection's life, which no goroutine of its own serves:
// the slot clock is the only goroutine that touches a session. Its socket is
// a raw non-blocking descriptor outside the runtime poller, as is the
// listener it came from. As each slot ends, just before the clock advances,
// the clock accepts every connection queued on the listener (on Linux the
// kernel queues one only once its request has arrived), reads each request
// and admits it, and retries the requests an earlier tick found incomplete
// (admitArrivals). A request that arrives in slot i is therefore admitted in
// slot i, as it would be on arrival: DHB places it only in slots i+1 and
// later. From then on the tick writes the session, its ScheduleInfo ahead of
// its first frame, retries a short write, cuts it at its bound, reads its
// report and closes it (tick.go).
//
// A session is written only when a deadline forces it. The set-top box
// buffers every segment that arrives before its consumption slot, so an
// instance placed in slot s for a deadline d > s may reach the customer at
// any time in [s, d]. Admission derives a flush set beside the need set:
// slot k is a flush slot if it is the subscription's last, or if a segment
// of a frame still held has its deadline admit + T[j-from+1] at k. The tick
// holds the frames of the other needed slots in the ring, and at a flush
// slot they leave with that slot's frame in one vectored write. Slot admit+1
// is always a flush slot (T[1] = 1), so the first byte does not move; on
// the `audience` mix a frame is held up to about 35 slots.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"syscall"
	"time"

	"vodcast/internal/conntrack"
	"vodcast/internal/core"
	"vodcast/internal/fanout"
	"vodcast/internal/obs"
	"vodcast/internal/wire"
)

// subscriber is one session. The clock goroutine owns every field: during a
// tick's walks the span worker whose span holds the session's video stands
// in for it, and the pool's join orders the two.
type subscriber struct {
	// fd is the session's socket, -1 once closed.
	fd   int
	peer syscall.Sockaddr
	// in buffers what the client sends, n bytes of it read: the request,
	// then the report, whose start may come with the request.
	in [readBufferSize]byte
	n  int
	// until bounds the request read and, once admitted, the writes and the
	// report read: the last segment deadline plus the read bound.
	until time.Time
	// head is the ScheduleInfo's unsent rest, written ahead of the frames.
	head []byte
	// ring queues shared frame references for WriteDirect. The tick closes
	// it at lastSlot, so it never holds more than the subscription's span.
	ring *fanout.Ring
	// lastSlot is the final slot this subscriber needs.
	lastSlot int
	// need is the set of slots that carry an instance assigned to this
	// subscriber and flush the slots whose tick makes its held frames due
	// (needFlushSets); bit k marks slot needFrom+k, needFrom being the admit
	// slot. The two share one allocation.
	need, flush []uint64
	needFrom    int
	// admitted stamps the admission for the first-byte latency window.
	admitted time.Time
	// rec is the video's record: its subscriber set and report counters.
	rec *videoRecord
	// ct is the transport telemetry handle; a cut reads its last classified
	// state as the disconnect reason.
	ct  *conntrack.Conn
	iov []iovec // WriteDirect's scratch
	// wait, root and trace are set at the handover: the spans the first
	// frame written whole ends, and the trace id the report must echo.
	wait, root *obs.Span
	trace      uint64
	// srv is the server, for the first-byte window and the late-write count
	// and marks (wrote).
	srv *Server
	// firstSent latches once the session's first frame is written whole,
	// late at its first late write. backlog reports that the last write
	// left bytes unsent, failed that it met an error other than a full
	// socket; WriteDirect sets both.
	firstSent, late, backlog, failed bool
	// pushed is the last slot the tick handed the subscriber (0 before any);
	// the rest is the service pass's state (tend).
	pushed                               int
	listed, retired, reading, wantReport bool
}

// WriteDirect is the session's write (fanout.Writer): one non-blocking
// vectored write of the ScheduleInfo's unsent rest and of frames, skip bytes
// into the first. The ring calls it only with frames due, so the
// ScheduleInfo leaves with the first flush, at slot admit+1. A full socket
// costs one EAGAIN; what is not finished stays queued for the next flush or
// retry.
func (sub *subscriber) WriteDirect(frames []*fanout.Frame, skip int) (done, sent int) {
	path := lateByTick
	if sub.backlog {
		path = lateByRetry
	}
	iov := sub.iov[:0]
	if len(sub.head) > 0 {
		iov = append(iov, makeIovec(sub.head))
	}
	for i, f := range frames {
		if len(iov) == maxIOV {
			break
		}
		b := f.Bytes()
		if i == 0 {
			b = b[skip:]
		}
		iov = append(iov, makeIovec(b))
	}
	n := 0
	if !sub.failed {
		var err error
		n, err = writev(sub.fd, iov)
		sub.failed = err != nil && err != syscall.EAGAIN
	}
	sub.iov = iov
	clear(iov) // the frames' buffers go back to the pool
	if h := len(sub.head); h > 0 {
		if n < h {
			sub.head = sub.head[n:]
			sub.backlog = true
			return 0, skip
		}
		n -= h
		sub.head = nil
	}
	var bytes int64
	for i, f := range frames {
		b := len(f.Bytes())
		if i == 0 {
			b -= skip
		}
		if n < b {
			if sent = n; i == 0 {
				sent += skip
			}
			break
		}
		n -= b
		bytes += int64(b)
		done++
	}
	sub.backlog = done < len(frames) || sub.failed
	if done > 0 {
		sub.wrote(done, bytes, frames[0].Slot(), path)
	}
	return done, sent
}

// maxIOV is the most buffers one writev(2) takes (IOV_MAX on Linux and
// macOS); frames past it stay queued for the next write.
const maxIOV = 1024

// wrote accounts frames handed to the kernel whole, n bytes in all, the
// first of them for slot first, on whichever side wrote them (path):
// conntrack's drain signal; for the session's first frame, the first-byte
// observation and the end of the admit spans, exactly once; and a write
// that completed after its deadline passed (checkLate).
func (sub *subscriber) wrote(frames int, n int64, first int, path latePath) {
	sub.ct.RecordDrain(frames, n)
	if !sub.firstSent {
		sub.firstSent = true
		sub.srv.firstByte.Observe(time.Since(sub.admitted).Seconds())
		sub.wait.End()
		sub.root.End()
	}
	sub.checkLate(first, path)
}

// checkLate counts a write as late when the tick has already begun a slot
// past its deadline: the first flush slot at or after its first frame's
// slot, by which the flush rule must have written that frame. The first
// late write of a session marks its conntrack record and, when the session
// is sampled, records a late_write span under its admit root. A subscriber
// without a flush set (built by hand in tests) has no deadlines.
func (sub *subscriber) checkLate(first int, path latePath) {
	if sub.flush == nil {
		return
	}
	due := sub.deadline(first)
	s := sub.srv
	if s.slot <= due {
		return
	}
	s.mLateWrites[path].Inc()
	if sub.late {
		return
	}
	sub.late = true
	sub.ct.RecordLate()
	if id := sub.root.ID(); id != 0 {
		s.spans.RecordChild(id, "late_write", s.spans.Now(), 0, sub.rec.id, map[string]string{
			"path": path.String(), "deadline": strconv.Itoa(due), "slot": strconv.Itoa(s.slot)})
	}
}

// deadline is the first flush slot at or after slot, which is past the
// admit slot: the slot by which a frame for slot is written.
func (sub *subscriber) deadline(slot int) int {
	k := slot - sub.needFrom
	for w := k / 64; w < len(sub.flush); w++ {
		word := sub.flush[w]
		if w == k/64 {
			word &^= 1<<(k%64) - 1
		}
		if word != 0 {
			return sub.needFrom + 64*w + bits.TrailingZeros64(word)
		}
	}
	return sub.lastSlot
}

// wants reports what the tick does with slot's frame for sub, slot being
// past the admit slot: want is whether the slot carries an instance assigned
// to the subscriber, flush whether its held frames are due. The last slot,
// whose tick retires the subscriber, is both. A slot not wanted carries none
// of the customer's assigned instances; its set-top box settles it as empty
// (client.STB.ObserveSlot).
func (sub *subscriber) wants(slot int) (want, flush bool) {
	if slot >= sub.lastSlot {
		return true, true
	}
	k := slot - sub.needFrom
	bit := uint64(1) << (k % 64)
	return sub.need[k/64]&bit != 0, sub.flush[k/64]&bit != 0
}

// needFlushSets builds a subscriber's need and flush sets in one
// allocation, from its admission's serving-slot vector: one bit per slot
// from the admit slot on, over the subscription's len(due) slots. The need
// set marks the slot of each segment from from on. The flush set marks the
// last slot, and every slot at which a segment of a frame not yet flushed
// reaches its deadline, admitSlot + periods[j-from] (the shifted period
// T[j-from+1]); a flush sends every frame held so far. due is scratch: for
// each slot, the earliest deadline among the segments it serves.
func needFlushSets(assignment []int, from, admitSlot int, periods []uint32, due []int) (need, flush []uint64) {
	slots := len(due)
	words := (slots + 63) / 64
	sets := make([]uint64, 2*words)
	need, flush = sets[:words:words], sets[words:]
	for k := range due {
		due[k] = slots
	}
	for j, a := range assignment[from:] {
		k := a - admitSlot
		need[k/64] |= 1 << (k % 64)
		due[k] = min(due[k], int(periods[j]))
	}
	// next is the earliest deadline among the frames held since the last
	// flush; slots, past the last slot, when none is.
	next := slots
	for k := 1; k < slots; k++ {
		next = min(next, due[k])
		if next <= k || k == slots-1 {
			flush[k/64] |= 1 << (k % 64)
			next = slots
		}
	}
	return need, flush
}

// readBufferSize fits a request and a client report together (33 + 91
// bytes), the only frames a client sends.
const readBufferSize = 128

// readTimeout bounds every read the server waits on a client for — the
// request frame and the end-of-session report: four slots, at least a second.
// It is also a session's write slack past its last deadline.
func (s *Server) readTimeout() time.Duration {
	return max(4*s.cfg.SlotDuration, time.Second)
}

// admitArrivals is the clock's hook, run while the slot is still current,
// just before the advance. It retries the connections whose request had not
// all arrived, then accepts every connection queued on the listener and
// reads its request: each request whole by now is admitted in this slot,
// and the rest wait in pending for the next tick. An accept error other than
// an empty queue or a client that gave up — EMFILE in a burst, say — ends
// this tick's accepting, and the next tick tries again. It also stamps the
// tick's start, from which vod_fanout_seconds counts.
func (s *Server) admitArrivals() {
	now := time.Now()
	s.tickStart = now
	keep := s.pending[:0]
	for _, sub := range s.pending {
		if !s.readRequest(sub) {
			keep = append(keep, sub)
		}
	}
	clear(s.pending[len(keep):])
	s.pending = keep
	for {
		fd, peer, err := s.ln.accept(s.ln.fd)
		switch {
		case err == nil:
			sub := &subscriber{fd: fd, peer: peer, until: now.Add(s.readTimeout())}
			if !s.readRequest(sub) {
				s.pending = append(s.pending, sub)
			}
		case err == syscall.ECONNABORTED || err == syscall.EINTR:
		default:
			return
		}
	}
}

// readRequest reads what has arrived of sub's request and serves it once
// whole (serveRequest); a first frame of any other type is refused. It
// reports false while the request is still due — it has not all arrived and
// sub.until has not passed — and true once the connection is served or
// closed.
func (s *Server) readRequest(sub *subscriber) bool {
	msg, wait := sub.readFrame()
	switch req, ok := msg.(wire.Request); {
	case ok:
		s.serveRequest(sub, req)
	case msg != nil || sub.n > 0 && wire.MsgType(sub.in[0]) != wire.TypeRequest:
		s.reject(sub, "expected a request frame")
	case wait && time.Now().Before(sub.until):
		return false
	default:
		sub.close()
	}
	return true
}

// readFrame reads what has arrived on sub's socket, unless a whole frame is
// already buffered, and takes the first frame out of the buffer once it is
// whole: msg is its message (nil if it does not decode). Until then wait
// reports whether more may come: not once the client has closed or failed,
// or the frame cannot fit the buffer.
func (sub *subscriber) readFrame() (msg any, wait bool) {
	size, whole := frameLen(sub.in[:sub.n])
	if !whole {
		n, err := readFD(sub.fd, sub.in[sub.n:])
		sub.n += n
		if size, whole = frameLen(sub.in[:sub.n]); !whole {
			return nil, (n > 0 || err == syscall.EAGAIN) && size <= len(sub.in)
		}
	}
	msg, _ = wire.ReadFrame(bytes.NewReader(sub.in[:size]))
	sub.n = copy(sub.in[:], sub.in[size:sub.n])
	return msg, false
}

// frameLen reports the length of the wire frame at the start of b, header
// included, once its header is in b (0 before), and whether all of it is.
func frameLen(b []byte) (int, bool) {
	if len(b) < 5 {
		return 0, false
	}
	n := 5 + int(binary.BigEndian.Uint32(b[1:5]))
	return n, len(b) >= n
}

// serveRequest admits req and hands the session to the tick (handOver).
func (s *Server) serveRequest(sub *subscriber, req wire.Request) {
	// The root span covers the whole pipeline from admit to the first
	// fan-out byte reaching this subscriber; an unsampled request gets a
	// nil span and every operation below is a no-op.
	root := s.spans.StartSpan("admit")
	root.SetVideo(req.VideoID)
	info, err := s.admit(sub, req.VideoID, req.FromSegment, root)
	if err != nil {
		s.mRejects.Inc()
		root.SetAttr("reject", err.Error())
		root.End()
		s.reject(sub, err.Error())
		return
	}
	s.handOver(sub, info, req.Flags, root)
}

// handOver hands an admitted session to the tick: it encodes the
// ScheduleInfo, which WriteDirect sends ahead of the first frame, and lends
// the ring the session's write, with nothing due yet. flags alone decide
// whether the session owes a report and carries trace ids.
func (s *Server) handOver(sub *subscriber, info wire.ScheduleInfo, flags uint16, root *obs.Span) {
	sub.wantReport = flags&wire.FlagNoReport == 0
	if flags&wire.FlagNoTrace == 0 {
		// The client echoes these in its report, whose playback joins the
		// admit span's tree; an unsampled root hands out zero.
		info.TraceID, info.SpanID = root.ID(), root.ID()
	}
	var head bytes.Buffer
	_ = wire.WriteFrame(&head, info) // it cannot fail: admit built info from a validated catalogue
	sub.head, sub.trace = head.Bytes(), info.TraceID
	sub.wait, sub.root = root.Child("first_byte_wait"), root
	sub.ring.Write(sub)
}

// reject answers a request the server refuses with an ErrorMsg, one
// non-blocking write, and closes the connection.
func (s *Server) reject(sub *subscriber, text string) {
	var msg bytes.Buffer
	if wire.WriteFrame(&msg, wire.ErrorMsg{Text: text}) == nil {
		writeFD(sub.fd, msg.Bytes())
	}
	sub.close()
}

// readReport reads what has arrived of the ClientReport a session owes and,
// once it is whole, folds it in (ingestReport). A report must name the
// session's video and echo the trace ids of its ScheduleInfo; any other is
// discarded, so no client can graft spans onto another session's admit
// trace. It reports false while the report is still due.
func (s *Server) readReport(sub *subscriber) bool {
	msg, wait := sub.readFrame()
	if rep, ok := msg.(wire.ClientReport); ok &&
		rep.VideoID == sub.rec.id && rep.TraceID == sub.trace && rep.SpanID == sub.trace {
		s.ingestReport(sub.rec, rep)
	}
	return msg != nil || !wait
}

// admit admits a request through the station and registers its
// subscription. fromSegment above 1 resumes interactive playback there (0
// and 1 mean a full viewing).
//
// It runs on the clock, before the advance: the admission lands in the slot
// still current, and the subscriber joins its video's set whole — its need
// and flush sets and its last slot final — before the tick that begins the
// next slot, whose frame carries the customer's first segment.
//
// root, when sampled, gains a station_admit child covering the scheduler
// call (whose lock wait and service time the station's stage summaries
// break down further); the child carries the admission's slot and the
// number of instances it placed.
//
// admit sets sub.until to when the session's writes and its report read
// must be done: the wall time of its last deadline plus readTimeout.
func (s *Server) admit(sub *subscriber, videoID, fromSegment uint32, root *obs.Span) (info wire.ScheduleInfo, err error) {
	v, ok := s.videos[videoID]
	if !ok {
		return info, fmt.Errorf("unknown video %d", videoID)
	}
	from := int(fromSegment)
	if from == 0 {
		from = 1
	}
	if from > v.cfg.Segments {
		return info, fmt.Errorf("resume segment %d beyond %d", from, v.cfg.Segments)
	}
	rec := s.record(v)
	// The serving-slot vector is n+1 ints, 8 KB on a 1000-segment video, so
	// admissions share pooled buffers, which also carry needFlushSets'
	// per-slot scratch past the vector; only the sets built from them are
	// kept.
	buf, _ := s.assignments.Get().(*[]int)
	if buf == nil {
		buf = &[]int{}
	}
	defer s.assignments.Put(buf)
	span := root.Child("station_admit")
	res, err := s.station.Admit(v.idx, core.AdmitOptions{From: from, Assignment: *buf})
	if span != nil && err == nil {
		// Formatted only for sampled trees: the unsampled admit path stays
		// allocation-free here.
		span.SetAttr("slot", strconv.Itoa(res.Slot))
		span.SetAttr("placed", strconv.Itoa(res.Placed))
	}
	span.End()
	if err != nil {
		return info, err
	}
	// The subscription spans the admit slot through its last deadline: the
	// largest shifted period of the remaining suffix. It ends once that
	// deadline passes, within slots slot durations of the admission.
	admitSlot := res.Slot
	slots := rec.maxPeriod[v.cfg.Segments-from+1] + 1
	*buf = slices.Grow(res.Assignment, slots)
	n := len(res.Assignment)
	sub.need, sub.flush = needFlushSets((*buf)[:n], from, admitSlot, rec.wirePeriods, (*buf)[n:n+slots])
	sub.needFrom, sub.lastSlot = admitSlot, admitSlot+slots-1
	sub.ring, sub.admitted, sub.rec, sub.srv = fanout.NewRing(slots), time.Now(), rec, s
	sub.until = sub.admitted.Add(time.Duration(slots)*s.cfg.SlotDuration + s.readTimeout())
	var remote string
	if sub.peer != nil {
		remote = tcpAddr(sub.peer).String()
	}
	sub.ct = s.ct.Register(remote, sub.fd, videoID, slots)
	// Close takes the sets over only once the clock, the one admitter, has
	// stopped, so Add cannot refuse.
	rec.subs.Add(sub)
	s.mRequests.Inc()

	info = wire.ScheduleInfo{
		VideoID:      videoID,
		Segments:     uint32(v.cfg.Segments),
		SlotMillis:   uint32(s.cfg.SlotDuration / time.Millisecond),
		SegmentBytes: uint32(v.cfg.SegmentBytes),
		AdmitSlot:    uint64(admitSlot),
		Version:      wire.ProtoV2,
		Periods:      rec.wirePeriods,
		SegmentSizes: rec.wireSizes,
	}
	return info, nil
}

// unsubscribe ends a subscription: it leaves the video's set if a tick
// retirement or server Close has not already taken it, stops its telemetry
// — so no sweep reads the socket past here — and Drops the ring so every
// queued frame reference returns to the pool and the socket is never
// written again. Each step is idempotent.
func (s *Server) unsubscribe(sub *subscriber) {
	sub.rec.subs.Remove(sub)
	s.ct.Unregister(sub.ct)
	sub.ring.Drop()
}

// hangUp ends an admitted session, on the tick or, once the clock has
// stopped, on Close: it unsubscribes, ends the admit spans of a session
// whose first byte never went out, and closes the socket. Idempotent.
func (s *Server) hangUp(sub *subscriber) {
	s.unsubscribe(sub)
	sub.wait.End()
	sub.root.End()
	sub.close()
}

// close closes the socket once.
func (sub *subscriber) close() {
	if sub.fd >= 0 {
		closeFD(sub.fd)
		sub.fd = -1
	}
}

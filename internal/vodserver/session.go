package vodserver

// This file is one connection's life, which no goroutine of its own serves.
// The socket is a raw non-blocking descriptor outside the runtime poller.
// The accept goroutine reads the request (on Linux accept waits for it),
// admits it and writes the ScheduleInfo; a request not yet whole is retried
// by the clock before it advances, so one that arrives in slot i is still
// admitted in slot i. From then on the tick writes the session, retries a
// short write, cuts it at its bound, reads its report and closes it (tick.go):
// a session wakes the server once, at its accept.
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
	"errors"
	"fmt"
	"math"
	"math/bits"
	"net"
	"slices"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"vodcast/internal/conntrack"
	"vodcast/internal/core"
	"vodcast/internal/fanout"
	"vodcast/internal/obs"
	"vodcast/internal/wire"
)

type subscriber struct {
	// fd is the session's socket, -1 once closed: the accept goroutine's
	// until the handover (handed), the tick's from then on.
	fd   int
	peer syscall.Sockaddr
	// in buffers what the client sends, n bytes of it read: the request,
	// then the report, whose start may come with the request.
	in [readBufferSize]byte
	n  int
	// until bounds the request read and, once admitted, the writes and the
	// report read: the last segment deadline plus the read bound.
	until time.Time
	// head is the ScheduleInfo's unsent rest, written ahead of any frame.
	head []byte
	// ring queues shared frame references for WriteDirect. The tick closes
	// it at lastSlot, so it never holds more than the subscription's span.
	ring *fanout.Ring
	// lastSlot is the final slot this subscriber needs. It starts at
	// math.MaxInt64 (registration precedes admission) and is stored once,
	// after the admission reaches the scheduler; tick workers read it
	// lock-free.
	lastSlot atomic.Int64
	// need is the set of slots that carry an instance assigned to this
	// subscriber and flush the slots whose tick makes its held frames due
	// (needFlushSets); bit k marks slot needFrom+k, needFrom being the admit
	// slot. The two share one allocation. admit writes them before it
	// stores lastSlot, which publishes them: tick workers read them only
	// after a load that is not the placeholder (wants).
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
	// admitSlot, wait, root and trace are set before the handover: the
	// admit-slot filter, the spans the first frame written whole ends, and
	// the trace id the report must echo.
	admitSlot  int
	wait, root *obs.Span
	trace      uint64
	// firstSent latches once the session's first frame is written whole.
	firstSent atomic.Bool
	// srv is the server, for the first-byte window and the late-write count
	// and marks (wrote); late latches at the session's first late write.
	srv  *Server
	late atomic.Bool
	// handed latches at the handover. backlog reports that the last write
	// left bytes unsent, failed that it met an error other than a full
	// socket; WriteDirect sets both, and the tick reads them once handed.
	handed          atomic.Bool
	backlog, failed bool
	// The tick alone touches the rest: pushed, the last slot it handed the
	// subscriber (0 before any), and the service pass's state (tend).
	pushed                               int
	listed, retired, reading, wantReport bool
}

// WriteDirect is the session's write (fanout.Writer): one non-blocking
// vectored write of the ScheduleInfo's unsent rest and of frames, skip bytes
// into the first. A full socket costs one EAGAIN; what is not finished stays
// queued for the next flush or retry. A frame at or before the admit slot is
// done with unwritten: the customer's service starts one slot after it.
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
		if f.Slot() > sub.admitSlot && len(iov) < maxIOV {
			b := f.Bytes()
			if i == 0 {
				b = b[skip:]
			}
			iov = append(iov, makeIovec(b))
		}
	}
	n := 0
	if len(iov) > 0 && !sub.failed {
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
	whole, first := 0, 0
	var bytes int64
	for i, f := range frames {
		if f.Slot() > sub.admitSlot {
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
			if whole == 0 {
				first = f.Slot()
			}
			whole++
		}
		done++
	}
	sub.backlog = done < len(frames) || sub.failed
	if whole > 0 {
		sub.wrote(whole, bytes, first, path)
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
	if sub.firstSent.CompareAndSwap(false, true) {
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
	now := int(sub.srv.slot.Load())
	if now <= due {
		return
	}
	s := sub.srv
	s.mLateWrites[path].Inc()
	if !sub.late.CompareAndSwap(false, true) {
		return
	}
	sub.ct.RecordLate()
	if id := sub.root.ID(); id != 0 {
		s.spans.RecordChild(id, "late_write", s.spans.Now(), 0, sub.rec.id, map[string]string{
			"path": path.String(), "deadline": strconv.Itoa(due), "slot": strconv.Itoa(now)})
	}
}

// deadline is the first flush slot at or after slot: the slot by which a
// frame for slot is written. A slot at or before the admit slot, which the
// write skips, reads as the first flush slot, admit+1. The sets are
// published (lastSlot is stored) before the handover.
func (sub *subscriber) deadline(slot int) int {
	k := max(slot-sub.needFrom, 0)
	for w := k / 64; w < len(sub.flush); w++ {
		word := sub.flush[w]
		if w == k/64 {
			word &^= 1<<(k%64) - 1
		}
		if word != 0 {
			return sub.needFrom + 64*w + bits.TrailingZeros64(word)
		}
	}
	return int(sub.lastSlot.Load())
}

// wants reports what the tick does with slot's frame for sub: want is
// whether the slot carries an instance assigned to the subscriber, flush
// whether its held frames are due. Every slot is both while lastSlot is
// still the placeholder, and so is the last, whose tick retires the
// subscriber. A slot not wanted carries none of the customer's assigned
// instances; its set-top box settles it as empty (client.STB.ObserveSlot).
func (sub *subscriber) wants(slot int) (want, flush bool) {
	last := sub.lastSlot.Load()
	if last == math.MaxInt64 || int64(slot) >= last {
		return true, true
	}
	k := slot - sub.needFrom
	if k < 0 {
		return false, false
	}
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

// acceptSessions reads and serves the listener's connections until Close
// closes it. Any other accept error — EMFILE in a burst, say — leaves the
// listener readable, so the loop backs off, 5 ms doubling to at most a
// second as net/http's Server.Serve does: it never ends service or spins.
func (s *Server) acceptSessions() {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		fd, peer, err := s.ln.next()
		switch {
		case err == nil:
			// The request normally arrived with the connection
			// (deferAccept); one that has not waits for the clock's retry.
			backoff = 0
			sub := &subscriber{fd: fd, peer: peer, until: time.Now().Add(s.readTimeout())}
			if !s.readRequest(sub) {
				s.pendMu.Lock()
				s.pending = append(s.pending, sub)
				s.pendMu.Unlock()
			}
		case errors.Is(err, net.ErrClosed):
			return
		case err == syscall.ECONNABORTED || err == syscall.EINTR:
			// The client gave up before accept: nothing to back off from.
		default:
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			select {
			case <-time.After(backoff):
			case <-s.done:
				return
			}
		}
	}
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

// retryRequests runs on the clock before each advance: it reads on the
// connections whose request had not arrived whole, so one that has since
// arrived is admitted in the slot it arrived in.
func (s *Server) retryRequests() {
	s.pendMu.Lock()
	defer s.pendMu.Unlock()
	keep := s.pending[:0]
	for _, sub := range s.pending {
		if !s.readRequest(sub) {
			keep = append(keep, sub)
		}
	}
	clear(s.pending[len(keep):])
	s.pending = keep
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

// handOver writes an admitted session's ScheduleInfo, with any frame a tick
// already made due behind it (a short write's rest rides the next flush),
// and hands the session to the tick. flags alone decide whether the session
// owes a report and carries trace ids.
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
	sub.admitSlot, sub.wait, sub.root = int(info.AdmitSlot), root.Child("first_byte_wait"), root
	sub.ring.Write(sub)
	sub.handed.Store(true)
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

// admit registers a subscription and admits the request through the
// station. fromSegment above 1 resumes interactive playback there (0 and 1
// mean a full viewing).
//
// The subscription is registered BEFORE the admission reaches the
// scheduler, so the subscriber provably receives every slot after the admit
// slot that it needs: the clock begins the next slot, whose frame carries
// the customer's first segment, only after the admission completes, which
// is after registration. Until the need set is published the tick pushes
// every slot; slots at or before the admit slot are discarded in
// WriteDirect (the set-top box ignores them anyway — its service starts one
// slot after admission). This keeps scheduling entirely
// off the server-wide mutex: concurrent admissions for different videos
// proceed in parallel.
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
	rec, err := s.record(v)
	if err != nil {
		return info, err
	}
	// The subscription spans the admit slot through its last deadline: the
	// largest shifted period of the remaining suffix.
	slots := rec.maxPeriod[v.cfg.Segments-from+1] + 1
	sub.ring, sub.admitted, sub.rec, sub.srv = fanout.NewRing(slots), time.Now(), rec, s
	sub.lastSlot.Store(math.MaxInt64)
	// Telemetry registration precedes publication into the subscriber set:
	// tick workers read sub.ct lock-free from snapshots, so the field must
	// be settled before Add makes the subscriber visible.
	var remote string
	if sub.peer != nil {
		remote = tcpAddr(sub.peer).String()
	}
	sub.ct = s.ct.Register(remote, sub.fd, videoID, slots)
	if !rec.subs.Add(sub) {
		s.ct.Unregister(sub.ct)
		return info, errShuttingDown
	}

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
		s.unsubscribe(sub)
		return info, err
	}
	admitSlot := res.Slot
	*buf = slices.Grow(res.Assignment, slots)
	n := len(res.Assignment)

	// The subscription ends once the customer's last deadline passes. The
	// store is harmless when a concurrent shutdown already removed the
	// subscriber — its ring is closed and further pushes fail — and tick
	// workers that read the placeholder MaxInt64 this slot retire the
	// subscriber one snapshot later. The admit slot ends within one slot
	// duration of the admission, so the last deadline passes within slots
	// slot durations of it. The need and flush sets are written first, and
	// the store publishes them to the tick workers.
	sub.need, sub.flush = needFlushSets((*buf)[:n], from, admitSlot, rec.wirePeriods, (*buf)[n:n+slots])
	sub.needFrom = admitSlot
	sub.lastSlot.Store(int64(admitSlot + slots - 1))
	sub.until = sub.admitted.Add(time.Duration(slots)*s.cfg.SlotDuration + s.readTimeout())
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

// hangUp ends a handed-over session, on the tick or, once the clock has
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

package vodserver

// This file is one connection's life: accept, the request read, admission
// into the station and the subscriber set, the ring drain with its vectored
// writes, and the unsubscribe that ends it.
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
	"bufio"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"net"
	"os"
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
	conn net.Conn
	// ring queues shared frame references; the connection's handler drains
	// it with vectored writes. The tick closes it at lastSlot, so it never
	// holds more than the subscription's span.
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
	// ct is the transport telemetry handle: the fan-out and drain paths feed
	// it ring depth and progress signals, and a write-deadline cut reads the
	// last classified state as the disconnect reason.
	ct *conntrack.Conn

	// raw is the connection's raw access, through which the tick writes the
	// due frames itself while the handler is parked with nothing due
	// (WriteDirect); nil when the connection has none, and then every frame
	// queues. writeFn is the one callback raw.Write runs, bound once so a
	// direct write allocates nothing; iov and n are its argument and
	// result, and belong to whoever holds the ring's lock.
	raw     syscall.RawConn
	writeFn func(fd uintptr) bool
	iov     []iovec
	n       int
	// firstByte is the server's first-byte window. admitSlot, wait and root
	// are set by the handler before it first parks, so the tick's direct
	// writes read them under the ring's lock: the admit-slot filter, and the
	// spans the first frame written whole ends, on whichever side wrote it.
	firstByte  *obs.Window
	admitSlot  int
	wait, root *obs.Span
	// firstSent latches once the session's first frame is written whole.
	firstSent atomic.Bool
	// srv is the server, for the late-write count and marks (wrote); late
	// latches at the session's first late write.
	srv  *Server
	late atomic.Bool
	// pushed is the last slot the tick handed this subscriber (0 before any:
	// the slots a tick begins count from 1). The tick alone touches it.
	pushed int
}

// WriteDirect is the tick's write for a handler parked with nothing due
// (fanout.Writer): one non-blocking vectored write of the frames — the held
// ones and the slot's — through the raw connection, under the ring's lock.
// The callback never asks the poller to wait, so a full socket costs the
// tick one EAGAIN, and the frames not finished — the first with whatever
// prefix went out — stay queued for the handler, whose own write carries
// the backlog, the session's write deadline and the cut. A frame at or
// before the admit slot is done with unwritten, as the handler's filter
// would skip it.
func (sub *subscriber) WriteDirect(frames []*fanout.Frame) (done, sent int) {
	iov := sub.iov[:0]
	for _, f := range frames {
		if f.Slot() > sub.admitSlot && len(iov) < maxIOV {
			iov = append(iov, makeIovec(f.Bytes()))
		}
	}
	sub.iov, sub.n = iov, 0
	if len(iov) > 0 && sub.raw.Write(sub.writeFn) != nil {
		sub.n = 0
	}
	clear(iov) // the frames' buffers go back to the pool
	n, whole, first := sub.n, 0, 0
	var bytes int64
	for _, f := range frames {
		if f.Slot() > sub.admitSlot {
			b := len(f.Bytes())
			if n < b {
				sent = n
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
	if whole > 0 {
		sub.wrote(whole, bytes, first, lateByTick)
	}
	return done, sent
}

// maxIOV is the most buffers one writev(2) takes (IOV_MAX on Linux and
// macOS); frames past it stay queued for the handler.
const maxIOV = 1024

// writeOnce is raw.Write's callback: one writev(2) of sub.iov on the
// socket's non-blocking fd. Its error — EAGAIN, or one the handler's own
// write will meet again — only means the frames are not finished. It
// returns true so the poller never waits.
func (sub *subscriber) writeOnce(fd uintptr) bool {
	sub.n = writev(fd, sub.iov)
	return true
}

// wrote accounts frames handed to the kernel whole, n bytes in all, the
// first of them for slot first, on whichever side wrote them (path):
// conntrack's drain signal; for the session's first frame, the first-byte
// observation and the end of the admit spans, exactly once; and a write
// that completed after its deadline passed (checkLate).
func (sub *subscriber) wrote(frames int, n int64, first int, path latePath) {
	sub.ct.RecordDrain(frames, n)
	if sub.firstSent.CompareAndSwap(false, true) {
		sub.firstByte.Observe(time.Since(sub.admitted).Seconds())
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
	now := int(sub.rec.slot.Load())
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
// drain skips, reads as the first flush slot, admit+1. The sets are
// published (lastSlot is stored) before the handler first writes and
// before it parks for the tick.
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

// track registers a connection for shutdown; it reports false when the
// server is already closing.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, conn)
}

// acceptLoop serves the listener until it is closed. Any other Accept
// error — EMFILE in a connection burst, say — is transient: the loop backs
// off, 5 ms doubling to at most a second as net/http's Server.Serve does,
// and accepts again, so one failure never ends service.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := s.ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err != nil {
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			select {
			case <-time.After(backoff):
			case <-s.done:
				return
			}
			continue
		}
		backoff = 0
		s.wg.Add(1)
		go s.handleConn(conn)
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

// handleConn admits one request and streams its subscription.
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	if !s.track(conn) {
		return
	}
	defer s.untrack(conn)

	// A client that connects and sends nothing is cut off after the read
	// bound; the deadline is cleared again so it cannot outlive the request.
	if err := conn.SetReadDeadline(time.Now().Add(s.readTimeout())); err != nil {
		return
	}
	// One small buffered reader serves the request and the report: a frame
	// costs one read, and a client that sends both at once costs one.
	br := bufio.NewReaderSize(conn, readBufferSize)
	msg, err := wire.ReadFrame(br)
	if err != nil {
		return
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		return
	}
	req, ok := msg.(wire.Request)
	if !ok {
		_ = wire.WriteFrame(conn, wire.ErrorMsg{Text: "expected a request frame"})
		return
	}
	// The decoder admits only v2 requests; the flags alone decide whether
	// the session owes a report and carries trace ids.
	wantReport := req.Flags&wire.FlagNoReport == 0
	wantTrace := req.Flags&wire.FlagNoTrace == 0

	// The root span covers the whole pipeline from admit to the first
	// fan-out byte reaching this subscriber; an unsampled request gets a
	// nil span and every operation below is a no-op. End is idempotent, so
	// the deferred call only closes trees that error out before first
	// byte.
	root := s.spans.StartSpan("admit")
	root.SetVideo(req.VideoID)
	defer root.End()

	sub, info, writeBy, err := s.admit(req.VideoID, req.FromSegment, conn, root)
	if err != nil {
		s.mRejects.Inc()
		root.SetAttr("reject", err.Error())
		_ = wire.WriteFrame(conn, wire.ErrorMsg{Text: err.Error()})
		return
	}
	defer s.unsubscribe(sub)
	// One write deadline covers the whole session: its last segment
	// deadline plus the read bound. A reader too far behind to make it
	// fails its own writev; nothing else ever cuts a subscriber.
	if err := conn.SetWriteDeadline(writeBy); err != nil {
		return
	}
	if wantTrace {
		// The session joins the admit span's tree: the client echoes these
		// identifiers in its report and the server synthesizes its playback
		// as child spans. An unsampled root hands out zero and the session
		// stays traceless.
		info.TraceID = root.ID()
		info.SpanID = root.ID()
	}
	if err := wire.WriteFrame(conn, info); err != nil {
		return
	}
	admitSlot := int(info.AdmitSlot)
	wait := root.Child("first_byte_wait")
	// After a clean end (ring closed at the last slot) a session that did
	// not opt out owes us a ClientReport.
	if s.drainRing(conn, sub, admitSlot, wait, root) && wantReport {
		s.readReport(conn, br, sub.rec, info)
	}
}

// drainRing is the delivery loop of a session. While it is parked with
// nothing due, the tick writes each flush itself (WriteDirect) and the
// handler sleeps on; what the tick could not finish wakes it, and it hands
// the backlog — the unsent rest of the first frame first, and any frames
// held behind it — to the kernel as one vectored write per batch,
// releasing each frame only after its bytes are out. It reports false when a write failed (the ring is dropped) and true on
// clean ring closure. A write that hits the session's deadline is the one
// way a subscriber gets cut, and is counted as a drop.
func (s *Server) drainRing(conn net.Conn, sub *subscriber, admitSlot int, wait, root *obs.Span) bool {
	var (
		frames []*fanout.Frame
		vec    net.Buffers
		direct fanout.Writer
	)
	if sub.raw != nil {
		direct = sub
	}
	sub.admitSlot, sub.wait, sub.root = admitSlot, wait, root
	release := func() {
		for _, f := range frames {
			f.Release()
		}
	}
	for {
		var (
			head int
			open bool
		)
		frames, head, open = sub.ring.Park(frames[:0], direct)
		sent, n, err := writeFrames(conn, &vec, frames, head, admitSlot)
		if err != nil {
			release()
			if errors.Is(err, os.ErrDeadlineExceeded) {
				s.mDroppedBy[sub.ct.State()].Inc()
			}
			// Drop releases anything pushed while the write was blocked —
			// also when the tick's clean retirement already closed the
			// ring — and refuses further pushes, so every outstanding frame
			// reference is now accounted for.
			sub.ring.Drop()
			return false
		}
		if sent {
			sub.wrote(len(frames), n+int64(head), frames[0].Slot(), lateByHandler)
		}
		release()
		if !open {
			return true
		}
	}
}

// writeFrames hands one drained batch to the connection as a single
// vectored write, starting head bytes into the first frame (the prefix the
// tick's direct write already sent) and skipping frames at or before the
// admit slot (the subscription was registered before the admission reached
// the scheduler, so the ring may carry slots the customer's service does not
// cover). vec is the session's reusable scratch: net.Buffers.WriteTo
// consumes the header it is invoked on — advancing it and rewriting elements
// on partial writes — so the full-capacity slice is restored into *vec
// afterwards. One header lives per session and the steady-state write path
// performs no per-batch allocation (BenchmarkDrainRing gates this).
func writeFrames(conn net.Conn, vec *net.Buffers, frames []*fanout.Frame, head, admitSlot int) (sent bool, n int64, err error) {
	bufs := (*vec)[:0]
	for i, f := range frames {
		if f.Slot() > admitSlot {
			b := f.Bytes()
			if i == 0 {
				b = b[head:]
			}
			bufs = append(bufs, b)
		}
	}
	*vec = bufs
	if len(bufs) == 0 {
		return false, 0, nil
	}
	n, err = vec.WriteTo(conn)
	*vec = bufs[:0]
	return true, n, err
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
// writeFrames and WriteDirect (the set-top box ignores them anyway — its
// service starts one slot after admission). This keeps scheduling entirely
// off the server-wide mutex: concurrent admissions for different videos
// proceed in parallel.
//
// root, when sampled, gains a station_admit child covering the scheduler
// call (whose lock wait and service time the station's stage summaries
// break down further); the child carries the admission's slot and the
// number of instances it placed.
//
// writeBy is when the session's writes must be done: the wall time of its
// last deadline plus readTimeout.
func (s *Server) admit(videoID, fromSegment uint32, conn net.Conn, root *obs.Span) (sub *subscriber, info wire.ScheduleInfo, writeBy time.Time, err error) {
	v, ok := s.videos[videoID]
	if !ok {
		return nil, info, writeBy, fmt.Errorf("unknown video %d", videoID)
	}
	from := int(fromSegment)
	if from == 0 {
		from = 1
	}
	if from > v.cfg.Segments {
		return nil, info, writeBy, fmt.Errorf("resume segment %d beyond %d", from, v.cfg.Segments)
	}
	rec, err := s.record(v)
	if err != nil {
		return nil, info, writeBy, err
	}
	// The subscription spans the admit slot through its last deadline: the
	// largest shifted period of the remaining suffix.
	slots := rec.maxPeriod[v.cfg.Segments-from+1] + 1
	sub = &subscriber{
		conn:      conn,
		ring:      fanout.NewRing(slots),
		admitted:  time.Now(),
		rec:       rec,
		firstByte: s.firstByte,
		srv:       s,
	}
	sub.lastSlot.Store(math.MaxInt64)
	// Where the tick has no raw vectored write (rawWrites), every frame
	// queues for the handler.
	if sc, ok := conn.(syscall.Conn); ok && rawWrites {
		if raw, err := sc.SyscallConn(); err == nil {
			sub.raw, sub.writeFn = raw, sub.writeOnce
		}
	}
	// Telemetry registration precedes publication into the subscriber set:
	// tick workers read sub.ct lock-free from snapshots, so the field must
	// be settled before Add makes the subscriber visible.
	sub.ct = s.ct.Register(conn, videoID, slots)
	if !rec.subs.Add(sub) {
		s.ct.Unregister(sub.ct)
		return nil, info, writeBy, errShuttingDown
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
		return nil, info, writeBy, err
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
	writeBy = sub.admitted.Add(time.Duration(slots)*s.cfg.SlotDuration + s.readTimeout())
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
	return sub, info, writeBy, nil
}

// unsubscribe ends a subscription on any handler exit: it leaves the video's
// set if a tick retirement or server Close has not already taken it, stops
// its telemetry, and Drops the ring so every queued frame reference returns
// to the pool. Each step is idempotent.
func (s *Server) unsubscribe(sub *subscriber) {
	sub.rec.subs.Remove(sub)
	s.ct.Unregister(sub.ct)
	sub.ring.Drop()
}

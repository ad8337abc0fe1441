package vodserver

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"vodcast/internal/wire"
)

// The tick's direct path, end to end over loopback sockets. Each test plays
// a handler's steps by hand on a built server, whose clock never runs, and
// drives every tick itself, so each interleaving is chosen, not raced for.

// startManualServer builds a server for the test to drive. With no clock
// the slot duration sets only the handlers' deadlines: a one-second slot
// puts each at least five seconds past its admission.
func startManualServer(t *testing.T, videos ...VideoConfig) *Server {
	t.Helper()
	return buildServer(t, Config{Videos: videos, SlotDuration: time.Second})
}

// tick runs one clock tick by hand: the advance, then the fan-out.
func tick(s *Server) {
	s.station.AdvanceSlot()
	s.fanOut()
}

// assertNoFrameLeak fails unless every frame the server encoded has been
// released by every holder. Call it after Close.
func assertNoFrameLeak(t *testing.T, s *Server) {
	t.Helper()
	if n := s.enc.Outstanding(); n != 0 {
		t.Fatalf("%d frames never released after Close", n)
	}
}

// closeNoFrameLeak closes s and fails unless every frame it encoded came
// back: a test that starts its own server defers it in place of Close.
func closeNoFrameLeak(t *testing.T, s *Server) {
	t.Helper()
	s.Close()
	assertNoFrameLeak(t, s)
}

// loopback returns both ends of a fresh TCP connection over 127.0.0.1.
func loopback(t *testing.T) (srv, cli *net.TCPConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	a, err := ln.Accept()
	if err != nil {
		c.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); c.Close() })
	return a.(*net.TCPConn), c.(*net.TCPConn)
}

// session is one subscriber admitted by hand: handleConn's steps up to its
// drain, which serve starts.
type session struct {
	sub  *subscriber
	info wire.ScheduleInfo
	// stream is every byte the server meant to send, in order, when the
	// test builds it.
	stream bytes.Buffer
	done   chan bool
}

// admitSession admits a full viewing of video over srv.
func admitSession(t *testing.T, s *Server, srv net.Conn, video uint32) *session {
	t.Helper()
	sub, info, _, err := s.admit(video, 0, srv, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.unsubscribe(sub) })
	return &session{sub: sub, info: info, done: make(chan bool, 1)}
}

// serve writes the ScheduleInfo over conn and starts the drain on its own
// goroutine, as handleConn does; done carries drainRing's result.
func (ss *session) serve(t *testing.T, s *Server, conn net.Conn) {
	t.Helper()
	if err := wire.WriteFrame(io.MultiWriter(conn, &ss.stream), ss.info); err != nil {
		t.Fatal(err)
	}
	go func() { ss.done <- s.drainRing(conn, ss.sub, int(ss.info.AdmitSlot), nil, nil) }()
}

// waitParked returns once the session's handler is parked with nothing
// queued. It offers frames of the admit slot, which the handler would skip:
// a parked handler's Writer finishes one unwritten (depth 0), while a
// queued one wakes the handler, which skips it and parks again.
func (ss *session) waitParked(t *testing.T, s *Server) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		f, err := s.enc.EncodeSlot(ss.info.VideoID, int(ss.info.AdmitSlot), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		d, ok := ss.sub.ring.Push(f)
		if !ok {
			f.Release()
			t.Fatal("ring closed before the handler parked")
		}
		if d == 0 {
			return
		}
	}
	t.Fatal("handler never parked")
}

// countConn counts the handler's own writes on a connection.
type countConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// readSegments reads a session's stream to EOF and reports which segments
// arrived, checking every payload's bytes; the first frame must be the
// ScheduleInfo.
func readSegments(t *testing.T, r io.Reader) map[uint32]bool {
	t.Helper()
	br := bufio.NewReader(r)
	msg, err := wire.ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	info, ok := msg.(wire.ScheduleInfo)
	if !ok {
		t.Fatalf("first frame is %T, want the ScheduleInfo", msg)
	}
	got := map[uint32]bool{}
	for {
		msg, err := wire.ReadFrame(br)
		if errors.Is(err, io.EOF) {
			return got
		}
		if err != nil {
			t.Fatal(err)
		}
		if seg, ok := msg.(wire.Segment); ok {
			if !bytes.Equal(seg.Payload, wire.SegmentPayload(seg.VideoID, seg.Segment, info.SizeOf(seg.Segment))) {
				t.Fatalf("segment %d payload corrupt", seg.Segment)
			}
			got[seg.Segment] = true
		}
	}
}

// tickUntilDone ticks through the session's last slot, whose tick closes
// its ring, and returns the drain's result.
func tickUntilDone(t *testing.T, s *Server, ss *session) bool {
	t.Helper()
	for slot := int64(ss.info.AdmitSlot); slot < ss.sub.lastSlot.Load(); slot++ {
		tick(s)
	}
	select {
	case clean := <-ss.done:
		return clean
	case <-time.After(5 * time.Second):
		t.Fatal("the drain did not end at the last slot")
		return false
	}
}

// TestSessionServedByDirectWrites: a handler parked before the first tick
// is never woken for a frame. The tick writes every slot's frame itself,
// the handler makes no write of its own, the ring's closure at the last
// slot is its only wake-up, the stream carries every segment intact, the
// first byte is observed once, and no frame outlives the server.
func TestSessionServedByDirectWrites(t *testing.T) {
	const segments = 6
	s := startManualServer(t, VideoConfig{ID: 1, Segments: segments, SegmentBytes: 512})
	srv, cli := loopback(t)
	ss := admitSession(t, s, srv, 1)
	var writes atomic.Int64
	ss.serve(t, s, countConn{Conn: srv, writes: &writes})
	writes.Store(0) // the ScheduleInfo's
	ss.waitParked(t, s)
	if !tickUntilDone(t, s, ss) {
		t.Fatal("drain reported a failed write")
	}
	if n := writes.Load(); n != 0 {
		t.Fatalf("the handler made %d writes of its own, want 0", n)
	}
	if n := s.firstByte.Snapshot().Count; n != 1 {
		t.Fatalf("%d first-byte observations, want 1", n)
	}
	s.unsubscribe(ss.sub)
	srv.Close()
	if got := readSegments(t, cli); len(got) != segments {
		t.Fatalf("received segments %v, want all %d", got, segments)
	}
	s.Close()
	assertNoFrameLeak(t, s)
}

// bigFrames hands n frames of every segment, past the admit slot, to a
// parked session — the first held of them held, the rest pushed — and
// records their bytes in its stream. It reports the depth of the first
// push: 1 when the tick's direct write came up short.
func bigFrames(t *testing.T, s *Server, ss *session, n, held int) (firstDepth int) {
	t.Helper()
	segs := make([]int, ss.info.Segments)
	for i := range segs {
		segs[i] = i + 1
	}
	for i := 1; i <= n; i++ {
		f, err := s.enc.EncodeSlot(ss.info.VideoID, int(ss.info.AdmitSlot)+i, segs, nil)
		if err != nil {
			t.Fatal(err)
		}
		ss.stream.Write(f.Bytes())
		if i <= held {
			if !ss.sub.ring.Hold(f) {
				f.Release()
				t.Fatal("hold on an open ring failed")
			}
			continue
		}
		d, ok := ss.sub.ring.Push(f)
		if !ok {
			f.Release()
			t.Fatal("push to an open ring failed")
		}
		if i == held+1 {
			firstDepth = d
		}
	}
	return firstDepth
}

// shortWriteSession opens a session whose socket takes far less than one
// of bigFrames' 256 KiB frames — a small send buffer toward a reader that
// does not read yet — and parks its handler.
func shortWriteSession(t *testing.T) (*Server, *session, *net.TCPConn, *net.TCPConn) {
	t.Helper()
	s := startManualServer(t, VideoConfig{ID: 1, Segments: 4, SegmentBytes: 64 << 10})
	srv, cli := loopback(t)
	if err := srv.SetWriteBuffer(4096); err != nil {
		t.Fatal(err)
	}
	ss := admitSession(t, s, srv, 1)
	ss.serve(t, s, srv)
	ss.waitParked(t, s)
	return s, ss, srv, cli
}

// TestShortDirectWriteResumes: the tick's direct write into a nearly full
// socket comes up short — of one 256 KiB frame, or of a flush whose one
// vectored write carries two held frames and the pushed one. The frames
// not finished stay queued, the first with the prefix that went out, and
// the handler resumes from there once the reader wakes. The reader gets
// exactly the bytes the server meant to send, with no byte repeated or
// lost, and no frame outlives the server.
func TestShortDirectWriteResumes(t *testing.T) {
	for _, tc := range []struct {
		name string
		held int
	}{{"frame", 0}, {"flush", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			s, ss, srv, cli := shortWriteSession(t)
			if d := bigFrames(t, s, ss, 3, tc.held); d != 1 {
				t.Fatalf("first push left depth %d, want 1: the direct write should have come up short", d)
			}
			ss.sub.ring.Close()
			got := make(chan []byte, 1)
			go func() {
				b, _ := io.ReadAll(cli)
				got <- b
			}()
			if !<-ss.done {
				t.Fatal("drain reported a failed write")
			}
			srv.Close()
			if b := <-got; !bytes.Equal(b, ss.stream.Bytes()) {
				t.Fatalf("reader got %d bytes, want the %d the server sent, byte for byte", len(b), ss.stream.Len())
			}
			if n := s.firstByte.Snapshot().Count; n != 1 {
				t.Fatalf("%d first-byte observations, want 1", n)
			}
			s.unsubscribe(ss.sub)
			s.Close()
			assertNoFrameLeak(t, s)
		})
	}
}

// TestDeadlineCutAfterShortDirectWrite: when the reader never wakes, the
// handler that took over a short direct write is cut by its own write
// deadline, the cut is counted, and every frame reference comes back.
func TestDeadlineCutAfterShortDirectWrite(t *testing.T) {
	s, ss, srv, _ := shortWriteSession(t)
	bigFrames(t, s, ss, 3, 0)
	// The handler is blocked in its write by now or soon; a deadline set
	// meanwhile applies to that write.
	if err := srv.SetWriteDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if <-ss.done {
		t.Fatal("drain reported a clean end past its write deadline")
	}
	if n := s.Stats().Dropped; n != 1 {
		t.Fatalf("%d drops counted, want 1", n)
	}
	s.unsubscribe(ss.sub)
	s.Close()
	assertNoFrameLeak(t, s)
}

// TestNoFrameBeforeScheduleInfo: a tick between admission and the
// ScheduleInfo write finds no parked handler, so its frame queues and
// reaches the client after the ScheduleInfo.
func TestNoFrameBeforeScheduleInfo(t *testing.T) {
	const segments = 4
	s := startManualServer(t, VideoConfig{ID: 1, Segments: segments, SegmentBytes: 256})
	srv, cli := loopback(t)
	ss := admitSession(t, s, srv, 1)
	tick(s)
	if d := ss.sub.ring.Depth(); d != 1 {
		t.Fatalf("ring depth %d after a tick before the ScheduleInfo, want the slot's frame queued", d)
	}
	ss.serve(t, s, srv)
	if !tickUntilDone(t, s, ss) {
		t.Fatal("drain reported a failed write")
	}
	s.unsubscribe(ss.sub)
	srv.Close()
	if got := readSegments(t, cli); len(got) != segments {
		t.Fatalf("received segments %v, want all %d", got, segments)
	}
}

// orderRaw records the order of the direct writes made through it.
type orderRaw struct {
	syscall.RawConn
	id  int
	log *[]int
}

func (r orderRaw) Write(f func(fd uintptr) bool) error {
	*r.log = append(*r.log, r.id)
	return r.RawConn.Write(f)
}

// TestFirstFramesGoFirst: within a tick, a session whose first frame is not
// yet sent is written before any steady-state session, even one that
// subscribed earlier and so comes first in the video's set.
func TestFirstFramesGoFirst(t *testing.T) {
	const steady, fresh = 1, 2
	s := startManualServer(t, VideoConfig{ID: 1, Segments: 8, SegmentBytes: 256})
	var log []int
	open := func(id int) *session {
		srv, _ := loopback(t)
		ss := admitSession(t, s, srv, 1)
		ss.sub.raw = orderRaw{RawConn: ss.sub.raw, id: id, log: &log}
		ss.serve(t, s, srv)
		ss.waitParked(t, s)
		return ss
	}
	open(steady)
	tick(s)
	if len(log) != 1 || log[0] != steady {
		t.Fatalf("first tick wrote %v, want [%d]", log, steady)
	}
	open(fresh)
	log = log[:0]
	tick(s)
	if len(log) != 2 || log[0] != fresh || log[1] != steady {
		t.Fatalf("tick wrote sessions in order %v, want [%d %d]: the first frame first", log, fresh, steady)
	}
}

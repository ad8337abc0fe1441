package vodserver

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"syscall"
	"testing"
	"time"

	"vodcast/internal/wire"
)

// The clock as each session's only user, end to end over loopback sockets.
// Each test drives a built and bound server whose clock never runs: it runs
// every tick itself, or plays a tick's admission steps by hand, so each
// interleaving is chosen, not raced for.

// manualServer builds a server on cfg and binds its session listener on
// 127.0.0.1, but starts no clock: the test drives the ticks (tick).
func manualServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := buildServer(t, cfg)
	ln, err := listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.ln = ln
	return s
}

// startManualServer is manualServer on videos. With no clock the slot
// duration sets only the sessions' bounds: a one-second slot puts each at
// least five seconds past its admission.
func startManualServer(t *testing.T, videos ...VideoConfig) *Server {
	t.Helper()
	return manualServer(t, Config{Videos: videos, SlotDuration: time.Second})
}

// tick runs one clock tick by hand, as the clock does: the hook that admits
// the ending slot's arrivals, the advance, then the fan-out.
func tick(s *Server) {
	s.admitArrivals()
	s.fanOut(s.station.AdvanceSlot())
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

// accepted dials a fresh listener on 127.0.0.1, sends raw on the client's
// end and accepts the server's end as the clock's hook does — on Linux only
// once raw has arrived: a raw non-blocking socket, as a subscriber the
// server has not read. The subscriber's socket is closed when the test
// ends, if the server has not closed it.
func accepted(t *testing.T, raw []byte) (*subscriber, *net.TCPConn) {
	t.Helper()
	ln, err := listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := net.Dial("tcp", ln.addr.String())
	if err != nil {
		t.Fatal(err)
	}
	cli := c.(*net.TCPConn)
	t.Cleanup(func() { cli.Close() })
	if _, err := cli.Write(raw); err != nil {
		t.Fatal(err)
	}
	var sub *subscriber
	waitFor(t, "the connection to queue", func() bool {
		fd, peer, err := ln.accept(ln.fd)
		if err != nil && err != syscall.EAGAIN {
			t.Fatal(err)
		}
		sub = &subscriber{fd: fd, peer: peer, until: time.Now().Add(time.Minute)}
		return err == nil
	})
	t.Cleanup(sub.close)
	return sub, cli
}

// session is one subscriber admitted by hand, and the client's end of its
// connection.
type session struct {
	sub  *subscriber
	info wire.ScheduleInfo
	cli  *net.TCPConn
	// stream is every byte the server meant to send, in order, when the
	// test builds it.
	stream bytes.Buffer
}

// admitSession admits a full viewing of video over a fresh loopback
// connection as serveRequest does, and stops short of the handover. Call it
// between ticks, as the clock's hook runs.
func admitSession(t *testing.T, s *Server, video uint32) *session {
	t.Helper()
	return resumeSession(t, s, video, 0)
}

// resumeSession is admitSession from segment from.
func resumeSession(t *testing.T, s *Server, video, from uint32) *session {
	t.Helper()
	req := requestBytes(t, video, from)
	sub, cli := accepted(t, req)
	waitFor(t, "the request to arrive", func() bool {
		n, _ := readFD(sub.fd, sub.in[sub.n:])
		sub.n += n
		return sub.n == len(req)
	})
	sub.n = 0
	info, err := s.admit(sub, video, from, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &session{sub: sub, info: info, cli: cli}
}

// admitBare admits a full viewing of video for a subscriber with no
// socket, which is never handed over: it only gives the video instances to
// share, and the tick hangs it up after its last slot.
func admitBare(t *testing.T, s *Server, video uint32) *subscriber {
	t.Helper()
	sub := &subscriber{fd: -1}
	if _, err := s.admit(sub, video, 0, nil); err != nil {
		t.Fatal(err)
	}
	return sub
}

// handOver hands the session to the tick as serveRequest does, for a client
// that sends no report, so the tick closes the socket after the last slot.
func (ss *session) handOver(t *testing.T, s *Server) {
	t.Helper()
	s.handOver(ss.sub, ss.info, wire.FlagNoReport, nil)
	if err := wire.WriteFrame(&ss.stream, ss.info); err != nil {
		t.Fatal(err)
	}
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

// tickThroughLast ticks through the session's last slot and fails unless
// that tick's service pass hung up on it.
func tickThroughLast(t *testing.T, s *Server, ss *session) {
	t.Helper()
	for slot := int(ss.info.AdmitSlot); slot < ss.sub.lastSlot; slot++ {
		tick(s)
	}
	if ss.sub.fd != -1 {
		t.Fatalf("the session's socket is still open after its last slot (backlog %v)", ss.sub.backlog)
	}
}

// TestSessionServedByDirectWrites: a session handed over before its first
// tick is written by the tick alone, one write per flush. Its last slot's
// tick closes the socket — no report is owed — so the client reads every
// segment intact and then EOF, the first byte is observed once, and no
// frame outlives the server.
func TestSessionServedByDirectWrites(t *testing.T) {
	const segments = 6
	s := startManualServer(t, VideoConfig{ID: 1, Segments: segments, SegmentBytes: 512})
	ss := admitSession(t, s, 1)
	ss.handOver(t, s)
	tickThroughLast(t, s, ss)
	if n := s.firstByte.Snapshot().Count; n != 1 {
		t.Fatalf("%d first-byte observations, want 1", n)
	}
	if got := readSegments(t, ss.cli); len(got) != segments {
		t.Fatalf("received segments %v, want all %d", got, segments)
	}
	if n := s.activeSubscribers(); n != 0 {
		t.Fatalf("%d subscribers left after the last slot", n)
	}
	s.Close()
	assertNoFrameLeak(t, s)
}

// bigFrames hands n frames of every segment, past the admit slot, to a
// handed-over session — the first held of them held, the rest pushed — and
// records their bytes in its stream. It reports the depth of the first
// push: above 0 when the write came up short.
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

// shortWriteSession hands over a session whose socket takes far less than
// one of bigFrames' 256 KiB frames: a small send buffer toward a reader that
// does not read yet.
func shortWriteSession(t *testing.T) (*Server, *session) {
	t.Helper()
	s := startManualServer(t, VideoConfig{ID: 1, Segments: 4, SegmentBytes: 64 << 10})
	ss := admitSession(t, s, 1)
	setSendBuffer(t, ss.sub.fd, 4096)
	ss.handOver(t, s)
	return s, ss
}

// listed reports whether sub is on a span's service list.
func listed(s *Server, sub *subscriber) bool {
	for _, list := range s.service {
		for _, x := range list {
			if x == sub {
				return true
			}
		}
	}
	return false
}

// TestShortDirectWriteResumes: the tick's write into a nearly full socket
// comes up short — of one 256 KiB frame, or of a flush whose one vectored
// write carries two held frames and the pushed one. The frames not
// finished stay queued, the first with the prefix that went out, the
// session is listed for the service pass, and each tick's retry resumes
// from there once the reader reads. The reader gets exactly the bytes the
// server meant to send, with no byte repeated or lost, the session leaves
// the list once it is closed, and no frame outlives the server.
func TestShortDirectWriteResumes(t *testing.T) {
	for _, tc := range []struct {
		name string
		held int
	}{{"frame", 0}, {"flush", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			s, ss := shortWriteSession(t)
			if d := bigFrames(t, s, ss, 3, tc.held); d == 0 {
				t.Fatal("the first push left nothing queued: the write should have come up short")
			}
			tick(s) // lists the session and retries
			if !listed(s, ss.sub) {
				t.Fatal("a session with a backlog is not on the service list")
			}
			want := ss.stream.Len()
			got := make(chan []byte, 1)
			go func() {
				b := make([]byte, want)
				n, _ := io.ReadFull(ss.cli, b)
				got <- b[:n]
			}()
			var b []byte
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
				select {
				case b = <-got:
				default:
					if time.Now().After(deadline) {
						t.Fatalf("the retries left %d frames queued", ss.sub.ring.Depth())
					}
					tick(s)
					continue
				}
				break
			}
			if !bytes.Equal(b, ss.stream.Bytes()) {
				t.Fatalf("reader got %d bytes, want the %d the server sent, byte for byte", len(b), want)
			}
			// The reader reads on, so the ticks' own frames go out too and
			// the last slot's tick closes the socket.
			go io.Copy(io.Discard, ss.cli)
			for deadline := time.Now().Add(10 * time.Second); ss.sub.fd >= 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("the session was never closed: %d frames queued", ss.sub.ring.Depth())
				}
				tick(s)
			}
			if listed(s, ss.sub) {
				t.Fatal("a closed session is still listed")
			}
			if n := s.firstByte.Snapshot().Count; n != 1 {
				t.Fatalf("%d first-byte observations, want 1", n)
			}
			s.Close()
			assertNoFrameLeak(t, s)
		})
	}
}

// TestDeadlineCutAfterShortDirectWrite: when the reader never wakes, the
// service pass cuts the session at its bound with its backlog still
// queued: the cut is counted, the socket closed, the session unlisted and
// every frame reference comes back.
func TestDeadlineCutAfterShortDirectWrite(t *testing.T) {
	s, ss := shortWriteSession(t)
	bigFrames(t, s, ss, 3, 0)
	tick(s)
	if !listed(s, ss.sub) || ss.sub.fd < 0 {
		t.Fatal("a session short of its bound was cut")
	}
	ss.sub.until = time.Now()
	tick(s)
	if ss.sub.fd != -1 || listed(s, ss.sub) {
		t.Fatal("a session past its bound with a backlog was not cut")
	}
	if n := s.Stats().Dropped; n != 1 {
		t.Fatalf("%d drops counted, want 1", n)
	}
	if d := ss.sub.ring.Depth(); d != 0 {
		t.Fatalf("%d frames left queued after the cut", d)
	}
	s.Close()
	assertNoFrameLeak(t, s)
}

// TestNoFrameBeforeScheduleInfo: the handover writes nothing, and the
// ScheduleInfo rides the first flush, slot admit+1's: the first tick's one
// vectored write carries it and that slot's frame behind it, so no frame
// can precede it.
func TestNoFrameBeforeScheduleInfo(t *testing.T) {
	const segments = 4
	s := startManualServer(t, VideoConfig{ID: 1, Segments: segments, SegmentBytes: 256})
	ss := admitSession(t, s, 1)
	ss.handOver(t, s)
	writes := new([]int)
	ss.sub.ring.Write(boundaryWriter{t: t, sub: ss.sub, log: writes})
	if err := ss.cli.SetReadDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if n, err := ss.cli.Read(make([]byte, 1)); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("the client read %d bytes (%v) after the handover, want nothing before the first tick", n, err)
	}
	if err := ss.cli.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	tick(s)
	if len(*writes) != 1 || ss.sub.head != nil {
		t.Fatalf("the first tick made %d writes with %d ScheduleInfo bytes left, want one write of both", len(*writes), len(ss.sub.head))
	}
	tickThroughLast(t, s, ss)
	if got := readSegments(t, ss.cli); len(got) != segments {
		t.Fatalf("received segments %v, want all %d", got, segments)
	}
}

// dial connects to s's session listener and sends raw; the connection
// closes when the test ends.
func dial(t *testing.T, s *Server, raw []byte) *net.TCPConn {
	t.Helper()
	c, err := net.Dial("tcp", s.ln.addr.String())
	if err != nil {
		t.Fatal(err)
	}
	cli := c.(*net.TCPConn)
	t.Cleanup(func() { cli.Close() })
	if _, err := cli.Write(raw); err != nil {
		t.Fatal(err)
	}
	return cli
}

// requestBytes encodes a request for video from segment from that owes no
// report.
func requestBytes(t *testing.T, video, from uint32) []byte {
	t.Helper()
	var req bytes.Buffer
	if err := wire.WriteFrame(&req, wire.Request{VideoID: video, FromSegment: from,
		Version: wire.ProtoV2, Flags: wire.FlagNoReport}); err != nil {
		t.Fatal(err)
	}
	return req.Bytes()
}

// admittedByHook runs the clock's hook, within one slot, until it has
// admitted a session on video 1, and returns its subscriber.
func admittedByHook(t *testing.T, s *Server) *subscriber {
	t.Helper()
	var subs []*subscriber
	waitFor(t, "the hook to admit the request", func() bool {
		s.admitArrivals()
		if r := s.videos[1].rec.Load(); r != nil {
			subs = r.subs.Snapshot()
		}
		return len(subs) > 0
	})
	return subs[0]
}

// readFirstWrite reads a session's ScheduleInfo and the frames behind it
// through the first SlotEnd, and returns the admit slot and that slot.
func readFirstWrite(t *testing.T, cli *net.TCPConn) (admit, first int) {
	t.Helper()
	if err := cli.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(cli)
	msg, err := wire.ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	info, ok := msg.(wire.ScheduleInfo)
	if !ok {
		t.Fatalf("first frame is %T, want the ScheduleInfo", msg)
	}
	for {
		if msg, err = wire.ReadFrame(br); err != nil {
			t.Fatal(err)
		}
		if end, ok := msg.(wire.SlotEnd); ok {
			return int(info.AdmitSlot), int(end.Slot)
		}
	}
}

// TestArrivalAdmittedInItsSlot: a request already queued when the clock's
// hook runs is admitted in the slot still current, and the tick that begins
// the next slot writes its ScheduleInfo and that slot's frame in one
// vectored write.
func TestArrivalAdmittedInItsSlot(t *testing.T) {
	s := startManualServer(t, VideoConfig{ID: 1, Segments: 4, SegmentBytes: 256})
	for range 3 {
		tick(s)
	}
	slot := s.station.Status().PerVideo[0].Slot
	cli := dial(t, s, requestBytes(t, 1, 0))
	sub := admittedByHook(t, s)
	writes := new([]int)
	sub.ring.Write(boundaryWriter{t: t, sub: sub, log: writes})
	s.fanOut(s.station.AdvanceSlot())
	if len(*writes) != 1 || sub.head != nil {
		t.Fatalf("the first tick made %d writes with %d ScheduleInfo bytes left, want one write of both", len(*writes), len(sub.head))
	}
	if admit, first := readFirstWrite(t, cli); admit != slot || first != slot+1 {
		t.Fatalf("admitted in slot %d, first frame for slot %d; want the slot still current, %d, and the next", admit, first, slot)
	}
}

// TestPendingRequestAdmittedInItsSlot: a connection accepted before its
// request is whole — darwin accepts one before any byte arrives; here the
// client sends the first three bytes alone — waits in pending, each tick's
// hook reads it again, and it is admitted in the slot the rest arrives in.
func TestPendingRequestAdmittedInItsSlot(t *testing.T) {
	s := startManualServer(t, VideoConfig{ID: 1, Segments: 4, SegmentBytes: 256})
	req := requestBytes(t, 1, 0)
	cli := dial(t, s, req[:3])
	waitFor(t, "the hook to accept the connection", func() bool {
		s.admitArrivals()
		return len(s.pending) == 1
	})
	for range 3 {
		tick(s)
	}
	if len(s.pending) != 1 || s.videos[1].rec.Load() != nil {
		t.Fatalf("%d pending after three ticks, admitted %v: want the part request still pending", len(s.pending), s.videos[1].rec.Load() != nil)
	}
	slot := s.station.Status().PerVideo[0].Slot
	if _, err := cli.Write(req[3:]); err != nil {
		t.Fatal(err)
	}
	admittedByHook(t, s)
	if len(s.pending) != 0 {
		t.Fatalf("%d connections still pending after the admission", len(s.pending))
	}
	tick(s)
	if admit, first := readFirstWrite(t, cli); admit != slot || first != slot+1 {
		t.Fatalf("admitted in slot %d, first frame for slot %d; want the slot the rest arrived in, %d, and the next", admit, first, slot)
	}
}

// TestFirstFramesGoFirst: within a tick, a session whose first frame is not
// yet sent is written by the first walk, before the second walk writes any
// steady-state session — even one that subscribed earlier and so comes
// first in the video's set.
func TestFirstFramesGoFirst(t *testing.T) {
	s := startManualServer(t, VideoConfig{ID: 1, Segments: 8, SegmentBytes: 256})
	steady := admitSession(t, s, 1)
	steady.handOver(t, s)
	tick(s)
	fresh := admitSession(t, s, 1)
	fresh.handOver(t, s)
	reports := s.station.AdvanceSlot()
	slot := reports[0].Slot
	s.slot = slot
	s.station.EachActive(s.walks[0])
	if !fresh.sub.firstSent || fresh.sub.pushed != slot {
		t.Fatal("the first walk did not write the fresh session's first frame")
	}
	if steady.sub.pushed == slot {
		t.Fatal("the first walk handed the frame to a steady-state session")
	}
	s.station.EachActive(s.walks[1])
	if steady.sub.pushed != slot {
		t.Fatal("the second walk skipped the steady-state session")
	}
}

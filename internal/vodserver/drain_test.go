package vodserver

import (
	"errors"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"vodcast/internal/conntrack"
	"vodcast/internal/fanout"
	"vodcast/internal/obs"
)

// discardConn is a net.Conn that swallows writes, so the drain path can be
// measured without socket noise. It deliberately does not implement the
// writev fast path: net.Buffers.WriteTo then falls back to one Write per
// buffer, the worst case for the scratch-reuse logic under test.
type discardConn struct{}

func (discardConn) Read(b []byte) (int, error)         { return 0, nil }
func (discardConn) Write(b []byte) (int, error)        { return len(b), nil }
func (discardConn) Close() error                       { return nil }
func (discardConn) LocalAddr() net.Addr                { return nil }
func (discardConn) RemoteAddr() net.Addr               { return nil }
func (discardConn) SetDeadline(t time.Time) error      { return nil }
func (discardConn) SetReadDeadline(t time.Time) error  { return nil }
func (discardConn) SetWriteDeadline(t time.Time) error { return nil }

// stallConn stands in for a socket whose writev blocks and then fails: its
// first Write runs during — what the tick does meanwhile — and errors.
type stallConn struct {
	discardConn
	during func()
}

func (c stallConn) Write(b []byte) (int, error) {
	c.during()
	return 0, errors.New("connection reset")
}

// TestFailedWriteReleasesClosedRing: while a write is blocked the tick keeps
// pushing, then retires the subscriber cleanly — Close, not Drop — and only
// then does the write fail. The frames queued behind the failed batch will
// never be written, so the drain must release them itself even though the
// retirement already took the subscriber out of its set.
func TestFailedWriteReleasesClosedRing(t *testing.T) {
	s := startTestServer(t)
	enc, ring := drainFixture(t)
	sub := &subscriber{ring: ring, admitted: time.Now(), firstByte: s.firstByte, ct: s.ct.Register(nil, 1, 8)}
	push := func(slot int) {
		f, err := enc.EncodeSlot(1, slot, []int{1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := ring.Push(f); !ok {
			t.Fatalf("push of slot %d failed", slot)
		}
	}
	push(1)
	conn := stallConn{during: func() {
		push(2)
		push(3)
		ring.Close()
	}}
	if s.drainRing(conn, sub, 0, nil, nil) {
		t.Fatal("drain reported a clean end after a failed write")
	}
	if d := ring.Depth(); d != 0 {
		t.Fatalf("%d frames left queued in the ring after the failed write", d)
	}
}

// drainFixture builds the pieces of one subscriber's steady-state drain
// cycle: a warm encoder, a ring, and the session-scoped scratch buffers.
func drainFixture(tb testing.TB) (*fanout.Encoder, *fanout.Ring) {
	tb.Helper()
	enc := fanout.NewEncoder()
	if err := enc.AddVideo(1, []int{1500, 700, 2200, 900, 4096}); err != nil {
		tb.Fatal(err)
	}
	return enc, fanout.NewRing(8)
}

// TestDrainZeroAlloc gates the drainRing fix: once the frame pool, the
// drain buffer and the net.Buffers scratch are warm, a full
// encode → push → pop → vectored-write → release cycle must not allocate.
// Before the reusable scratch, every batch paid one heap allocation for
// the escaping net.Buffers header.
func TestDrainZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync primitives")
	}
	enc, ring := drainFixture(t)
	var (
		conn   net.Conn = discardConn{}
		vec    net.Buffers
		frames []*fanout.Frame
	)
	slot := 0
	cycle := func() {
		f, err := enc.EncodeSlot(1, slot, []int{1, 2, 3}, nil)
		if err != nil {
			t.Fatal(err)
		}
		slot++
		f.Retain()
		if _, ok := ring.Push(f); !ok {
			t.Fatal("push failed on drained ring")
		}
		f.Release()
		var open bool
		frames, open = ring.PopAll(frames[:0])
		if !open {
			t.Fatal("ring closed unexpectedly")
		}
		sent, n, err := writeFrames(conn, &vec, frames, 0, -1)
		if err != nil || !sent || n == 0 {
			t.Fatalf("writeFrames sent=%v n=%d err=%v", sent, n, err)
		}
		for _, g := range frames {
			g.Release()
		}
	}
	// Warm the pool, the pop buffer and the vectored-write scratch.
	for i := 0; i < 8; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("steady-state drain cycle allocates %.1f per batch, want 0", avg)
	}

	// The direct path: the tick writes each frame itself to a parked
	// handler's socket, and that must not allocate either.
	sub := directFixture(t, enc)
	direct := func() {
		if d := deliver(t, enc, sub.ring, slot); d != 0 {
			t.Fatalf("direct delivery queued the frame (depth %d)", d)
		}
		slot++
	}
	for i := 0; i < 8; i++ {
		direct()
	}
	if avg := testing.AllocsPerRun(100, direct); avg != 0 {
		t.Fatalf("steady-state direct delivery allocates %.1f per frame, want 0", avg)
	}

	// The flush rule's ticks, through the tick's own push: of every four
	// slots it holds the first, pushes the second behind it — one vectored
	// write of both — holds the third and flushes it alone at the fourth,
	// which carries none of the subscriber's frames.
	const span = 256
	sets := make([]uint64, 2*span/64)
	sub.need, sub.flush = sets[:span/64], sets[span/64:]
	for k := range span {
		if k%4 != 3 {
			sub.need[k/64] |= 1 << (k % 64)
		}
		if k%4 == 1 || k%4 == 3 {
			sub.flush[k/64] |= 1 << (k % 64)
		}
	}
	sub.lastSlot.Store(span)
	sub.rec = &videoRecord{}
	var (
		tally fanoutTally
		k     int
	)
	flushTick := func() {
		f, err := enc.EncodeSlot(1, k, []int{1, 2, 3, 4, 5}, nil)
		if err != nil {
			t.Fatal(err)
		}
		push(&tally, sub, f, k)
		f.Release()
		if k%4 == 1 || k%4 == 3 {
			if d := sub.ring.Depth(); d != 0 {
				t.Fatalf("slot %d: a flush left %d frames queued, want its direct write to take them all", k, d)
			}
		}
		k++
	}
	for i := 0; i < 8; i++ {
		flushTick()
	}
	if avg := testing.AllocsPerRun(100, flushTick); avg != 0 {
		t.Fatalf("steady-state held and flushed delivery allocates %.1f per tick, want 0", avg)
	}
	if tally.maxDepth != 0 {
		t.Fatalf("a flush left ring depth %d, want 0", tally.maxDepth)
	}
}

// directFixture parks a subscriber's handler on a ring, its connection's raw
// access a /dev/null file's, and returns the subscriber: a frame handed to
// its ring is written through the handler's Writer at once. The handler is
// stopped when the test ends.
func directFixture(tb testing.TB, enc *fanout.Encoder) *subscriber {
	tb.Helper()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := null.SyscallConn()
	if err != nil {
		tb.Fatal(err)
	}
	ct := conntrack.New(conntrack.Config{Registry: obs.NewRegistry()}).Register(nil, 1, 8)
	sub := &subscriber{ring: fanout.NewRing(8), admitted: time.Now(), firstByte: obs.NewWindow(0),
		raw: raw, admitSlot: -1, ct: ct}
	sub.writeFn = sub.writeOnce
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		var frames []*fanout.Frame
		for {
			var open bool
			frames, _, open = sub.ring.Park(frames[:0], sub)
			for _, f := range frames {
				f.Release()
			}
			if !open {
				return
			}
		}
	}()
	tb.Cleanup(func() {
		sub.ring.Close()
		<-parked
		null.Close()
	})
	// Wait for the handler to park: until then a push queues (depth 1).
	for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
		if deliver(tb, enc, sub.ring, 0) == 0 {
			break
		}
		if time.Now().After(deadline) {
			tb.Fatal("handler never parked")
		}
	}
	return sub
}

// deliver encodes one slot, hands it to ring as the tick does, and returns
// the depth the push left.
func deliver(tb testing.TB, enc *fanout.Encoder, ring *fanout.Ring, slot int) int {
	f, err := enc.EncodeSlot(1, slot, []int{1, 2, 3, 4, 5}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	f.Retain()
	d, ok := ring.Push(f)
	if !ok {
		tb.Fatal("push to a parked handler's ring failed")
	}
	f.Release()
	return d
}

// TestWriteFramesFiltersAdmitSlot pins the admit-slot filter: frames at or
// before the admit slot are skipped entirely (no write, sent=false when
// nothing remains) and the scratch survives for the next batch.
func TestWriteFramesFiltersAdmitSlot(t *testing.T) {
	enc, _ := drainFixture(t)
	var vec net.Buffers
	var frames []*fanout.Frame
	for slot := 0; slot < 4; slot++ {
		f, err := enc.EncodeSlot(1, slot, []int{1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	defer func() {
		for _, f := range frames {
			f.Release()
		}
	}()
	sent, n, err := writeFrames(discardConn{}, &vec, frames, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sent || n != 0 {
		t.Fatal("writeFrames reported a send with every frame at or before the admit slot")
	}
	sent, n, err = writeFrames(discardConn{}, &vec, frames, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sent || n == 0 {
		t.Fatal("writeFrames skipped frames past the admit slot")
	}
	if len(vec) != 0 || cap(vec) < 2 {
		t.Fatalf("scratch not restored for reuse: len=%d cap=%d", len(vec), cap(vec))
	}
}

// BenchmarkDrainRing measures one subscriber's steady-state delivery
// cycle. queued is the handler's half: push, pop, one vectored write,
// release. direct is the tick writing the frame itself to a parked
// handler's socket (/dev/null here). Run with -benchmem: the 0 B/op rows
// are the point (one net.Buffers header per session, none per batch, and
// nothing per direct write).
func BenchmarkDrainRing(b *testing.B) {
	b.Run("queued", func(b *testing.B) {
		enc, ring := drainFixture(b)
		var (
			conn   net.Conn = discardConn{}
			vec    net.Buffers
			frames []*fanout.Frame
		)
		segments := []int{1, 2, 3, 4, 5}
		cycle := func(slot int) {
			f, err := enc.EncodeSlot(1, slot, segments, nil)
			if err != nil {
				b.Fatal(err)
			}
			f.Retain()
			if _, ok := ring.Push(f); !ok {
				b.Fatal("push failed on drained ring")
			}
			f.Release()
			var open bool
			frames, open = ring.PopAll(frames[:0])
			if !open {
				b.Fatal("ring closed unexpectedly")
			}
			if _, _, err := writeFrames(conn, &vec, frames, 0, -1); err != nil {
				b.Fatal(err)
			}
			for _, g := range frames {
				g.Release()
			}
		}
		for i := 0; i < 8; i++ {
			cycle(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle(i)
		}
	})
	b.Run("direct", func(b *testing.B) {
		enc, _ := drainFixture(b)
		ring := directFixture(b, enc).ring
		direct := func(slot int) {
			if d := deliver(b, enc, ring, slot); d != 0 {
				b.Fatalf("direct delivery queued the frame (depth %d)", d)
			}
		}
		for i := 0; i < 8; i++ {
			direct(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			direct(i)
		}
	})
}

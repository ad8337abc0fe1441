package vodserver

import (
	"os"
	"testing"
	"time"

	"vodcast/internal/conntrack"
	"vodcast/internal/fanout"
	"vodcast/internal/obs"
)

// TestFailedWriteReleasesClosedRing: the client resets its connection, the
// tick keeps pushing, its last slot's tick retires the subscriber cleanly —
// Close, not Drop — and only then does a write fail. The service pass hangs
// up on the session without counting a cut: the frames queued behind the
// failed write will never be written, so every one comes back, even though
// the retirement already took the subscriber out of its set.
func TestFailedWriteReleasesClosedRing(t *testing.T) {
	s := startManualServer(t, VideoConfig{ID: 1, Segments: 4, SegmentBytes: 256})
	ss := admitSession(t, s, 1)
	ss.handOver(t, s)
	for slot := int64(ss.info.AdmitSlot) + 1; slot < ss.sub.lastSlot.Load(); slot++ {
		tick(s)
	}
	if err := ss.cli.SetLinger(0); err != nil {
		t.Fatal(err)
	}
	ss.cli.Close() // a reset: the server's next write fails
	tickThroughLast(t, s, ss)
	if !ss.sub.retired || !ss.sub.failed {
		t.Fatalf("retired %v failed %v, want a retired session whose write failed", ss.sub.retired, ss.sub.failed)
	}
	if d := ss.sub.ring.Depth(); d != 0 {
		t.Fatalf("%d frames left queued in the ring after the failed write", d)
	}
	if listed(s, ss.sub) {
		t.Fatal("a hung-up session is still listed")
	}
	if n := s.Stats().Dropped; n != 0 {
		t.Fatalf("%d cuts counted for a client that went away, want 0", n)
	}
	s.Close()
	assertNoFrameLeak(t, s)
}

// directFixture returns a subscriber whose socket is a /dev/null file's
// descriptor and whose ring is lent its WriteDirect: a frame handed to the
// ring is written at once. The file is closed when the test ends.
func directFixture(tb testing.TB) (*fanout.Encoder, *subscriber) {
	tb.Helper()
	enc := fanout.NewEncoder()
	if err := enc.AddVideo(1, []int{1500, 700, 2200, 900, 4096}); err != nil {
		tb.Fatal(err)
	}
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { null.Close() })
	raw, err := null.SyscallConn()
	if err != nil {
		tb.Fatal(err)
	}
	fd := -1
	if err := raw.Control(func(f uintptr) { fd = int(f) }); err != nil {
		tb.Fatal(err)
	}
	ct := conntrack.New(conntrack.Config{Registry: obs.NewRegistry()}).Register("", -1, 1, 8)
	sub := &subscriber{fd: fd, ring: fanout.NewRing(8), admitted: time.Now(),
		admitSlot: -1, ct: ct, srv: &Server{firstByte: obs.NewWindow(0)}}
	sub.ring.Write(sub)
	return enc, sub
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
		tb.Fatal("push to a session's ring failed")
	}
	f.Release()
	return d
}

// TestDrainZeroAlloc gates the tick's write path: once the frame pool and
// the iovec scratch are warm, encode → push → one vectored write → release
// must not allocate, and neither must the flush rule's ticks through the
// tick's own push.
func TestDrainZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync primitives")
	}
	enc, sub := directFixture(t)
	slot := 0
	direct := func() {
		if d := deliver(t, enc, sub.ring, slot); d != 0 {
			t.Fatalf("the write left the frame queued (depth %d)", d)
		}
		slot++
	}
	for i := 0; i < 8; i++ {
		direct()
	}
	if avg := testing.AllocsPerRun(100, direct); avg != 0 {
		t.Fatalf("steady-state write allocates %.1f per frame, want 0", avg)
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
				t.Fatalf("slot %d: a flush left %d frames queued, want its write to take them all", k, d)
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

// TestWriteDirectFiltersAdmitSlot pins the admit-slot filter: frames at or
// before the admit slot are done with unwritten — no write at all when
// nothing else is due — and the frames past it are written whole.
func TestWriteDirectFiltersAdmitSlot(t *testing.T) {
	enc, sub := directFixture(t)
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
	// A closed descriptor makes any write fail, so a call that wrote shows.
	fd := sub.fd
	sub.fd, sub.admitSlot = int(^uint32(0)>>1), 3
	done, sent := sub.WriteDirect(frames, 0)
	if done != 4 || sent != 0 || sub.failed || sub.backlog {
		t.Fatalf("every frame at or before the admit slot: done %d sent %d failed %v, want all done with no write", done, sent, sub.failed)
	}
	sub.fd, sub.admitSlot = fd, 1
	done, sent = sub.WriteDirect(frames, 0)
	if done != 4 || sent != 0 || sub.backlog {
		t.Fatalf("frames past the admit slot: done %d sent %d backlog %v, want all written", done, sent, sub.backlog)
	}
	if !sub.firstSent.Load() {
		t.Fatal("the first frame written whole did not latch the first byte")
	}
}

// BenchmarkDrainRing measures one subscriber's steady-state delivery: the
// tick pushing a frame and writing it at once to the session's socket
// (/dev/null here). Run with -benchmem: the 0 B/op row is the point.
func BenchmarkDrainRing(b *testing.B) {
	enc, sub := directFixture(b)
	for i := 0; i < 8; i++ {
		deliver(b, enc, sub.ring, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := deliver(b, enc, sub.ring, i); d != 0 {
			b.Fatalf("the write left the frame queued (depth %d)", d)
		}
	}
}

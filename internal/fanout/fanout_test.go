package fanout

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"vodcast/internal/wire"
)

// catalogues returns a paired zero-copy encoder and reference encoder over
// the same videos: one CBR, one VBR-shaped, one empty-slot-prone tiny one.
func catalogues(t *testing.T) (*Encoder, *Reference) {
	t.Helper()
	enc, ref := NewEncoder(), NewFanoutReference()
	vids := map[uint32][]int{
		1: {1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000},
		// VBR-shaped, incl. zero-size; 127–191 straddle the payload
		// generator's two-chunk table threshold and leave a sub-chunk tail.
		2: {1500, 700, 2200, 90, 4096, 1, 0, 333, 1234, 800, 127, 128, 129, 191},
		3: {64},
	}
	for id, sizes := range vids {
		if err := enc.AddVideo(id, sizes); err != nil {
			t.Fatalf("Encoder.AddVideo(%d): %v", id, err)
		}
		if err := ref.AddVideo(id, sizes); err != nil {
			t.Fatalf("Reference.AddVideo(%d): %v", id, err)
		}
	}
	return enc, ref
}

// TestDifferentialByteIdentical is the executable-spec gate: the zero-copy
// encoder must emit exactly the bytes the retained reference path emits,
// for every slot shape including empty slots, repeated instances, and
// fault-injected drops.
func TestDifferentialByteIdentical(t *testing.T) {
	enc, ref := catalogues(t)
	cases := []struct {
		name     string
		videoID  uint32
		slot     int
		segments []int
		drop     func(int) bool
	}{
		{"empty slot", 1, 0, nil, nil},
		{"single segment", 1, 5, []int{1}, nil},
		{"full slot", 1, 17, []int{1, 2, 3, 5, 8}, nil},
		{"vbr mixed sizes", 2, 9, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, nil},
		{"table threshold", 2, 12, []int{11, 12, 13, 14}, nil},
		{"zero-size segment", 2, 3, []int{7}, nil},
		{"repeat instance", 3, 40, []int{1, 1, 1}, nil},
		{"drop odd segments", 2, 11, []int{1, 2, 3, 4}, func(seg int) bool { return seg%2 == 1 }},
		{"drop everything", 1, 2, []int{1, 2, 3}, func(int) bool { return true }},
		{"large slot index", 2, 1 << 40, []int{5}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, wantPayload, err := ref.EncodeSlot(c.videoID, c.slot, c.segments, c.drop)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			f, err := enc.EncodeSlot(c.videoID, c.slot, c.segments, c.drop)
			if err != nil {
				t.Fatalf("zerocopy: %v", err)
			}
			defer f.Release()
			if !bytes.Equal(f.Bytes(), want) {
				t.Fatalf("wire bytes differ: zerocopy %d bytes, reference %d bytes", len(f.Bytes()), len(want))
			}
			if f.PayloadBytes() != wantPayload {
				t.Fatalf("payload accounting differs: zerocopy %d, reference %d", f.PayloadBytes(), wantPayload)
			}
			if f.Slot() != c.slot {
				t.Fatalf("frame slot %d, want %d", f.Slot(), c.slot)
			}
		})
	}
}

func TestEncodeSlotErrors(t *testing.T) {
	enc, ref := catalogues(t)
	if _, err := enc.EncodeSlot(99, 0, nil, nil); err == nil {
		t.Fatal("unknown video accepted by encoder")
	}
	if _, _, err := ref.EncodeSlot(99, 0, nil, nil); err == nil {
		t.Fatal("unknown video accepted by reference")
	}
	if _, err := enc.EncodeSlot(3, 0, []int{2}, nil); err == nil {
		t.Fatal("out-of-range segment accepted by encoder")
	}
	if _, _, err := ref.EncodeSlot(3, 0, []int{0}, nil); err == nil {
		t.Fatal("out-of-range segment accepted by reference")
	}
	if err := enc.AddVideo(1, []int{5}); err == nil {
		t.Fatal("duplicate video accepted by encoder")
	}
	if err := ref.AddVideo(1, []int{5}); err == nil {
		t.Fatal("duplicate video accepted by reference")
	}
	if err := enc.AddVideo(8, []int{-1}); err == nil {
		t.Fatal("negative size accepted by encoder")
	}
	if err := ref.AddVideo(8, []int{-1}); err == nil {
		t.Fatal("negative size accepted by reference")
	}
	// The largest payload a Segment frame carries is MaxBody less its
	// 16-byte head; one byte more, or a size uint32 would wrap, is refused.
	if err := enc.AddVideo(9, []int{1, wire.MaxBody - 16}); err != nil {
		t.Fatalf("largest carriable segment refused: %v", err)
	}
	for id, size := range map[uint32]int{10: wire.MaxBody - 15, 11: 1<<32 + 5} {
		if err := enc.AddVideo(id, []int{1, size}); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("video %d segment 2 ", id)) {
			t.Fatalf("segment of %d B: err %v, want one naming video %d segment 2", size, err, id)
		}
	}
}

// TestMemoryFollowsDemand: a video keeps its sizes and nothing else, so
// registering a 2048 × 30 × 256 B catalogue and encoding one slot of every
// video leaves the heap far below the 15.7 MB its payloads would take.
func TestMemoryFollowsDemand(t *testing.T) {
	const videos, segments, segmentBytes = 2048, 30, 256
	sizes := make([]int, segments)
	for i := range sizes {
		sizes[i] = segmentBytes
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	enc := NewEncoder()
	for id := uint32(1); id <= videos; id++ {
		if err := enc.AddVideo(id, sizes); err != nil {
			t.Fatal(err)
		}
	}
	for id := uint32(1); id <= videos; id++ {
		f, err := enc.EncodeSlot(id, int(id), []int{1, int(id)%segments + 1, segments}, nil)
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	// The encoder stays live through the second GC (KeepAlive below), so
	// what it holds counts as retained.
	runtime.GC()
	runtime.ReadMemStats(&after)
	if d := int64(after.HeapAlloc) - int64(before.HeapAlloc); d >= 1<<20 {
		t.Fatalf("a slot of each of %d×%d×%d B videos retained %d B of heap, want < 1 MiB", videos, segments, segmentBytes, d)
	}
	runtime.KeepAlive(enc)
}

// TestConcurrentFirstEncodes: four goroutines encode overlapping videos
// from a cold start, so in a fresh process the payload generator's tables
// are first built on the encode path, and every frame matches the reference
// encoder's bytes. make ci runs it under -race on four threads twenty times.
func TestConcurrentFirstEncodes(t *testing.T) {
	enc, ref := catalogues(t)
	// Two slot shapes per video: video 1's 1000 B segments, and video 2's
	// sizes across the table threshold.
	slots := map[uint32][][]int{1: {{1, 2, 3}, {5, 8, 8}}, 2: {{4, 11, 12, 13, 14}, {1, 5, 14}}}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 8; i++ {
				video, slot := uint32(1+(g+i)%2), g*8+i
				segments := slots[video][i/2%2]
				f, err := enc.EncodeSlot(video, slot, segments, nil)
				if err != nil {
					t.Error(err)
					return
				}
				want, _, err := ref.EncodeSlot(video, slot, segments, nil)
				if err != nil {
					t.Error(err)
				} else if !bytes.Equal(f.Bytes(), want) {
					t.Errorf("video %d slot %d: a racing encode's wire bytes differ from the reference", video, slot)
				}
				f.Release()
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := enc.Outstanding(); n != 0 {
		t.Fatalf("%d frames outstanding after every release", n)
	}
}

// TestFrameRecyclesThroughPool proves the refcount lifecycle: a released
// frame returns to the pool and its backing array is reused, while a
// retained frame survives a release.
func TestFrameRecyclesThroughPool(t *testing.T) {
	enc, _ := catalogues(t)
	f, err := enc.EncodeSlot(1, 1, []int{1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.Retain()
	f.Release()
	if got := f.refsForTest(); got != 1 {
		t.Fatalf("refs after retain+release = %d, want 1", got)
	}
	firstBytes := f.Bytes()
	f.Release()
	// The frame is back in the pool; the next encode on this goroutine
	// should reuse its backing array.
	g, err := enc.EncodeSlot(1, 2, []int{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Release()
	if cap(firstBytes) > 0 && cap(g.Bytes()) == 0 {
		t.Fatal("pooled frame lost its backing array")
	}
}

func TestReleaseUnderflowPanics(t *testing.T) {
	enc, _ := catalogues(t)
	f, err := enc.EncodeSlot(1, 1, []int{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	f.Release()
}

func TestRingPushPopOrder(t *testing.T) {
	enc, _ := catalogues(t)
	r := NewRing(4)
	var frames []*Frame
	for slot := 0; slot < 3; slot++ {
		f, err := enc.EncodeSlot(3, slot, []int{1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
		f.Retain()
		d, ok := r.Push(f)
		if !ok {
			t.Fatalf("push %d failed on an open ring", slot)
		}
		if d != slot+1 {
			t.Fatalf("push %d reported depth %d, want %d", slot, d, slot+1)
		}
	}
	if d := r.Depth(); d != 3 {
		t.Fatalf("depth %d, want 3", d)
	}
	got, ok := r.PopAll(nil)
	if !ok {
		t.Fatal("open ring reported closed")
	}
	if len(got) != 3 {
		t.Fatalf("popped %d frames, want 3", len(got))
	}
	for i, f := range got {
		if f.Slot() != i {
			t.Fatalf("frame %d has slot %d, want FIFO order", i, f.Slot())
		}
		f.Release()
	}
	for _, f := range frames {
		f.Release()
	}
}

// TestRingGrowsPastHint: the capacity is only a hint — pushes grow the ring
// past it and never fail while it is open — and Drop releases whatever is
// still queued, after which pushes fail.
func TestRingGrowsPastHint(t *testing.T) {
	enc, _ := catalogues(t)
	r := NewRing(1)
	a, _ := enc.EncodeSlot(3, 1, []int{1}, nil)
	b, _ := enc.EncodeSlot(3, 2, []int{1}, nil)
	defer a.Release()
	defer b.Release()
	a.Retain()
	if _, ok := r.Push(a); !ok {
		t.Fatal("first push failed")
	}
	b.Retain()
	if d, ok := r.Push(b); !ok || d != 2 {
		t.Fatalf("push past the hint = (%d, %v), want (2, true)", d, ok)
	}
	r.Drop()
	if r.Depth() != 0 {
		t.Fatal("Drop left frames queued")
	}
	// The queued references were released by Drop; a and b remain live
	// through the caller's own references only.
	if got := a.refsForTest(); got != 1 {
		t.Fatalf("refs of a after Drop = %d, want 1", got)
	}
	if got := b.refsForTest(); got != 1 {
		t.Fatalf("refs of b after Drop = %d, want 1", got)
	}
	if _, ok := r.Push(a); ok {
		t.Fatal("push succeeded on a dropped ring")
	}
	if _, ok := r.PopAll(nil); ok {
		t.Fatal("dropped ring reported open")
	}
}

func TestRingCloseDeliversTail(t *testing.T) {
	enc, _ := catalogues(t)
	r := NewRing(4)
	f, _ := enc.EncodeSlot(3, 7, []int{1}, nil)
	f.Retain()
	if _, ok := r.Push(f); !ok {
		t.Fatal("push failed")
	}
	r.Close()
	if _, ok := r.Push(f); ok {
		t.Fatal("push succeeded on closed ring")
	}
	got, ok := r.PopAll(nil)
	if ok {
		t.Fatal("closed ring reported open")
	}
	if len(got) != 1 || got[0].Slot() != 7 {
		t.Fatalf("tail frames not delivered on close: %d frames", len(got))
	}
	got[0].Release()
	f.Release()
}

// TestRingBlockingDrain exercises the producer/consumer handoff under the
// race detector: a consumer blocked in PopAll wakes on push and on close.
func TestRingBlockingDrain(t *testing.T) {
	enc, _ := catalogues(t)
	r := NewRing(8)
	const slots = 200
	var wg sync.WaitGroup
	wg.Add(1)
	seen := 0
	go func() {
		defer wg.Done()
		var buf []*Frame
		for {
			var ok bool
			buf, ok = r.PopAll(buf[:0])
			for _, f := range buf {
				seen++
				f.Release()
			}
			if !ok {
				return
			}
		}
	}()
	for slot := 0; slot < slots; slot++ {
		f, err := enc.EncodeSlot(1, slot, []int{1, 2, 3}, nil)
		if err != nil {
			t.Fatal(err)
		}
		f.Retain()
		for {
			if _, ok := r.Push(f); ok {
				break
			}
			// Full ring: yield to the drainer instead of dropping, so the
			// test exercises the blocking handoff deterministically even on
			// one CPU.
			runtime.Gosched()
		}
		f.Release()
	}
	r.Close()
	wg.Wait()
	if seen != slots {
		t.Fatalf("consumer saw %d frames, producer delivered %d", seen, slots)
	}
}

// TestSteadyStateZeroAlloc is the alloc gate the CI target enforces: once
// the pool is warm, encode → hold or push or flush → pop → write-accounting
// → release must not allocate.
func TestSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync primitives")
	}
	enc, _ := catalogues(t)
	rings := make([]*Ring, 16)
	for i := range rings {
		rings[i] = NewRing(4)
	}
	segments := []int{1, 2, 3, 5, 8}
	drain := make([]*Frame, 0, 4)
	slot := 0
	// Slots cycle through the flush rule's three ticks: one that holds,
	// one that pushes behind the held frame, and a Flush of two more held
	// frames that hands over none.
	tick := func() {
		f, err := enc.EncodeSlot(1, slot, segments, nil)
		if err != nil {
			t.Fatal(err)
		}
		phase := slot % 4
		slot++
		for _, r := range rings {
			f.Retain()
			var ok bool
			if phase == 1 {
				_, ok = r.Push(f)
			} else {
				ok = r.Hold(f)
			}
			if !ok {
				f.Release()
			}
			if phase == 3 && r.Flush() != 1 {
				t.Fatal("a flush of held frames left no due write")
			}
		}
		f.Release()
		if phase == 0 || phase == 2 {
			return // only held: nothing is due, so nothing to pop
		}
		for _, r := range rings {
			var ok bool
			drain, ok = r.PopAll(drain[:0])
			if !ok {
				t.Fatal("ring closed unexpectedly")
			}
			for _, g := range drain {
				_ = g.Bytes()
				g.Release()
			}
		}
	}
	// Warm the pool and the drain buffer.
	for i := 0; i < 8; i++ {
		tick()
	}
	// Each run is one tick; 100 runs cover every phase.
	if avg := testing.AllocsPerRun(100, tick); avg != 0 {
		t.Fatalf("steady-state broadcast path allocates %.1f per slot, want 0", avg)
	}
}

// fakeWriter is a consumer's Writer that records the slots lent to it, one
// call per batch, and finishes every frame of a batch when done is set, or
// else none, with sent bytes of the first gone out.
type fakeWriter struct {
	slots   []int
	batches [][]int
	sent    int
	done    bool
}

func (w *fakeWriter) WriteDirect(frames []*Frame) (int, int) {
	var batch []int
	for _, f := range frames {
		batch = append(batch, f.Slot())
	}
	w.slots = append(w.slots, batch...)
	w.batches = append(w.batches, batch)
	if w.done {
		return len(frames), 0
	}
	return 0, w.sent
}

// waitParked returns once a consumer is blocked in Park with its Writer lent.
func waitParked(t *testing.T, r *Ring) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		r.mu.Lock()
		parked := r.parked != nil
		r.mu.Unlock()
		if parked {
			return
		}
	}
	t.Fatal("consumer never parked")
}

// TestRingWritesOnlyForParkedConsumer pins the direct path's one rule: Push
// hands a frame to the consumer's Writer only while the consumer is parked
// with nothing queued. A finished frame is released and leaves the consumer
// asleep; an unfinished one is queued with its sent prefix and wakes it.
func TestRingWritesOnlyForParkedConsumer(t *testing.T) {
	enc, _ := catalogues(t)
	frame := func(slot int) *Frame {
		f, err := enc.EncodeSlot(3, slot, []int{1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	release := func(frames []*Frame) {
		for _, f := range frames {
			f.Release()
		}
	}
	w := &fakeWriter{done: true}
	r := NewRing(4)

	// Nobody parked: the frame queues, and Park returns it at once.
	if d, ok := r.Push(frame(1)); d != 1 || !ok || len(w.slots) != 0 {
		t.Fatalf("push with no consumer parked: depth %d ok %v, writer saw %v", d, ok, w.slots)
	}
	got, sent, ok := r.Park(nil, w)
	if len(got) != 1 || sent != 0 || !ok || len(w.slots) != 0 {
		t.Fatalf("Park with a frame queued returned %d frames, sent %d, ok %v; writer saw %v", len(got), sent, ok, w.slots)
	}
	release(got)

	type popped struct {
		frames []*Frame
		sent   int
		ok     bool
	}
	out := make(chan popped, 1)
	go func() {
		f, s, ok := r.Park(nil, w)
		out <- popped{f, s, ok}
	}()
	waitParked(t, r)

	// Parked with nothing queued: Push writes, releases, and does not wake.
	if d, ok := r.Push(frame(2)); d != 0 || !ok {
		t.Fatalf("direct push: depth %d ok %v, want 0 true", d, ok)
	}
	if len(w.slots) != 1 || w.slots[0] != 2 {
		t.Fatalf("writer saw %v, want [2]", w.slots)
	}
	waitParked(t, r)
	select {
	case p := <-out:
		t.Fatalf("a finished direct write woke the consumer with %d frames", len(p.frames))
	default:
	}

	// An unfinished write queues the frame with its prefix and wakes the
	// consumer; a push before it runs queues behind, never direct.
	w.sent, w.done = 7, false
	if d, ok := r.Push(frame(3)); d != 1 || !ok {
		t.Fatalf("unfinished direct push: depth %d ok %v, want 1 true", d, ok)
	}
	w.done = true
	if _, ok := r.Push(frame(4)); !ok {
		t.Fatal("push after an unfinished write failed")
	}
	if len(w.slots) != 2 {
		t.Fatalf("writer saw %v after the consumer was woken, want [2 3]", w.slots)
	}
	p := <-out
	if !p.ok || p.sent != 7 || p.frames[0].Slot() != 3 {
		t.Fatalf("woken consumer got %d frames, first slot %d, sent %d, ok %v; want slot 3 sent 7", len(p.frames), p.frames[0].Slot(), p.sent, p.ok)
	}
	release(p.frames)
	if len(p.frames) == 1 {
		got, _, _ := r.Park(nil, nil)
		release(got)
	}

	// A Writer still lent while a frame is queued — a wake not yet taken —
	// is never used: bytes leave in push order.
	r.Push(frame(5))
	r.mu.Lock()
	r.parked = w
	r.mu.Unlock()
	if d, _ := r.Push(frame(6)); d != 2 || len(w.slots) != 2 {
		t.Fatalf("push behind a queued frame: depth %d, writer saw %v", d, w.slots)
	}
	r.Drop()
	f := frame(7)
	if _, ok := r.Push(f); ok || len(w.slots) != 2 {
		t.Fatalf("push to a dropped ring: ok %v, writer saw %v", ok, w.slots)
	}
	f.Release()
	if n := enc.Outstanding(); n != 0 {
		t.Fatalf("%d frames outstanding after every holder released", n)
	}
}

// TestRingHoldWaitsForFlush pins Hold: it never wakes the consumer and never
// calls its Writer, so a parked consumer stays parked with frames held. The
// next Push hands the held frames and its own to the Writer in one call,
// in the order they were handed over, and Flush does the same without a
// frame of its own; what the Writer leaves unfinished wakes the consumer.
func TestRingHoldWaitsForFlush(t *testing.T) {
	enc, _ := catalogues(t)
	frame := func(slot int) *Frame {
		f, err := enc.EncodeSlot(3, slot, []int{1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	w := &fakeWriter{done: true}
	r := NewRing(4)
	type popped struct {
		slots []int
		sent  int
	}
	out := make(chan popped, 1)
	park := func() {
		go func() {
			got, sent, _ := r.Park(nil, w)
			var p popped
			for _, f := range got {
				p.slots = append(p.slots, f.Slot())
				f.Release()
			}
			p.sent = sent
			out <- p
		}()
		waitParked(t, r)
	}
	asleep := func(when string) {
		t.Helper()
		for range 100 {
			runtime.Gosched()
		}
		select {
		case p := <-out:
			t.Fatalf("%s woke the consumer with slots %v", when, p.slots)
		default:
		}
		waitParked(t, r)
	}

	park()
	for slot := 1; slot <= 2; slot++ {
		if !r.Hold(frame(slot)) {
			t.Fatalf("hold of slot %d failed on an open ring", slot)
		}
	}
	asleep("Hold")
	if len(w.batches) != 0 || r.Depth() != 2 {
		t.Fatalf("after two holds the writer saw %v and the depth is %d, want nothing and 2", w.batches, r.Depth())
	}
	if d, ok := r.Push(frame(3)); d != 0 || !ok {
		t.Fatalf("push behind held frames to a parked consumer: depth %d ok %v, want 0 true", d, ok)
	}
	asleep("a finished write of held frames")
	if len(w.batches) != 1 || !slices.Equal(w.batches[0], []int{1, 2, 3}) {
		t.Fatalf("writer batches %v, want one [1 2 3]", w.batches)
	}

	// Flush writes held frames alone; an unfinished batch wakes the
	// consumer with all of it and the prefix that went out.
	r.Hold(frame(4))
	r.Hold(frame(5))
	w.done, w.sent = false, 9
	if d := r.Flush(); d != 1 {
		t.Fatalf("unfinished flush: depth %d, want 1", d)
	}
	if p := <-out; !slices.Equal(p.slots, []int{4, 5}) || p.sent != 9 {
		t.Fatalf("woken consumer got slots %v sent %d, want [4 5] sent 9", p.slots, p.sent)
	}
	if len(w.batches) != 2 || !slices.Equal(w.batches[1], []int{4, 5}) {
		t.Fatalf("writer batches %v, want [4 5] second", w.batches)
	}
	if d := r.Flush(); d != 0 {
		t.Fatalf("flush with nothing held: depth %d, want 0", d)
	}

	// With nobody parked, Park returns due and held frames together, in the
	// order they were handed over, and Hold never counts as due.
	w.done = true
	r.Hold(frame(6))
	if d, _ := r.Push(frame(7)); d != 1 {
		t.Fatalf("push behind a held frame, nobody parked: depth %d, want 1", d)
	}
	r.Hold(frame(8))
	got, sent, ok := r.Park(nil, w)
	var slots []int
	for _, f := range got {
		slots = append(slots, f.Slot())
		f.Release()
	}
	if !ok || sent != 0 || !slices.Equal(slots, []int{6, 7, 8}) {
		t.Fatalf("Park returned slots %v sent %d ok %v, want [6 7 8] 0 true", slots, sent, ok)
	}
	if len(w.batches) != 2 {
		t.Fatalf("the writer was called with nobody parked: %v", w.batches)
	}

	// Drop releases held frames; Hold and Flush on a dropped ring do
	// nothing.
	r.Hold(frame(9))
	r.Hold(frame(10))
	r.Drop()
	f := frame(11)
	if r.Hold(f) || r.Flush() != 0 {
		t.Fatal("hold or flush acted on a dropped ring")
	}
	f.Release()
	if n := enc.Outstanding(); n != 0 {
		t.Fatalf("%d frames outstanding after Drop", n)
	}
}

// TestRingCloseDeliversHeld: frames still held when the producer closes
// the ring reach the consumer with the closure.
func TestRingCloseDeliversHeld(t *testing.T) {
	enc, _ := catalogues(t)
	r := NewRing(4)
	for slot := 1; slot <= 2; slot++ {
		f, err := enc.EncodeSlot(3, slot, []int{1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		r.Hold(f)
	}
	r.Close()
	got, ok := r.PopAll(nil)
	if ok || len(got) != 2 || got[0].Slot() != 1 || got[1].Slot() != 2 {
		t.Fatalf("PopAll after Close returned %d frames, ok %v; want the two held, closed", len(got), ok)
	}
	for _, f := range got {
		f.Release()
	}
}

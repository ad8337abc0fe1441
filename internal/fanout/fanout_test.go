package fanout

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

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
			if phase == 3 && r.Flush() != 2 {
				t.Fatal("a flush of two held frames with no Writer lent left them unqueued")
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

// fakeWriter is a ring owner's Writer that records the slots handed to it,
// one batch per call, and the skip each call got. When done is set it
// finishes every frame of a batch; else none, with sent bytes of the first
// gone out.
type fakeWriter struct {
	batches [][]int
	skips   []int
	sent    int
	done    bool
}

func (w *fakeWriter) WriteDirect(frames []*Frame, skip int) (int, int) {
	batch := []int{}
	for _, f := range frames {
		batch = append(batch, f.Slot())
	}
	w.batches = append(w.batches, batch)
	w.skips = append(w.skips, skip)
	if w.done {
		return len(frames), 0
	}
	return 0, w.sent
}

// TestRingWriterTakesDueFrames pins the write path: frames pushed before a
// Writer is lent queue; Write hands them over at once, and from then on
// every Push hands the due frames over in the same call. A finished frame is
// released; an unfinished one stays queued with its sent prefix, which the
// next call skips, and frames pushed behind it go in the same call, in the
// order they were handed over. Write retries on a closed ring, a ring with
// nothing due never calls its Writer, and a dropped ring never calls it
// again.
func TestRingWriterTakesDueFrames(t *testing.T) {
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

	// No Writer lent: the frame queues.
	if d, ok := r.Push(frame(1)); d != 1 || !ok {
		t.Fatalf("push with no Writer lent: depth %d ok %v, want 1 true", d, ok)
	}
	if d := r.Write(w); d != 0 || len(w.batches) != 1 || !slices.Equal(w.batches[0], []int{1}) {
		t.Fatalf("Write: depth %d, writer saw %v, want 0 and [[1]]", d, w.batches)
	}
	if d, ok := r.Push(frame(2)); d != 0 || !ok || !slices.Equal(w.batches[1], []int{2}) {
		t.Fatalf("push with a Writer lent: depth %d ok %v, writer saw %v", d, ok, w.batches)
	}

	// An unfinished write leaves the frame queued with its prefix: the next
	// push hands it over again, skipping the prefix, with the new frame
	// behind it.
	w.sent, w.done = 7, false
	if d, _ := r.Push(frame(3)); d != 1 {
		t.Fatalf("unfinished push: depth %d, want 1", d)
	}
	w.sent = 9
	if d, _ := r.Push(frame(4)); d != 2 {
		t.Fatalf("push behind an unfinished frame: depth %d, want 2", d)
	}
	if got := w.batches[3]; !slices.Equal(got, []int{3, 4}) || w.skips[3] != 7 {
		t.Fatalf("second call got slots %v skipping %d, want [3 4] skipping 7", got, w.skips[3])
	}
	// Close refuses frames; Write still retries what is queued.
	r.Close()
	f := frame(5)
	if _, ok := r.Push(f); ok {
		t.Fatal("push succeeded on a closed ring")
	}
	f.Release()
	if d := r.Write(w); d != 2 || w.skips[4] != 9 {
		t.Fatalf("retry on a closed ring: depth %d skip %d, want 2 and 9", d, w.skips[4])
	}
	w.done = true
	if d := r.Write(w); d != 0 || !slices.Equal(w.batches[5], []int{3, 4}) {
		t.Fatalf("finished retry: depth %d, writer saw %v", d, w.batches[5])
	}

	// Nothing due, nothing written: lending to an empty ring, or to one
	// holding frames, does not call the Writer. Drop ends the lending.
	calls := len(w.batches)
	r2 := NewRing(4)
	r2.Write(w)
	held := frame(6)
	if !r2.Hold(held) {
		held.Release()
		t.Fatal("hold on an open ring failed")
	}
	r2.Write(w)
	if len(w.batches) != calls {
		t.Fatalf("a ring with nothing due called its Writer %d times", len(w.batches)-calls)
	}
	r2.Drop()
	if d := r2.Write(nil); d != 0 || len(w.batches) != calls {
		t.Fatalf("a dropped ring called its Writer: depth %d, %d calls", d, len(w.batches)-calls)
	}
	if n := enc.Outstanding(); n != 0 {
		t.Fatalf("%d frames outstanding after every holder released", n)
	}
}

// TestRingHoldWaitsForFlush pins Hold: it never calls the Writer, so frames
// wait held. The next Push hands the held frames and its own to the Writer
// in one call, in the order they were handed over, and Flush does the same
// without a frame of its own; what the Writer leaves unfinished stays
// queued. Without a Writer, PopAll returns due and held frames together.
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
	r.Write(w)
	w.batches, w.skips = nil, nil
	for slot := 1; slot <= 2; slot++ {
		if !r.Hold(frame(slot)) {
			t.Fatalf("hold of slot %d failed on an open ring", slot)
		}
	}
	if len(w.batches) != 0 || r.Depth() != 2 {
		t.Fatalf("after two holds the writer saw %v and the depth is %d, want nothing and 2", w.batches, r.Depth())
	}
	if d, ok := r.Push(frame(3)); d != 0 || !ok {
		t.Fatalf("push behind held frames: depth %d ok %v, want 0 true", d, ok)
	}
	if len(w.batches) != 1 || !slices.Equal(w.batches[0], []int{1, 2, 3}) {
		t.Fatalf("writer batches %v, want one [1 2 3]", w.batches)
	}

	// Flush writes held frames alone; an unfinished batch stays queued with
	// the prefix that went out.
	r.Hold(frame(4))
	r.Hold(frame(5))
	w.done, w.sent = false, 9
	if d := r.Flush(); d != 2 {
		t.Fatalf("unfinished flush: depth %d, want 2", d)
	}
	if len(w.batches) != 2 || !slices.Equal(w.batches[1], []int{4, 5}) {
		t.Fatalf("writer batches %v, want [4 5] second", w.batches)
	}
	if d := r.Flush(); d != 0 || len(w.batches) != 2 {
		t.Fatalf("flush with nothing held: depth %d, %d calls; want 0 and no call", d, len(w.batches))
	}
	// A frame held behind the unfinished batch is not handed over by a
	// retry: only due frames are.
	r.Hold(frame(6))
	w.done = true
	if d := r.Write(w); d != 1 || !slices.Equal(w.batches[2], []int{4, 5}) || w.skips[2] != 9 {
		t.Fatalf("retry: depth %d, writer saw %v skipping %d, want 1, [4 5] skipping 9", d, w.batches[2], w.skips[2])
	}

	// Without a Writer, PopAll returns due and held frames together, in the
	// order they were handed over.
	r2 := NewRing(4)
	r2.Hold(frame(7))
	if d, _ := r2.Push(frame(8)); d != 2 {
		t.Fatalf("push behind a held frame, no Writer: depth %d, want 2", d)
	}
	r2.Hold(frame(9))
	got, ok := r2.PopAll(nil)
	var slots []int
	for _, f := range got {
		slots = append(slots, f.Slot())
		f.Release()
	}
	if !ok || !slices.Equal(slots, []int{7, 8, 9}) {
		t.Fatalf("PopAll returned slots %v ok %v, want [7 8 9] true", slots, ok)
	}

	// Drop releases held frames; Hold and Flush on a dropped ring do
	// nothing.
	r.Drop()
	f := frame(10)
	if r.Hold(f) || r.Flush() != 0 {
		t.Fatal("hold or flush acted on a dropped ring")
	}
	f.Release()
	if n := enc.Outstanding(); n != 0 {
		t.Fatalf("%d frames outstanding after Drop", n)
	}
}

// TestRingCloseDeliversHeld: frames still held when the producer closes
// the ring are popped with the closure.
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

package wire

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
)

// The append encoders exist so the fan-out can serialize into shared buffers
// without per-frame allocation; their one correctness obligation is emitting
// exactly the bytes WriteFrame would. These tests pin that equivalence over
// representative shapes (empty, one-byte, and VBR-sized payloads, extreme
// IDs and slots).

func TestAppendSegmentFrameMatchesWriteFrame(t *testing.T) {
	cases := []struct {
		videoID, segment uint32
		slot             uint64
		size             uint32
	}{
		{1, 1, 0, 0},
		{1, 2, 3, 1},
		{7, 31, 1 << 40, 1500},
		{0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFFFFFFFFFF, 64 << 10},
		{42, 0, 9, 777},
	}
	for _, c := range cases {
		payload := SegmentPayload(c.videoID, c.segment, c.size)
		var want bytes.Buffer
		if err := WriteFrame(&want, Segment{VideoID: c.videoID, Segment: c.segment, Slot: c.slot, Payload: payload}); err != nil {
			t.Fatalf("WriteFrame(%+v): %v", c, err)
		}
		got := AppendSegmentFrame(nil, c.videoID, c.segment, c.slot, c.size)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("AppendSegmentFrame(%+v) differs from WriteFrame: got %d bytes, want %d", c, len(got), want.Len())
		}
		if len(got) != segmentFrameOverhead+int(c.size) {
			t.Fatalf("frame length %d, want overhead %d + payload %d", len(got), segmentFrameOverhead, c.size)
		}
	}
}

func TestAppendSegmentFrameExtendsDst(t *testing.T) {
	prefix := []byte{0xAA, 0xBB}
	got := AppendSegmentFrame(append([]byte(nil), prefix...), 3, 4, 5, 1)
	if !bytes.Equal(got[:2], prefix) {
		t.Fatalf("prefix clobbered: %x", got[:2])
	}
	want := AppendSegmentFrame(nil, 3, 4, 5, 1)
	if !bytes.Equal(got[2:], want) {
		t.Fatalf("appended frame differs when dst is non-empty")
	}
}

func TestAppendSlotEndFrameMatchesWriteFrame(t *testing.T) {
	for _, slot := range []uint64{0, 1, 63, 1 << 33, 0xFFFFFFFFFFFFFFFF} {
		var want bytes.Buffer
		if err := WriteFrame(&want, SlotEnd{Slot: slot}); err != nil {
			t.Fatalf("WriteFrame(SlotEnd{%d}): %v", slot, err)
		}
		got := AppendSlotEndFrame(nil, slot)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("AppendSlotEndFrame(%d) = %x, want %x", slot, got, want.Bytes())
		}
	}
}

func TestAppendSegmentPayloadMatchesSegmentPayload(t *testing.T) {
	cases := []struct{ videoID, segment, size uint32 }{
		{0, 0, 16}, // zero seed falls back to the golden-ratio constant
		{1, 1, 0},
		{1, 2, 1},
		{12, 345, 2048},
		{0xFFFFFFFF, 7, 100},
	}
	for _, c := range cases {
		want := SegmentPayload(c.videoID, c.segment, c.size)
		got := AppendSegmentPayload(nil, c.videoID, c.segment, c.size)
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendSegmentPayload(%d,%d,%d) differs from SegmentPayload", c.videoID, c.segment, c.size)
		}
	}
}

// specSegmentPayload is the payload generator as first written, one
// xorshift64 step per byte: the definition the chunk tables must reproduce.
func specSegmentPayload(dst []byte, videoID, segment, size uint32) []byte {
	state := (uint64(videoID)<<32 ^ uint64(segment)) * 0x9E3779B97F4A7C15
	if state == 0 {
		state = 0x9E3779B97F4A7C15
	}
	for i := uint32(0); i < size; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		dst = append(dst, byte(state))
	}
	return dst
}

// checkPayloadMatchesSpec appends one payload behind prefix into a buffer
// of the given spare capacity and compares the result with the spec.
func checkPayloadMatchesSpec(t *testing.T, prefix []byte, spare int, videoID, segment, size uint32) {
	t.Helper()
	dst := append(make([]byte, 0, len(prefix)+spare), prefix...)
	got := AppendSegmentPayload(dst, videoID, segment, size)
	want := specSegmentPayload(append([]byte(nil), prefix...), videoID, segment, size)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendSegmentPayload(prefix %d B, spare %d, %d, %d, %d) differs from the spec",
			len(prefix), spare, videoID, segment, size)
	}
}

// TestAppendSegmentPayloadMatchesSpec covers every size through three
// chunks and one byte — the byte-at-a-time path, the switch to the tables at
// two chunks, and every tail length — for the zero-seed video and two
// ordinary ones, behind an empty and a non-empty prefix, into exact, short
// and zero spare capacity.
func TestAppendSegmentPayloadMatchesSpec(t *testing.T) {
	ids := []struct{ videoID, segment uint32 }{{0, 0}, {1, 1}, {0xFFFFFFFF, 12345}}
	prefixes := [][]byte{nil, {0xAA, 0xBB, 0xCC}}
	for size := uint32(0); size <= 3*payloadChunk+1; size++ {
		for _, id := range ids {
			for _, prefix := range prefixes {
				for _, spare := range []int{int(size), int(size) / 2, 0} {
					checkPayloadMatchesSpec(t, prefix, spare, id.videoID, id.segment, size)
				}
			}
		}
	}
}

func TestAppendSegmentPayloadAllocatesNothingWithRoom(t *testing.T) {
	for _, size := range []uint32{64, 4096} {
		buf := make([]byte, 0, size)
		if n := testing.AllocsPerRun(100, func() {
			buf = AppendSegmentPayload(buf[:0], 7, 3, size)
		}); n != 0 {
			t.Fatalf("AppendSegmentPayload of %d B into enough capacity: %v allocs, want 0", size, n)
		}
	}
}

// swapPayloadTables replaces the package's table builder with a fresh one
// for the rest of the test, counting its builds, so the test sees the first
// use whatever ran before it.
func swapPayloadTables(t *testing.T) *atomic.Int32 {
	var builds atomic.Int32
	saved := payloadTables
	payloadTables = sync.OnceValue(func() *payloadKernel {
		builds.Add(1)
		return newPayloadKernel()
	})
	t.Cleanup(func() { payloadTables = saved })
	return &builds
}

func TestShortPayloadsNeverBuildTables(t *testing.T) {
	builds := swapPayloadTables(t)
	buf := make([]byte, 0, 2*payloadChunk)
	for size := uint32(0); size < 2*payloadChunk; size++ {
		buf = AppendSegmentPayload(buf[:0], 3, 4, size)
	}
	if n := builds.Load(); n != 0 {
		t.Fatalf("payloads under %d B built the tables %d times", 2*payloadChunk, n)
	}
	AppendSegmentPayload(buf[:0], 3, 4, 2*payloadChunk)
	if n := builds.Load(); n != 1 {
		t.Fatalf("a %d B payload built the tables %d times, want 1", 2*payloadChunk, n)
	}
}

// TestConcurrentFirstPayloads races eight first payloads against the table
// build; make ci runs it under -race on four threads twenty times.
func TestConcurrentFirstPayloads(t *testing.T) {
	builds := swapPayloadTables(t)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := uint32(0); g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			size := 1024 + 37*g
			got := AppendSegmentPayload(nil, g, 9, size)
			if !bytes.Equal(got, specSegmentPayload(nil, g, 9, size)) {
				t.Errorf("video %d: a racing first payload differs from the spec", g)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("tables built %d times, want 1", n)
	}
}

func TestAppendSegmentFrameRoundTrips(t *testing.T) {
	payload := SegmentPayload(9, 4, 333)
	raw := AppendSegmentFrame(nil, 9, 4, 77, uint32(len(payload)))
	msg, err := ReadFrame(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	seg, ok := msg.(Segment)
	if !ok {
		t.Fatalf("decoded %T, want Segment", msg)
	}
	if seg.VideoID != 9 || seg.Segment != 4 || seg.Slot != 77 || !bytes.Equal(seg.Payload, payload) {
		t.Fatalf("round trip mismatch: %+v", seg)
	}
}

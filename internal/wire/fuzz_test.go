package wire

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// FuzzReadFrame feeds arbitrary bytes to the frame decoder: it must never
// panic, never allocate unboundedly, and round-trip anything it accepts.
func FuzzReadFrame(f *testing.F) {
	// Seed with valid frames of each type.
	seeds := []any{
		Request{VideoID: 1, Version: ProtoV2},
		Request{VideoID: 1, FromSegment: 2, Version: ProtoV2,
			Flags: FlagNoReport, TraceID: 7, SpanID: 8},
		ScheduleInfo{VideoID: 1, Segments: 2, SlotMillis: 10, SegmentBytes: 64,
			AdmitSlot: 5, Version: ProtoV2, Periods: []uint32{1, 2}},
		ScheduleInfo{VideoID: 1, Segments: 2, SlotMillis: 10, SegmentBytes: 64,
			AdmitSlot: 5, Version: ProtoV2, TraceID: 3, SpanID: 4,
			Periods: []uint32{1, 2}, SegmentSizes: []uint32{32, 64}},
		Segment{VideoID: 1, Segment: 2, Slot: 3, Payload: []byte("abc")},
		SlotEnd{Slot: 9},
		ErrorMsg{Text: "boom"},
		ClientReport{Version: ProtoV2, VideoID: 1, TraceID: 7, SpanID: 8,
			AdmitSlot: 5, SegmentsNeeded: 2, SegmentsReceived: 2,
			MinSlackSlots: -1, SumSlackSlots: 3, PayloadBytes: 128},
	}
	for _, msg := range seeds {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, msg); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, raw []byte) {
		msg, err := ReadFrame(bytes.NewReader(raw))
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Anything accepted must re-encode and decode to the same value.
		var buf bytes.Buffer
		if err := WriteFrame(&buf, msg); err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		back, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		checkEqualFrames(t, msg, back)
	})
}

// checkEqualFrames compares every field, so a decoder that scrambles any of
// them fails the round trip.
func checkEqualFrames(t *testing.T, a, b any) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("round trip mismatch: %+v vs %+v", a, b)
	}
}

// FuzzReadFrameStream verifies the decoder's framing discipline: after a
// valid frame it must resume exactly at the next frame boundary.
func FuzzReadFrameStream(f *testing.F) {
	f.Add(uint32(3), []byte("xyz"))
	f.Fuzz(func(t *testing.T, video uint32, payload []byte) {
		// A copy, so an empty payload is non-nil like the decoded one.
		payload = append([]byte{}, payload[:min(len(payload), 4096)]...)
		var buf bytes.Buffer
		first := Segment{VideoID: video, Segment: 1, Slot: 2, Payload: payload}
		second := SlotEnd{Slot: 7}
		if err := WriteFrame(&buf, first); err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(&buf, second); err != nil {
			t.Fatal(err)
		}
		r := bytes.NewReader(buf.Bytes())
		got1, err := ReadFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		checkEqualFrames(t, first, got1)
		got2, err := ReadFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		checkEqualFrames(t, second, got2)
		if _, err := ReadFrame(r); err != io.EOF {
			t.Fatalf("want EOF after last frame, got %v", err)
		}
	})
}

// FuzzSegmentPayload checks the chunked payload generator against the
// byte-at-a-time spec on any video, segment, size up to 64 KiB and dst
// prefix.
func FuzzSegmentPayload(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(200), []byte{})
	f.Add(uint32(1), uint32(1), uint32(127), []byte{1})
	f.Add(uint32(7), uint32(99), uint32(4096), []byte("prefix"))
	f.Fuzz(func(t *testing.T, video, segment, size uint32, prefix []byte) {
		size %= 64<<10 + 1
		got := AppendSegmentPayload(append([]byte(nil), prefix...), video, segment, size)
		want := specSegmentPayload(append([]byte(nil), prefix...), video, segment, size)
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendSegmentPayload(prefix %d B, %d, %d, %d) differs from the spec", len(prefix), video, segment, size)
		}
	})
}

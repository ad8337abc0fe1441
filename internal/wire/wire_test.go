package wire

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, msg any) any {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, msg); err != nil {
		t.Fatalf("write %T: %v", msg, err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("read %T: %v", msg, err)
	}
	return got
}

func TestRoundTripAllTypes(t *testing.T) {
	msgs := []any{
		Request{VideoID: 7, Version: ProtoV2},
		ScheduleInfo{
			VideoID:      1,
			Segments:     3,
			SlotMillis:   50,
			SegmentBytes: 4096,
			AdmitSlot:    123456789,
			Version:      ProtoV2,
			Periods:      []uint32{1, 2, 3},
		},
		Segment{VideoID: 2, Segment: 9, Slot: 42, Payload: []byte("hello segment")},
		SlotEnd{Slot: 99},
		ErrorMsg{Text: "no such video"},
	}
	for _, msg := range msgs {
		got := roundTrip(t, msg)
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("round trip %T:\n got %+v\nwant %+v", msg, got, msg)
		}
	}
}

// TestRoundTripVersionedFrames covers the version-carrying frames: requests
// with flags and trace ids, schedule infos with their trace block (with and
// without VBR sizes), and the client report.
func TestRoundTripVersionedFrames(t *testing.T) {
	msgs := []any{
		Request{VideoID: 7, FromSegment: 3, Version: ProtoV2},
		Request{VideoID: 7, Version: ProtoV2, Flags: FlagNoReport | FlagNoTrace,
			TraceID: 0xDEADBEEF, SpanID: 42},
		ScheduleInfo{
			VideoID: 1, Segments: 3, SlotMillis: 50, SegmentBytes: 4096,
			AdmitSlot: 123456789, Version: ProtoV2, TraceID: 99, SpanID: 100,
			Periods: []uint32{1, 2, 3},
		},
		ScheduleInfo{
			VideoID: 1, Segments: 2, SlotMillis: 50, AdmitSlot: 5,
			Version: ProtoV2, Periods: []uint32{1, 2}, SegmentSizes: []uint32{64, 80},
		},
		ScheduleInfo{Version: ProtoV2, TraceID: 1, SpanID: 2}, // zero segments
		ClientReport{
			Version: ProtoV2, VideoID: 4, TraceID: 11, SpanID: 12, AdmitSlot: 9,
			FromSegment: 2, SegmentsNeeded: 5, SegmentsReceived: 4, SharedFrames: 3,
			StartupSlots: 1, DeadlineMisses: 1, Rebuffers: 1, MaxBuffered: 2,
			SessionSlots: 6, MinSlackSlots: -2, SumSlackSlots: 7, PayloadBytes: 1 << 40,
		},
	}
	for _, msg := range msgs {
		got := roundTrip(t, msg)
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("round trip %T:\n got %+v\nwant %+v", msg, got, msg)
		}
	}
}

// countingWriter records every Write it is handed.
type countingWriter struct {
	writes int
	buf    bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

// TestWriteFrameOneWrite: every message type reaches the writer as one Write
// carrying the whole frame, so a frame on a socket is one syscall.
func TestWriteFrameOneWrite(t *testing.T) {
	for _, msg := range []any{
		Request{VideoID: 7, Version: ProtoV2, Flags: FlagNoReport, TraceID: 1, SpanID: 2},
		ScheduleInfo{VideoID: 1, Segments: 3, SlotMillis: 50, SegmentBytes: 64, Version: ProtoV2,
			Periods: []uint32{1, 2, 3}},
		ScheduleInfo{VideoID: 1, Segments: 2, Version: ProtoV2, TraceID: 3, SpanID: 4,
			Periods: []uint32{1, 2}, SegmentSizes: []uint32{64, 80}},
		Segment{VideoID: 2, Segment: 9, Slot: 42, Payload: bytes.Repeat([]byte{7}, 1000)},
		SlotEnd{Slot: 99},
		ErrorMsg{Text: "no such video"},
		ClientReport{Version: ProtoV2, VideoID: 4, DeadlineMisses: 1},
	} {
		var w countingWriter
		if err := WriteFrame(&w, msg); err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		if w.writes != 1 {
			t.Errorf("%T took %d writes, want 1", msg, w.writes)
		}
		if got, err := ReadFrame(&w.buf); err != nil || !reflect.DeepEqual(got, msg) {
			t.Errorf("%T: read back %+v (%v), want %+v", msg, got, err, msg)
		}
	}
}

// TestPreV2FormsRejected: the package speaks only ProtoV2, so every older
// form is refused both ways. The encoder will not write a Request,
// ScheduleInfo or ClientReport below v2, and the decoder will not read the
// unversioned layouts (the 8-byte Request, the 24-byte ScheduleInfo head
// with or without its 4n-byte tail) nor a v2 layout announcing version 0
// or 1.
func TestPreV2FormsRejected(t *testing.T) {
	frame := func(typ MsgType, body []byte) []byte {
		return append([]byte{byte(typ), 0, 0, 0, byte(len(body))}, body...)
	}
	// announce encodes msg, a v2 frame with an n-byte body, and patches the
	// version field at body offset off.
	announce := func(msg any, n, off int, version uint16) []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, msg); err != nil || buf.Len() != 5+n {
			t.Fatalf("%T: %d-byte frame (%v), want a %d-byte body", msg, buf.Len(), err, n)
		}
		raw := buf.Bytes()
		raw[5+off], raw[5+off+1] = byte(version>>8), byte(version)
		return raw
	}
	v1Tail := make([]byte, 24+4*2)
	v1Tail[7] = 2 // two segments, two period words
	tests := []struct {
		msg any    // refused by WriteFrame
		raw []byte // refused by ReadFrame
	}{
		{Request{VideoID: 3, FromSegment: 2}, frame(TypeRequest, make([]byte, 8))},
		{ScheduleInfo{}, frame(TypeScheduleInfo, make([]byte, 24))},
		{ScheduleInfo{Segments: 2, Periods: []uint32{1, 2}}, frame(TypeScheduleInfo, v1Tail)},
		{Request{}, announce(Request{Version: ProtoV2}, 28, 8, 0)},
		{Request{Version: 1}, announce(Request{Version: ProtoV2}, 28, 8, 1)},
		{ScheduleInfo{}, announce(ScheduleInfo{Version: ProtoV2}, 42, 24, 0)},
		{ScheduleInfo{Version: 1}, announce(ScheduleInfo{Version: ProtoV2}, 42, 24, 1)},
		{ClientReport{}, announce(ClientReport{Version: ProtoV2}, 86, 0, 0)},
		{ClientReport{Version: 1}, announce(ClientReport{Version: ProtoV2}, 86, 0, 1)},
	}
	for _, tt := range tests {
		if err := WriteFrame(io.Discard, tt.msg); err == nil {
			t.Errorf("encoded %T %+v", tt.msg, tt.msg)
		}
		if got, err := ReadFrame(bytes.NewReader(tt.raw)); err == nil {
			t.Errorf("decoded %x as %+v", tt.raw, got)
		}
	}
}

func TestRoundTripEmptyPayload(t *testing.T) {
	got := roundTrip(t, Segment{VideoID: 1, Segment: 1, Slot: 1, Payload: []byte{}})
	seg, ok := got.(Segment)
	if !ok || len(seg.Payload) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(video, segment uint32, slot uint64, payload []byte) bool {
		if len(payload) > 1<<16 {
			payload = payload[:1<<16]
		}
		msg := Segment{VideoID: video, Segment: segment, Slot: slot, Payload: payload}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, msg); err != nil {
			return false
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		seg, ok := got.(Segment)
		if !ok {
			return false
		}
		return seg.VideoID == video && seg.Segment == segment && seg.Slot == slot &&
			bytes.Equal(seg.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMultipleFramesOnOneStream(t *testing.T) {
	var buf bytes.Buffer
	for i := uint64(0); i < 10; i++ {
		if err := WriteFrame(&buf, SlotEnd{Slot: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 10; i++ {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.(SlotEnd).Slot != i {
			t.Fatalf("frame %d out of order: %+v", i, got)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}

func TestWriteRejects(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, struct{}{}); err == nil {
		t.Error("unknown type accepted")
	}
	if err := WriteFrame(&buf, ScheduleInfo{Segments: 2, Version: ProtoV2, Periods: []uint32{1}}); err == nil {
		t.Error("mismatched periods accepted")
	}
	if err := WriteFrame(&buf, Segment{Payload: make([]byte, MaxBody+1)}); err == nil {
		t.Error("oversized body accepted")
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	tests := []struct {
		name string
		raw  []byte
	}{
		{name: "unknown type", raw: []byte{0xFF, 0, 0, 0, 0}},
		{name: "oversized", raw: []byte{byte(TypeSegment), 0xFF, 0xFF, 0xFF, 0xFF}},
		{name: "short request", raw: []byte{byte(TypeRequest), 0, 0, 0, 2, 1, 2}},
		{name: "short segment", raw: []byte{byte(TypeSegment), 0, 0, 0, 3, 1, 2, 3}},
		{name: "short slot end", raw: []byte{byte(TypeSlotEnd), 0, 0, 0, 2, 1, 2}},
		{name: "short schedule", raw: []byte{byte(TypeScheduleInfo), 0, 0, 0, 4, 1, 2, 3, 4}},
		{name: "truncated body", raw: []byte{byte(TypeSlotEnd), 0, 0, 0, 8, 1, 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadFrame(bytes.NewReader(tt.raw)); err == nil {
				t.Fatal("malformed frame accepted")
			}
		})
	}
}

func TestReadRejectsBadPeriodCount(t *testing.T) {
	var buf bytes.Buffer
	info := ScheduleInfo{Segments: 2, Version: ProtoV2, Periods: []uint32{1, 2}}
	if err := WriteFrame(&buf, info); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Corrupt the segment count so it disagrees with the period bytes.
	raw[5+4+3] = 9
	if _, err := ReadFrame(bytes.NewReader(raw)); err == nil ||
		!strings.Contains(err.Error(), "tail bytes") {
		t.Fatalf("corrupted schedule accepted: %v", err)
	}
}

func TestSegmentPayloadDeterministic(t *testing.T) {
	a := SegmentPayload(1, 2, 1024)
	b := SegmentPayload(1, 2, 1024)
	if !bytes.Equal(a, b) {
		t.Fatal("payload not deterministic")
	}
	c := SegmentPayload(1, 3, 1024)
	if bytes.Equal(a, c) {
		t.Fatal("different segments produced identical payloads")
	}
	d := SegmentPayload(2, 2, 1024)
	if bytes.Equal(a, d) {
		t.Fatal("different videos produced identical payloads")
	}
}

func TestSegmentPayloadLooksRandom(t *testing.T) {
	p := SegmentPayload(5, 7, 4096)
	counts := make(map[byte]int)
	for _, b := range p {
		counts[b]++
	}
	if len(counts) < 200 {
		t.Fatalf("payload uses only %d distinct byte values", len(counts))
	}
}

func TestReadRejectsOverflowingSegmentCount(t *testing.T) {
	// Regression: a forged ScheduleInfo whose segment count makes
	// 4*Segments wrap around uint32 must be rejected, not crash.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, ScheduleInfo{
		Segments: 2,
		Version:  ProtoV2,
		Periods:  []uint32{1, 2},
	}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Body layout: 4 video, 4 segments, ... Patch segments to 0x80000002 so
	// that 4*segments == 8 (mod 2^32), matching the 8 period bytes present.
	raw[5+4+0] = 0x80
	raw[5+4+3] = 0x02
	if _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("overflowing segment count accepted")
	}
}

func TestScheduleInfoWithSizesRoundTrip(t *testing.T) {
	info := ScheduleInfo{
		VideoID:      4,
		Segments:     3,
		SlotMillis:   25,
		SegmentBytes: 0,
		AdmitSlot:    11,
		Version:      ProtoV2,
		Periods:      []uint32{1, 3, 3},
		SegmentSizes: []uint32{100, 250, 80},
	}
	got := roundTrip(t, info)
	back, ok := got.(ScheduleInfo)
	if !ok || !reflect.DeepEqual(back, info) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, info)
	}
	if back.SizeOf(2) != 250 {
		t.Fatalf("SizeOf(2) = %d, want 250", back.SizeOf(2))
	}
}

func TestScheduleInfoSizeOfUniform(t *testing.T) {
	info := ScheduleInfo{Segments: 2, SegmentBytes: 512, Periods: []uint32{1, 2}}
	if info.SizeOf(1) != 512 || info.SizeOf(2) != 512 {
		t.Fatal("uniform SizeOf broken")
	}
}

func TestWriteRejectsMismatchedSizes(t *testing.T) {
	var buf bytes.Buffer
	err := WriteFrame(&buf, ScheduleInfo{
		Segments:     2,
		Version:      ProtoV2,
		Periods:      []uint32{1, 2},
		SegmentSizes: []uint32{7},
	})
	if err == nil {
		t.Fatal("mismatched sizes accepted")
	}
}

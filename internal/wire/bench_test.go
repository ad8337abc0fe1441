package wire

import (
	"bytes"
	"io"
	"testing"
)

// The trace-propagation A/B (the serving-path codec figures are the wire.*
// rows of BENCHMARK.json): the v1 benchmarks are
// the disabled path — the exact frames a pre-v2 deployment keeps exchanging
// after this change — and must stay within the repo's 2% off-path
// observability budget of the pre-change baseline (measured against a
// baseline worktree). The v2
// benchmarks price the enabled path: one fixed 20/18-byte trace block per
// control frame, never per segment frame.

func benchWrite(b *testing.B, msg any) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteFrame(io.Discard, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRead(b *testing.B, msg any) {
	b.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, msg); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadFrame(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRequest(version uint16) Request {
	req := Request{VideoID: 7, FromSegment: 3, Version: version}
	if version >= ProtoV2 {
		req.TraceID = 0xDEADBEEF
		req.SpanID = 42
	}
	return req
}

func benchScheduleInfo(version uint16, segments int) ScheduleInfo {
	periods := make([]uint32, segments)
	for i := range periods {
		periods[i] = uint32(i + 1)
	}
	info := ScheduleInfo{
		VideoID: 1, Segments: uint32(segments), SlotMillis: 500,
		SegmentBytes: 4096, AdmitSlot: 123456, Version: version, Periods: periods,
	}
	if version >= ProtoV2 {
		info.TraceID = 0xDEADBEEF
		info.SpanID = 42
	}
	return info
}

func BenchmarkWriteRequestV1(b *testing.B) { benchWrite(b, benchRequest(0)) }
func BenchmarkWriteRequestV2(b *testing.B) { benchWrite(b, benchRequest(ProtoV2)) }
func BenchmarkReadRequestV1(b *testing.B)  { benchRead(b, benchRequest(0)) }
func BenchmarkReadRequestV2(b *testing.B)  { benchRead(b, benchRequest(ProtoV2)) }

func BenchmarkWriteScheduleInfoV1(b *testing.B) { benchWrite(b, benchScheduleInfo(0, 99)) }
func BenchmarkWriteScheduleInfoV2(b *testing.B) { benchWrite(b, benchScheduleInfo(ProtoV2, 99)) }
func BenchmarkReadScheduleInfoV1(b *testing.B)  { benchRead(b, benchScheduleInfo(0, 99)) }
func BenchmarkReadScheduleInfoV2(b *testing.B)  { benchRead(b, benchScheduleInfo(ProtoV2, 99)) }

func BenchmarkWriteClientReport(b *testing.B) {
	benchWrite(b, ClientReport{Version: ProtoV2, VideoID: 1, TraceID: 7, SpanID: 8,
		AdmitSlot: 5, SegmentsNeeded: 99, SegmentsReceived: 99, PayloadBytes: 1 << 20})
}

// BenchmarkWriteSegment prices the data plane the versioning change must
// not touch: segment frames are identical bytes in both protocol versions.
func BenchmarkWriteSegment(b *testing.B) {
	benchWrite(b, Segment{VideoID: 1, Segment: 2, Slot: 3,
		Payload: SegmentPayload(1, 2, 4096)})
}

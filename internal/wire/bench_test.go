package wire

import (
	"bytes"
	"fmt"
	"io"
	"testing"
)

// The codec's control and data frames (the serving-path codec figures are
// the wire.* rows of BENCHMARK.json). A control frame carries one fixed
// 20/18-byte trace block; a segment frame carries none.

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

func benchRequest() Request {
	return Request{VideoID: 7, FromSegment: 3, Version: ProtoV2, TraceID: 0xDEADBEEF, SpanID: 42}
}

func benchScheduleInfo(segments int) ScheduleInfo {
	periods := make([]uint32, segments)
	for i := range periods {
		periods[i] = uint32(i + 1)
	}
	return ScheduleInfo{
		VideoID: 1, Segments: uint32(segments), SlotMillis: 500, SegmentBytes: 4096,
		AdmitSlot: 123456, Version: ProtoV2, TraceID: 0xDEADBEEF, SpanID: 42, Periods: periods,
	}
}

func BenchmarkWriteRequestV2(b *testing.B) { benchWrite(b, benchRequest()) }
func BenchmarkReadRequestV2(b *testing.B)  { benchRead(b, benchRequest()) }

func BenchmarkWriteScheduleInfoV2(b *testing.B) { benchWrite(b, benchScheduleInfo(99)) }
func BenchmarkReadScheduleInfoV2(b *testing.B)  { benchRead(b, benchScheduleInfo(99)) }

func BenchmarkWriteClientReport(b *testing.B) {
	benchWrite(b, ClientReport{Version: ProtoV2, VideoID: 1, TraceID: 7, SpanID: 8,
		AdmitSlot: 5, SegmentsNeeded: 99, SegmentsReceived: 99, PayloadBytes: 1 << 20})
}

// BenchmarkWriteSegment prices the data plane: a segment frame carries no
// version or trace fields.
func BenchmarkWriteSegment(b *testing.B) {
	benchWrite(b, Segment{VideoID: 1, Segment: 2, Slot: 3,
		Payload: SegmentPayload(1, 2, 4096)})
}

// BenchmarkAppendSegmentPayload prices payload generation in place, into a
// buffer with room: 64 B takes the byte-at-a-time path, the larger sizes the
// 64-byte chunk tables.
func BenchmarkAppendSegmentPayload(b *testing.B) {
	for _, size := range []uint32{64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			buf := make([]byte, 0, size)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = AppendSegmentPayload(buf[:0], uint32(i), 1, size)
			}
		})
	}
}

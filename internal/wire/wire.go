// Package wire defines the binary protocol between the networked DHB video
// server (internal/vodserver) and its set-top-box client
// (internal/vodclient).
//
// Every message is a frame:
//
//	1 byte  type
//	4 bytes big-endian body length
//	body
//
// The control flow is minimal, mirroring the paper's protocol: the client
// sends one Request for a video; the server answers with ScheduleInfo
// (segment count, slot length, the slot the request was admitted in, and the
// maximum-period vector so the client knows every deadline); from then on
// the server pushes Segment frames carrying the actual video bytes and a
// SlotEnd frame at every slot boundary until the client's last deadline has
// passed.
//
// # Protocol versions
//
// The original protocol carried no version field; those frames are "v1" and
// remain valid byte-for-byte. Version 2 adds the client QoE loop: a Request
// may announce Version 2 (plus feature flags), the server's ScheduleInfo
// then echoes the negotiated version together with the TraceID/SpanID of the
// server-side admission trace, and the session ends with the client pushing
// one ClientReport frame summarizing what it observed — startup delay,
// per-segment slack to the AdmitSlot+T[j] deadline, misses, rebuffers. A
// server that only speaks v1 ignores the unknown fields' absence (a v2
// client downgrades when the ScheduleInfo comes back versionless), and a v1
// client's 8-byte Request decodes exactly as before, so both directions
// negotiate down for free. Version discrimination is structural: every v2
// body length is distinguishable from every legal v1 body length (see the
// layout comments on each frame).
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// MsgType identifies a frame.
type MsgType uint8

// Message types.
const (
	TypeRequest MsgType = iota + 1
	TypeScheduleInfo
	TypeSegment
	TypeSlotEnd
	TypeError
	TypeClientReport
)

// Protocol versions. Zero means "versionless", the original v1 wire format;
// ProtoV2 adds trace propagation and the end-of-session ClientReport.
const (
	ProtoV1 uint16 = 1
	ProtoV2 uint16 = 2
	// MaxProto is the highest version this package speaks; peers announcing
	// more negotiate down to it.
	MaxProto = ProtoV2
)

// Request feature flags (v2 and later).
const (
	// FlagNoReport tells the server the client will not send a ClientReport
	// at session end, so it must not wait for one.
	FlagNoReport uint16 = 1 << iota
	// FlagNoTrace opts the session out of trace propagation: the server
	// leaves the ScheduleInfo trace fields zero and attaches no client
	// spans.
	FlagNoTrace
)

// MaxBody bounds a frame body; anything larger is rejected as corrupt
// before allocation.
const MaxBody = 16 << 20

// Request asks the server to admit one customer for a video. A FromSegment
// above 1 resumes interactive playback at that segment; 0 and 1 both mean a
// full viewing.
//
// Body layout: v1 is exactly 8 bytes (VideoID, FromSegment). A Version of 2
// or more appends Version, Flags, TraceID and SpanID for a fixed 28 bytes,
// so the two layouts never collide.
type Request struct {
	VideoID     uint32
	FromSegment uint32
	// Version is the highest protocol version the client speaks; 0 means a
	// versionless (v1) request with none of the fields below on the wire.
	Version uint16
	// Flags carries v2 feature bits (FlagNoReport, FlagNoTrace).
	Flags uint16
	// TraceID and SpanID optionally continue a caller-side trace; zero asks
	// the server to start a fresh trace.
	TraceID uint64
	SpanID  uint64
}

// ScheduleInfo tells the admitted customer everything it needs to verify
// timely delivery.
//
// Body layout: a 24-byte fixed head, then (v2 only) an 18-byte trace block
// (Version, TraceID, SpanID), then the period vector and the optional
// per-segment size vector. A v1 tail is always a multiple of 4 bytes while
// the v2 trace block shifts the tail to 2 mod 4, so the decoder
// discriminates the versions structurally without a type byte.
type ScheduleInfo struct {
	VideoID      uint32
	Segments     uint32
	SlotMillis   uint32
	SegmentBytes uint32
	// AdmitSlot is the slot during which the request was admitted; segment
	// j arrives by slot AdmitSlot + Periods[j-1].
	AdmitSlot uint64
	// Version is the protocol version the server negotiated for the
	// session; 0 means a versionless (v1) schedule with no trace fields on
	// the wire and no ClientReport expected.
	Version uint16
	// TraceID and SpanID identify the server-side admission trace the
	// client's QoE events will be joined to; zero when the admission was
	// not sampled (or tracing was declined).
	TraceID uint64
	SpanID  uint64
	// Periods is the maximum-period vector, 0-indexed by segment-1.
	Periods []uint32
	// SegmentSizes optionally carries per-segment payload sizes for
	// variable-bit-rate videos (Section 4); empty means every segment is
	// SegmentBytes long. When present its length must equal Segments.
	SegmentSizes []uint32
}

// SizeOf reports the payload size of 1-based segment j under the schedule.
func (s ScheduleInfo) SizeOf(j uint32) uint32 {
	if len(s.SegmentSizes) == 0 {
		return s.SegmentBytes
	}
	return s.SegmentSizes[j-1]
}

// Segment carries the payload of one broadcast segment instance.
type Segment struct {
	VideoID uint32
	Segment uint32
	Slot    uint64
	Payload []byte
}

// SlotEnd marks a slot boundary on the data stream.
type SlotEnd struct {
	Slot uint64
}

// ErrorMsg reports a server-side rejection.
type ErrorMsg struct {
	Text string
}

// ClientReport is the customer's end-of-session QoE summary (v2 and later):
// the client-side half of the paper's delivery contract. The server folds it
// into the client_* metric families and, when TraceID is set, joins the
// session to the admission trace in /spanz. The body is a fixed 86 bytes.
type ClientReport struct {
	// Version is the protocol version the client spoke (>= ProtoV2).
	Version uint16
	VideoID uint32
	// TraceID and SpanID echo the ScheduleInfo trace fields so the server
	// can parent the client's session onto the admission span; zero when
	// the admission was unsampled or tracing was declined.
	TraceID uint64
	SpanID  uint64
	// AdmitSlot echoes the granted schedule; FromSegment the resume point.
	AdmitSlot   uint64
	FromSegment uint32
	// SegmentsNeeded counts the segments the customer had to download
	// (n - from + 1); SegmentsReceived how many actually arrived before the
	// stream ended; SharedFrames the broadcast frames for segments already
	// held.
	SegmentsNeeded   uint32
	SegmentsReceived uint32
	SharedFrames     uint32
	// StartupSlots is the delay, in slots after AdmitSlot, before the first
	// needed segment arrived (the client-side startup latency).
	StartupSlots uint32
	// DeadlineMisses counts needed segments that were not fully received by
	// slot AdmitSlot + T[j]; Rebuffers counts the stall events those misses
	// caused (consecutive misses share one stall).
	DeadlineMisses uint32
	Rebuffers      uint32
	// MaxBuffered is the peak number of segments held before consumption;
	// SessionSlots the session length in slots.
	MaxBuffered  uint32
	SessionSlots uint32
	// MinSlackSlots is the tightest observed slack, deadline minus arrival
	// slot, over the needed segments that arrived (negative = a miss);
	// SumSlackSlots the total, so mean slack = sum / received.
	MinSlackSlots int32
	SumSlackSlots int64
	// PayloadBytes counts verified payload bytes the client consumed; the
	// server compares it against the paper's per-customer bandwidth bound.
	PayloadBytes uint64
}

// clientReportLen is the fixed ClientReport body length.
const clientReportLen = 2 + 4 + 8 + 8 + 8 + 9*4 + 4 + 8 + 8

// WriteFrame serializes one message to w. The header and body are built in
// one buffer and handed to w in a single Write, so a frame on a socket costs
// one syscall.
func WriteFrame(w io.Writer, msg any) error {
	var t MsgType
	buf := make([]byte, 5, 5+64)
	switch m := msg.(type) {
	case Request:
		t = TypeRequest
		buf = binary.BigEndian.AppendUint32(buf, m.VideoID)
		buf = binary.BigEndian.AppendUint32(buf, m.FromSegment)
		if m.Version == 0 {
			// Versionless v1 layout: the trace fields cannot travel.
			if m.Flags != 0 || m.TraceID != 0 || m.SpanID != 0 {
				return fmt.Errorf("wire: request carries v2 fields without a version")
			}
			break
		}
		if m.Version == ProtoV1 {
			return fmt.Errorf("wire: request version %d has no versioned layout", m.Version)
		}
		buf = binary.BigEndian.AppendUint16(buf, m.Version)
		buf = binary.BigEndian.AppendUint16(buf, m.Flags)
		buf = binary.BigEndian.AppendUint64(buf, m.TraceID)
		buf = binary.BigEndian.AppendUint64(buf, m.SpanID)
	case ScheduleInfo:
		t = TypeScheduleInfo
		buf = slices.Grow(buf, 24+18+4*len(m.Periods)+4*len(m.SegmentSizes))
		buf = binary.BigEndian.AppendUint32(buf, m.VideoID)
		buf = binary.BigEndian.AppendUint32(buf, m.Segments)
		buf = binary.BigEndian.AppendUint32(buf, m.SlotMillis)
		buf = binary.BigEndian.AppendUint32(buf, m.SegmentBytes)
		buf = binary.BigEndian.AppendUint64(buf, m.AdmitSlot)
		switch {
		case m.Version == 0:
			if m.TraceID != 0 || m.SpanID != 0 {
				return fmt.Errorf("wire: schedule info carries trace fields without a version")
			}
		case m.Version == ProtoV1:
			return fmt.Errorf("wire: schedule info version %d has no versioned layout", m.Version)
		default:
			buf = binary.BigEndian.AppendUint16(buf, m.Version)
			buf = binary.BigEndian.AppendUint64(buf, m.TraceID)
			buf = binary.BigEndian.AppendUint64(buf, m.SpanID)
		}
		if uint32(len(m.Periods)) != m.Segments {
			return fmt.Errorf("wire: schedule info has %d periods for %d segments", len(m.Periods), m.Segments)
		}
		if len(m.SegmentSizes) != 0 && uint32(len(m.SegmentSizes)) != m.Segments {
			return fmt.Errorf("wire: schedule info has %d sizes for %d segments", len(m.SegmentSizes), m.Segments)
		}
		for _, p := range m.Periods {
			buf = binary.BigEndian.AppendUint32(buf, p)
		}
		for _, sz := range m.SegmentSizes {
			buf = binary.BigEndian.AppendUint32(buf, sz)
		}
	case Segment:
		t = TypeSegment
		buf = slices.Grow(buf, 16+len(m.Payload))
		buf = binary.BigEndian.AppendUint32(buf, m.VideoID)
		buf = binary.BigEndian.AppendUint32(buf, m.Segment)
		buf = binary.BigEndian.AppendUint64(buf, m.Slot)
		buf = append(buf, m.Payload...)
	case SlotEnd:
		t = TypeSlotEnd
		buf = binary.BigEndian.AppendUint64(buf, m.Slot)
	case ErrorMsg:
		t = TypeError
		buf = append(buf, m.Text...)
	case ClientReport:
		t = TypeClientReport
		if m.Version < ProtoV2 {
			return fmt.Errorf("wire: client report requires version >= %d, have %d", ProtoV2, m.Version)
		}
		buf = slices.Grow(buf, clientReportLen)
		buf = binary.BigEndian.AppendUint16(buf, m.Version)
		buf = binary.BigEndian.AppendUint32(buf, m.VideoID)
		buf = binary.BigEndian.AppendUint64(buf, m.TraceID)
		buf = binary.BigEndian.AppendUint64(buf, m.SpanID)
		buf = binary.BigEndian.AppendUint64(buf, m.AdmitSlot)
		buf = binary.BigEndian.AppendUint32(buf, m.FromSegment)
		buf = binary.BigEndian.AppendUint32(buf, m.SegmentsNeeded)
		buf = binary.BigEndian.AppendUint32(buf, m.SegmentsReceived)
		buf = binary.BigEndian.AppendUint32(buf, m.SharedFrames)
		buf = binary.BigEndian.AppendUint32(buf, m.StartupSlots)
		buf = binary.BigEndian.AppendUint32(buf, m.DeadlineMisses)
		buf = binary.BigEndian.AppendUint32(buf, m.Rebuffers)
		buf = binary.BigEndian.AppendUint32(buf, m.MaxBuffered)
		buf = binary.BigEndian.AppendUint32(buf, m.SessionSlots)
		buf = binary.BigEndian.AppendUint32(buf, uint32(m.MinSlackSlots))
		buf = binary.BigEndian.AppendUint64(buf, uint64(m.SumSlackSlots))
		buf = binary.BigEndian.AppendUint64(buf, m.PayloadBytes)
	default:
		return fmt.Errorf("wire: unknown message type %T", msg)
	}
	body := len(buf) - 5
	if body > MaxBody {
		return fmt.Errorf("wire: body of %d bytes exceeds limit", body)
	}
	buf[0] = byte(t)
	binary.BigEndian.PutUint32(buf[1:5], uint32(body))
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// ReadFrame reads and decodes the next message from r.
func ReadFrame(r io.Reader) (any, error) {
	header := make([]byte, 5)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, err // io.EOF passes through for clean shutdown
	}
	t := MsgType(header[0])
	n := binary.BigEndian.Uint32(header[1:])
	if n > MaxBody {
		return nil, fmt.Errorf("wire: frame body of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("wire: read body: %w", err)
	}
	switch t {
	case TypeRequest:
		switch len(body) {
		case 8: // versionless v1
			return Request{
				VideoID:     binary.BigEndian.Uint32(body),
				FromSegment: binary.BigEndian.Uint32(body[4:]),
			}, nil
		case 28: // v2: version, flags, trace ids appended
			req := Request{
				VideoID:     binary.BigEndian.Uint32(body),
				FromSegment: binary.BigEndian.Uint32(body[4:]),
				Version:     binary.BigEndian.Uint16(body[8:]),
				Flags:       binary.BigEndian.Uint16(body[10:]),
				TraceID:     binary.BigEndian.Uint64(body[12:]),
				SpanID:      binary.BigEndian.Uint64(body[20:]),
			}
			if req.Version < ProtoV2 {
				return nil, fmt.Errorf("wire: versioned request announces version %d", req.Version)
			}
			return req, nil
		default:
			return nil, fmt.Errorf("wire: request body has %d bytes, want 8 or 28", len(body))
		}
	case TypeScheduleInfo:
		if len(body) < 24 {
			return nil, fmt.Errorf("wire: schedule info body has %d bytes, want >= 24", len(body))
		}
		info := ScheduleInfo{
			VideoID:      binary.BigEndian.Uint32(body[0:]),
			Segments:     binary.BigEndian.Uint32(body[4:]),
			SlotMillis:   binary.BigEndian.Uint32(body[8:]),
			SegmentBytes: binary.BigEndian.Uint32(body[12:]),
			AdmitSlot:    binary.BigEndian.Uint64(body[16:]),
		}
		rest := body[24:]
		// A v1 tail (periods, optionally sizes) is a multiple of 4 bytes;
		// the 18-byte v2 trace block shifts it to 2 mod 4, so the version is
		// decidable from the length alone.
		if len(rest)%4 == 2 {
			if len(rest) < 18 {
				return nil, fmt.Errorf("wire: schedule info carries a truncated trace block of %d bytes", len(rest))
			}
			info.Version = binary.BigEndian.Uint16(rest[0:])
			info.TraceID = binary.BigEndian.Uint64(rest[2:])
			info.SpanID = binary.BigEndian.Uint64(rest[10:])
			if info.Version < ProtoV2 {
				return nil, fmt.Errorf("wire: versioned schedule info announces version %d", info.Version)
			}
			rest = rest[18:]
		}
		// Compare in 64 bits: a forged segment count must not wrap the
		// expected byte length around uint32. The tail carries either the
		// period vector alone or periods followed by per-segment sizes.
		nSeg := uint64(info.Segments)
		switch uint64(len(rest)) {
		case 4 * nSeg:
		case 8 * nSeg:
			if nSeg == 0 {
				break
			}
			info.SegmentSizes = make([]uint32, info.Segments)
			sizes := rest[4*nSeg:]
			for i := range info.SegmentSizes {
				info.SegmentSizes[i] = binary.BigEndian.Uint32(sizes[4*i:])
			}
		default:
			return nil, fmt.Errorf("wire: schedule info carries %d tail bytes for %d segments", len(rest), info.Segments)
		}
		if info.Segments > 0 {
			info.Periods = make([]uint32, info.Segments)
			for i := range info.Periods {
				info.Periods[i] = binary.BigEndian.Uint32(rest[4*i:])
			}
		}
		return info, nil
	case TypeSegment:
		if len(body) < 16 {
			return nil, fmt.Errorf("wire: segment body has %d bytes, want >= 16", len(body))
		}
		payload := make([]byte, len(body)-16)
		copy(payload, body[16:])
		return Segment{
			VideoID: binary.BigEndian.Uint32(body[0:]),
			Segment: binary.BigEndian.Uint32(body[4:]),
			Slot:    binary.BigEndian.Uint64(body[8:]),
			Payload: payload,
		}, nil
	case TypeSlotEnd:
		if len(body) != 8 {
			return nil, fmt.Errorf("wire: slot end body has %d bytes, want 8", len(body))
		}
		return SlotEnd{Slot: binary.BigEndian.Uint64(body)}, nil
	case TypeError:
		return ErrorMsg{Text: string(body)}, nil
	case TypeClientReport:
		if len(body) != clientReportLen {
			return nil, fmt.Errorf("wire: client report body has %d bytes, want %d", len(body), clientReportLen)
		}
		rep := ClientReport{
			Version:          binary.BigEndian.Uint16(body[0:]),
			VideoID:          binary.BigEndian.Uint32(body[2:]),
			TraceID:          binary.BigEndian.Uint64(body[6:]),
			SpanID:           binary.BigEndian.Uint64(body[14:]),
			AdmitSlot:        binary.BigEndian.Uint64(body[22:]),
			FromSegment:      binary.BigEndian.Uint32(body[30:]),
			SegmentsNeeded:   binary.BigEndian.Uint32(body[34:]),
			SegmentsReceived: binary.BigEndian.Uint32(body[38:]),
			SharedFrames:     binary.BigEndian.Uint32(body[42:]),
			StartupSlots:     binary.BigEndian.Uint32(body[46:]),
			DeadlineMisses:   binary.BigEndian.Uint32(body[50:]),
			Rebuffers:        binary.BigEndian.Uint32(body[54:]),
			MaxBuffered:      binary.BigEndian.Uint32(body[58:]),
			SessionSlots:     binary.BigEndian.Uint32(body[62:]),
			MinSlackSlots:    int32(binary.BigEndian.Uint32(body[66:])),
			SumSlackSlots:    int64(binary.BigEndian.Uint64(body[70:])),
			PayloadBytes:     binary.BigEndian.Uint64(body[78:]),
		}
		if rep.Version < ProtoV2 {
			return nil, fmt.Errorf("wire: client report announces version %d", rep.Version)
		}
		return rep, nil
	default:
		return nil, fmt.Errorf("wire: unknown frame type %d", t)
	}
}

// SegmentPayload deterministically generates the bytes of one video segment
// so that the server never stores real video data and the client can verify
// every byte it receives. The generator is a seeded xorshift over the
// (video, segment) pair.
func SegmentPayload(videoID, segment, size uint32) []byte {
	return AppendSegmentPayload(make([]byte, 0, size), videoID, segment, size)
}

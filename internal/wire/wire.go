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
// # Protocol version
//
// The package speaks one version, ProtoV2. Every Request, ScheduleInfo and
// ClientReport carries it, and WriteFrame and ReadFrame reject one below it.
// Besides the admission exchange, v2 is the client QoE loop: the
// ScheduleInfo carries the TraceID/SpanID of the server-side admission
// trace, and the session ends with the client pushing one ClientReport frame
// summarizing what it observed — startup delay, per-segment slack to the
// AdmitSlot+T[j] deadline, misses, rebuffers. The Request flags let a client
// decline the report (FlagNoReport) or the trace (FlagNoTrace).
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

// ProtoV2 is the protocol version every Request, ScheduleInfo and
// ClientReport must carry at least.
const ProtoV2 uint16 = 2

// Request feature flags.
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
// Body layout: exactly 28 bytes — VideoID, FromSegment, Version, Flags,
// TraceID, SpanID.
type Request struct {
	VideoID     uint32
	FromSegment uint32
	// Version is the client's protocol version, at least ProtoV2.
	Version uint16
	// Flags carries the feature bits (FlagNoReport, FlagNoTrace).
	Flags uint16
	// TraceID and SpanID optionally continue a caller-side trace; zero asks
	// the server to start a fresh trace.
	TraceID uint64
	SpanID  uint64
}

// ScheduleInfo tells the admitted customer everything it needs to verify
// timely delivery.
//
// Body layout: a 42-byte head — 24 bytes of VideoID, Segments, SlotMillis,
// SegmentBytes and AdmitSlot, then the 18-byte trace block of Version,
// TraceID and SpanID — then the period vector (4n bytes for n segments),
// optionally followed by the per-segment size vector (another 4n).
type ScheduleInfo struct {
	VideoID      uint32
	Segments     uint32
	SlotMillis   uint32
	SegmentBytes uint32
	// AdmitSlot is the slot during which the request was admitted; segment
	// j arrives by slot AdmitSlot + Periods[j-1].
	AdmitSlot uint64
	// Version is the session's protocol version, at least ProtoV2.
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

// ClientReport is the customer's end-of-session QoE summary: the client-side
// half of the paper's delivery contract. The server folds it into the
// client_* metric families and, when SpanID is set, joins the session to the
// admission trace in its span stream. The body is a fixed 86 bytes.
type ClientReport struct {
	// Version is the client's protocol version, at least ProtoV2.
	Version uint16
	VideoID uint32
	// TraceID and SpanID echo the session's ScheduleInfo trace fields, zero
	// included; the server discards a report that does not echo them.
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

// Fixed body lengths: a Request, the ScheduleInfo head and a ClientReport.
const (
	requestLen      = 4 + 4 + 2 + 2 + 8 + 8
	scheduleHeadLen = 24 + 2 + 8 + 8
	clientReportLen = 2 + 4 + 8 + 8 + 8 + 9*4 + 4 + 8 + 8
)

// errVersion reports a Request, ScheduleInfo or ClientReport whose version
// is below ProtoV2.
func errVersion(msg any, v uint16) error {
	return fmt.Errorf("wire: %T carries version %d, want >= %d", msg, v, ProtoV2)
}

// WriteFrame serializes one message to w. The header and body are built in
// one buffer and handed to w in a single Write, so a frame on a socket costs
// one syscall.
func WriteFrame(w io.Writer, msg any) error {
	var t MsgType
	buf := make([]byte, 5, 5+64)
	switch m := msg.(type) {
	case Request:
		t = TypeRequest
		if m.Version < ProtoV2 {
			return errVersion(m, m.Version)
		}
		buf = binary.BigEndian.AppendUint32(buf, m.VideoID)
		buf = binary.BigEndian.AppendUint32(buf, m.FromSegment)
		buf = binary.BigEndian.AppendUint16(buf, m.Version)
		buf = binary.BigEndian.AppendUint16(buf, m.Flags)
		buf = binary.BigEndian.AppendUint64(buf, m.TraceID)
		buf = binary.BigEndian.AppendUint64(buf, m.SpanID)
	case ScheduleInfo:
		t = TypeScheduleInfo
		if m.Version < ProtoV2 {
			return errVersion(m, m.Version)
		}
		buf = slices.Grow(buf, scheduleHeadLen+4*len(m.Periods)+4*len(m.SegmentSizes))
		buf = binary.BigEndian.AppendUint32(buf, m.VideoID)
		buf = binary.BigEndian.AppendUint32(buf, m.Segments)
		buf = binary.BigEndian.AppendUint32(buf, m.SlotMillis)
		buf = binary.BigEndian.AppendUint32(buf, m.SegmentBytes)
		buf = binary.BigEndian.AppendUint64(buf, m.AdmitSlot)
		buf = binary.BigEndian.AppendUint16(buf, m.Version)
		buf = binary.BigEndian.AppendUint64(buf, m.TraceID)
		buf = binary.BigEndian.AppendUint64(buf, m.SpanID)
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
			return errVersion(m, m.Version)
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
		if len(body) != requestLen {
			return nil, fmt.Errorf("wire: request body has %d bytes, want %d", len(body), requestLen)
		}
		req := Request{
			VideoID:     binary.BigEndian.Uint32(body),
			FromSegment: binary.BigEndian.Uint32(body[4:]),
			Version:     binary.BigEndian.Uint16(body[8:]),
			Flags:       binary.BigEndian.Uint16(body[10:]),
			TraceID:     binary.BigEndian.Uint64(body[12:]),
			SpanID:      binary.BigEndian.Uint64(body[20:]),
		}
		if req.Version < ProtoV2 {
			return nil, errVersion(req, req.Version)
		}
		return req, nil
	case TypeScheduleInfo:
		if len(body) < scheduleHeadLen {
			return nil, fmt.Errorf("wire: schedule info body has %d bytes, want >= %d", len(body), scheduleHeadLen)
		}
		info := ScheduleInfo{
			VideoID:      binary.BigEndian.Uint32(body[0:]),
			Segments:     binary.BigEndian.Uint32(body[4:]),
			SlotMillis:   binary.BigEndian.Uint32(body[8:]),
			SegmentBytes: binary.BigEndian.Uint32(body[12:]),
			AdmitSlot:    binary.BigEndian.Uint64(body[16:]),
			Version:      binary.BigEndian.Uint16(body[24:]),
			TraceID:      binary.BigEndian.Uint64(body[26:]),
			SpanID:       binary.BigEndian.Uint64(body[34:]),
		}
		if info.Version < ProtoV2 {
			return nil, errVersion(info, info.Version)
		}
		rest := body[scheduleHeadLen:]
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
			return nil, errVersion(rep, rep.Version)
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

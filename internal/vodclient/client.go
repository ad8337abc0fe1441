// Package vodclient is the set-top-box side of the networked DHB system: it
// requests a video from a vodserver, receives the broadcast segment frames,
// verifies every payload byte, and feeds every slot the server writes to
// the STB of internal/client, which judges and measures each delivery
// deadline; the server skips the slots that carry none of the session's
// segments, and the STB settles those as empty. It
// reports what the STB measured — locally through the returned Result, and
// back to the server as a wire.ClientReport, which the server aggregates
// into its client_* metric families so operators see the customer's side
// of the delivery contract.
package vodclient

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"time"

	"vodcast/internal/client"
	"vodcast/internal/wire"
)

// Result describes one completed fetch.
type Result struct {
	// VideoID and Segments echo the schedule the server granted.
	VideoID  uint32
	Segments int
	// AdmitSlot is the slot the request was admitted in.
	AdmitSlot uint64
	// PayloadBytes counts verified video bytes received.
	PayloadBytes int64
	// SharedFrames counts segment frames that arrived for segments the
	// client already held (broadcast transmissions scheduled for other
	// overlapping customers).
	SharedFrames int
	// MaxBuffered is the peak number of segments held before consumption.
	MaxBuffered int
	// Elapsed is the wall-clock duration of the session.
	Elapsed time.Duration
	// FirstByte is the wall-clock delay from sending the request to the
	// first broadcast payload byte, the client-side view of the server's
	// vod_admit_first_byte_seconds summary.
	FirstByte time.Duration

	// QoE telemetry, in slots, as the STB measured it (client.QoE defines
	// each measure): its Startup, Misses, Rebuffers, Needed minus Received,
	// MinSlack, SumSlack over Received, and Slots. DeadlineMisses and
	// Rebuffers are always zero under StrictDeadlines, which fails the
	// fetch on the first miss.
	StartupSlots    int
	DeadlineMisses  int
	Rebuffers       int
	MissingSegments int
	MinSlackSlots   int
	MeanSlackSlots  float64
	SessionSlots    int
	// TraceID is the server's trace identifier for this session, zero when
	// the session was not sampled (or tracing was declined). The matching
	// spans are in the server's -span-trace stream and flight bundles.
	TraceID uint64
}

// FetchOptions parameterizes a fetch. The zero value of every field is the
// production default: fetch from the beginning, tolerate deadline misses
// (recording them as QoE telemetry), join the server's trace when offered,
// and send a ClientReport at session end.
type FetchOptions struct {
	// VideoID selects the catalogue entry.
	VideoID uint32
	// From resumes playback at this segment (0 and 1 both mean the
	// beginning).
	From uint32
	// Timeout bounds the whole session, dial included. Required.
	Timeout time.Duration
	// NoTrace declines trace propagation: the server will not hand this
	// session trace identifiers and synthesizes no client spans.
	NoTrace bool
	// NoReport opts out of the end-of-session ClientReport.
	NoReport bool
	// StrictDeadlines arms the full STB oracle: the first missed deadline
	// fails the fetch instead of being recorded as QoE telemetry.
	StrictDeadlines bool
}

// FetchWith runs one session against the server at addr as configured by
// opts: it speaks protocol v2, continuing the server's admit trace and
// summarizing playback QoE into a ClientReport, unless opts declines either.
func FetchWith(addr string, opts FetchOptions) (Result, error) {
	if opts.From == 0 {
		opts.From = 1
	}
	if opts.Timeout <= 0 {
		return Result{}, fmt.Errorf("vodclient: timeout %v must be positive", opts.Timeout)
	}
	// The session timeout and the first-byte clock both cover the dial.
	start := time.Now()
	conn, err := net.DialTimeout("tcp", addr, opts.Timeout)
	if err != nil {
		return Result{}, fmt.Errorf("vodclient: dial: %w", err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(start.Add(opts.Timeout)); err != nil {
		return Result{}, fmt.Errorf("vodclient: set deadline: %w", err)
	}

	req := wire.Request{VideoID: opts.VideoID, FromSegment: opts.From, Version: wire.ProtoV2}
	if opts.NoReport {
		req.Flags |= wire.FlagNoReport
	}
	if opts.NoTrace {
		req.Flags |= wire.FlagNoTrace
	}
	if err := wire.WriteFrame(conn, req); err != nil {
		return Result{}, fmt.Errorf("vodclient: send request: %w", err)
	}
	// One buffered reader serves the whole session, so a frame's header and
	// body usually come out of one read syscall instead of two.
	rd := bufio.NewReader(conn)
	msg, err := wire.ReadFrame(rd)
	if err != nil {
		return Result{}, fmt.Errorf("vodclient: read schedule: %w", err)
	}
	var info wire.ScheduleInfo
	switch m := msg.(type) {
	case wire.ScheduleInfo:
		info = m
	case wire.ErrorMsg:
		return Result{}, fmt.Errorf("vodclient: server rejected request: %s", m.Text)
	default:
		return Result{}, fmt.Errorf("vodclient: unexpected %T before schedule", msg)
	}
	if info.VideoID != opts.VideoID {
		return Result{}, fmt.Errorf("vodclient: schedule for video %d, requested %d", info.VideoID, opts.VideoID)
	}

	// Rebuild the 1-based period vector and arm the STB, which validates the
	// schedule and the resume point, then judges and measures every slot.
	periods := make([]int, info.Segments+1)
	for j := uint32(1); j <= info.Segments; j++ {
		periods[j] = int(info.Periods[j-1])
	}
	stb, err := client.NewFrom(int(info.AdmitSlot), periods, int(opts.From))
	if err != nil {
		return Result{}, fmt.Errorf("vodclient: %w", err)
	}

	res := Result{
		VideoID:   info.VideoID,
		Segments:  int(info.Segments),
		AdmitSlot: info.AdmitSlot,
		TraceID:   info.TraceID,
	}
	// The session ends when the last needed segment's deadline passes.
	lastSlot := 0
	for j := int(opts.From); j <= stb.N(); j++ {
		lastSlot = max(lastSlot, stb.Deadline(j))
	}
	var slotSegments []int
	var want []byte // the expected payload, rebuilt in place per segment
	for {
		msg, err := wire.ReadFrame(rd)
		if err != nil {
			return Result{}, fmt.Errorf("vodclient: read frame: %w", err)
		}
		switch m := msg.(type) {
		case wire.Segment:
			if m.VideoID != opts.VideoID {
				return Result{}, fmt.Errorf("vodclient: frame for video %d on a video-%d subscription", m.VideoID, opts.VideoID)
			}
			if res.FirstByte == 0 {
				res.FirstByte = time.Since(start)
			}
			if m.Segment < 1 || m.Segment > info.Segments {
				return Result{}, fmt.Errorf("vodclient: frame for unknown segment %d", m.Segment)
			}
			want = wire.AppendSegmentPayload(want[:0], m.VideoID, m.Segment, info.SizeOf(m.Segment))
			if !bytes.Equal(m.Payload, want) {
				return Result{}, fmt.Errorf("vodclient: corrupt payload for segment %d", m.Segment)
			}
			if stb.Received(int(m.Segment)) {
				res.SharedFrames++
			}
			res.PayloadBytes += int64(len(m.Payload))
			slotSegments = append(slotSegments, int(m.Segment))
		case wire.SlotEnd:
			err := stb.ObserveSlot(int(m.Slot), slotSegments)
			if err != nil && (opts.StrictDeadlines || !errors.Is(err, client.ErrMissedDeadline)) {
				return Result{}, fmt.Errorf("vodclient: %w", err)
			}
			slotSegments = slotSegments[:0]
			if int(m.Slot) >= lastSlot {
				if opts.StrictDeadlines && !stb.Complete() {
					return Result{}, fmt.Errorf("vodclient: stream ended with segments missing")
				}
				q := stb.QoE()
				res.MaxBuffered = stb.MaxBuffered()
				res.StartupSlots = q.Startup
				res.DeadlineMisses = q.Misses
				res.Rebuffers = q.Rebuffers
				res.MissingSegments = q.Needed - q.Received
				res.MinSlackSlots = q.MinSlack
				if q.Received > 0 {
					res.MeanSlackSlots = float64(q.SumSlack) / float64(q.Received)
				}
				res.SessionSlots = q.Slots
				res.Elapsed = time.Since(start)
				if !opts.NoReport {
					report := wire.ClientReport{
						Version: wire.ProtoV2, VideoID: info.VideoID, TraceID: info.TraceID, SpanID: info.SpanID,
						AdmitSlot: info.AdmitSlot, FromSegment: opts.From,
						SegmentsNeeded: uint32(q.Needed), SegmentsReceived: uint32(q.Received),
						SharedFrames: uint32(res.SharedFrames), PayloadBytes: uint64(res.PayloadBytes),
						StartupSlots: uint32(q.Startup), SessionSlots: uint32(q.Slots),
						DeadlineMisses: uint32(q.Misses), Rebuffers: uint32(q.Rebuffers),
						MaxBuffered: uint32(res.MaxBuffered), MinSlackSlots: int32(q.MinSlack), SumSlackSlots: q.SumSlack,
					}
					if err := wire.WriteFrame(conn, report); err != nil {
						return res, fmt.Errorf("vodclient: send report: %w", err)
					}
				}
				return res, nil
			}
		case wire.ErrorMsg:
			return Result{}, fmt.Errorf("vodclient: server error: %s", m.Text)
		default:
			return Result{}, fmt.Errorf("vodclient: unexpected frame %T", msg)
		}
	}
}

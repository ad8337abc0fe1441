package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"vodcast/internal/analysis"
	"vodcast/internal/client"
	"vodcast/internal/wire"
)

// This file is the lean verifying driver: it speaks the wire protocol
// itself so it can timestamp every boundary, and it keeps every check
// vodclient's strict mode makes — each payload compared byte for byte, every
// slot fed to the STB oracle, completeness at the last slot, a v2
// ClientReport at the end so the server's report path runs.

// payloadTable holds the expected bytes of every (video, segment) pair,
// generated once with the same function vodclient verifies against.
type payloadTable [][][]byte

func buildPayloadTable(w workload) payloadTable {
	t := make(payloadTable, w.Videos)
	for v := range t {
		t[v] = make([][]byte, w.Segments)
		for s := range t[v] {
			t[v][s] = wire.SegmentPayload(uint32(v+1), uint32(s+1), uint32(w.SegmentBytes))
		}
	}
	return t
}

// sessionResult is what one session measured. Durations are zero until the
// boundary they time was crossed.
type sessionResult struct {
	Err       error
	GenLate   time.Duration // how late the generator launched the session
	Dial      time.Duration // dial start -> connected
	AdmitRTT  time.Duration // dial start -> ScheduleInfo decoded
	FirstByte time.Duration // due time -> first verified payload
	Segments  int
	Bytes     int64
	// SlotGapsUs are the gaps between consecutive SlotEnd frames.
	SlotGapsUs []int32
}

var errRefused = errors.New("refused by server")

type driver struct {
	w       workload
	addr    string
	sched   []arrival
	table   payloadTable
	start   time.Time
	timeout time.Duration

	results     []sessionResult
	inflight    atomic.Int64
	inflightMax int64 // written by the dispatcher only
	readers     sync.Pool

	// periods is the period vector of the first admitted session, kept for
	// the analytic bandwidth check.
	periodsOnce sync.Once
	periods     []int
}

func newDriver(w workload, addr string, sched []arrival, table payloadTable) *driver {
	// A session lasts at most Segments+2 slots; anything much longer is a
	// hang, not a slow run.
	timeout := 10*time.Second + time.Duration(w.Segments+2)*w.slot()
	return &driver{
		w: w, addr: addr, sched: sched, table: table, timeout: timeout,
		results: make([]sessionResult, len(sched)),
		readers: sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 4096) }},
	}
}

// run dispatches every arrival at its due time, whatever the server is
// doing (open loop), and returns when the last session has ended. One
// goroutine sleeps to each due time; sessions are goroutines parked in the
// netpoller.
func (d *driver) run(start time.Time) {
	d.start = start
	var wg sync.WaitGroup
	for i := range d.sched {
		due := start.Add(d.sched[i].Due)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		d.results[i].GenLate = time.Since(due)
		if n := d.inflight.Add(1); n > d.inflightMax {
			d.inflightMax = n
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer d.inflight.Add(-1)
			d.results[i].Err = d.session(d.sched[i], &d.results[i])
		}(i)
	}
	wg.Wait()
}

// session runs one customer against the server and verifies everything it
// receives. Any error, refusal, missed deadline or missing segment fails it.
func (d *driver) session(a arrival, r *sessionResult) error {
	t0 := time.Now()
	conn, err := net.DialTimeout("tcp", d.addr, d.timeout)
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	defer conn.Close()
	r.Dial = time.Since(t0)
	if err := conn.SetDeadline(t0.Add(d.timeout)); err != nil {
		return err
	}

	// One write for the whole request frame: WriteFrame emits header and
	// body separately, which on a socket would be two syscalls and two
	// segments on the wire.
	var out bytes.Buffer
	req := wire.Request{VideoID: a.Video, FromSegment: a.From, Version: wire.ProtoV2}
	if err := wire.WriteFrame(&out, req); err != nil {
		return err
	}
	if _, err := conn.Write(out.Bytes()); err != nil {
		return fmt.Errorf("send request: %w", err)
	}
	br := d.readers.Get().(*bufio.Reader)
	br.Reset(conn)
	defer func() { br.Reset(nil); d.readers.Put(br) }()

	msg, err := wire.ReadFrame(br)
	if err != nil {
		return fmt.Errorf("read schedule: %w", err)
	}
	var info wire.ScheduleInfo
	switch m := msg.(type) {
	case wire.ScheduleInfo:
		info = m
	case wire.ErrorMsg:
		return fmt.Errorf("%w: %s", errRefused, m.Text)
	default:
		return fmt.Errorf("unexpected %T before schedule", msg)
	}
	r.AdmitRTT = time.Since(t0)
	if info.VideoID != a.Video || int(info.Segments) != d.w.Segments ||
		int(info.SlotMillis) != d.w.SlotMillis || int(info.SegmentBytes) != d.w.SegmentBytes ||
		info.Version != wire.ProtoV2 || len(info.SegmentSizes) != 0 {
		return fmt.Errorf("schedule does not match the workload: %+v", info)
	}
	n := d.w.Segments
	periods := make([]int, n+1)
	for j := 1; j <= n; j++ {
		periods[j] = int(info.Periods[j-1])
	}
	d.periodsOnce.Do(func() { d.periods = periods })
	admit, from := int(info.AdmitSlot), int(a.From)
	stb, err := client.NewFrom(admit, periods, from)
	if err != nil {
		return err
	}
	// The session ends when the shifted suffix's last deadline passes.
	lastSlot := admit
	for k := 1; k <= n-from+1; k++ {
		lastSlot = max(lastSlot, admit+periods[k])
	}

	report := wire.ClientReport{
		Version: wire.ProtoV2, VideoID: a.Video, TraceID: info.TraceID, SpanID: info.SpanID,
		AdmitSlot: info.AdmitSlot, FromSegment: a.From, SegmentsNeeded: uint32(n - from + 1),
		MinSlackSlots: int32(n),
	}
	due := d.start.Add(a.Due)
	var slotSegs []int
	var lastEnd time.Time
	r.SlotGapsUs = make([]int32, 0, lastSlot-admit)
	for {
		msg, err := wire.ReadFrame(br)
		if err != nil {
			return fmt.Errorf("read frame: %w", err)
		}
		switch m := msg.(type) {
		case wire.Segment:
			if m.VideoID != a.Video || m.Segment < 1 || int(m.Segment) > n {
				return fmt.Errorf("frame for video %d segment %d on a video-%d subscription", m.VideoID, m.Segment, a.Video)
			}
			if !bytes.Equal(m.Payload, d.table[a.Video-1][m.Segment-1]) {
				return fmt.Errorf("corrupt payload for segment %d", m.Segment)
			}
			if r.Segments == 0 {
				r.FirstByte = time.Since(due)
			}
			r.Segments++
			r.Bytes += int64(len(m.Payload))
			slotSegs = append(slotSegs, int(m.Segment))
		case wire.SlotEnd:
			now := time.Now()
			if !lastEnd.IsZero() {
				r.SlotGapsUs = append(r.SlotGapsUs, int32(now.Sub(lastEnd)/time.Microsecond))
			}
			lastEnd = now
			slot := int(m.Slot)
			// Fold the slot into the report before the oracle marks its
			// segments received.
			for _, j := range slotSegs {
				switch {
				case stb.Received(j):
					report.SharedFrames++
				case slot > admit:
					slack := int32(stb.Deadline(j) - slot)
					report.SegmentsReceived++
					report.SumSlackSlots += int64(slack)
					report.MinSlackSlots = min(report.MinSlackSlots, slack)
					if j == from {
						report.StartupSlots = uint32(slot - admit)
					}
				}
			}
			if err := stb.ObserveSlot(slot, slotSegs); err != nil {
				return err // a missed deadline
			}
			slotSegs = slotSegs[:0]
			if slot < lastSlot {
				continue
			}
			if !stb.Complete() {
				return errors.New("stream ended with segments missing")
			}
			report.MaxBuffered = uint32(stb.MaxBuffered())
			report.SessionSlots = uint32(slot - admit)
			report.PayloadBytes = uint64(r.Bytes)
			out.Reset()
			if err := wire.WriteFrame(&out, report); err != nil {
				return err
			}
			if _, err := conn.Write(out.Bytes()); err != nil {
				return fmt.Errorf("send report: %w", err)
			}
			return nil
		case wire.ErrorMsg:
			return fmt.Errorf("server error: %s", m.Text)
		default:
			return fmt.Errorf("unexpected frame %T", msg)
		}
	}
}

// saturatedBandwidth is the analytic ceiling on instances per video-slot:
// every segment at its minimum frequency.
func (d *driver) saturatedBandwidth() (float64, error) {
	if d.periods == nil {
		return 0, errors.New("no session was admitted")
	}
	return analysis.DHBSaturated(d.periods)
}

package vodserver

import (
	"bytes"
	"errors"
	"io"
	"net"
	"slices"
	"testing"
	"time"

	"vodcast/internal/wire"
)

// TestIngestReportZeroAlloc: a report for an admitted video folds into
// counters its record bound once, so ingesting one without trace
// identifiers allocates nothing.
func TestIngestReportZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s := startTestServer(t)
	rec := s.record(s.videos[1])
	rep := wire.ClientReport{Version: wire.ProtoV2, VideoID: 1, SegmentsNeeded: 10,
		SegmentsReceived: 10, SumSlackSlots: 20, DeadlineMisses: 1, Rebuffers: 1}
	if avg := testing.AllocsPerRun(100, func() { s.ingestReport(rec, rep) }); avg != 0 {
		t.Fatalf("ingestReport allocates %.1f objects per report, want 0", avg)
	}
	if rec.miss.Value() == 0 || rec.rebuffer.Value() == 0 {
		t.Fatal("the report's misses and rebuffers were not counted")
	}
}

// TestRequestAndReportInOneWrite: the server reads a session's request and
// its report through one buffered reader, so a client that sends both in one
// write is served its whole session and its report is counted.
func TestRequestAndReportInOneWrite(t *testing.T) {
	const segments = 4
	s := startTestServer(t, VideoConfig{ID: 1, Segments: segments, SegmentBytes: 64})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := wire.WriteFrame(&out, wire.Request{VideoID: 1, Version: wire.ProtoV2, Flags: wire.FlagNoTrace}); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(&out, wire.ClientReport{Version: wire.ProtoV2, VideoID: 1,
		SegmentsNeeded: segments, SegmentsReceived: segments}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(out.Bytes()); err != nil {
		t.Fatal(err)
	}
	msg, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := msg.(wire.ScheduleInfo); !ok {
		t.Fatalf("first frame %T, want ScheduleInfo", msg)
	}
	got := make(map[uint32]bool)
	for {
		msg, err := wire.ReadFrame(conn)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if seg, ok := msg.(wire.Segment); ok {
			got[seg.Segment] = true
		}
	}
	if len(got) != segments {
		t.Fatalf("received %d of %d segments", len(got), segments)
	}
	waitFor(t, "the report counted in client_reports_total", func() bool {
		return s.QoE().Reports == 1
	})
}

// TestReportMustEchoItsSessionTraceIDs: a report counts only when it echoes
// the trace ids its own session's ScheduleInfo carried. After one honest
// session, a traced session and a FlagNoTrace session each report the honest
// session's ids; both reports are discarded, so client_reports_total stays
// at 1 and no second client_session span is grafted under the honest admit
// span.
func TestReportMustEchoItsSessionTraceIDs(t *testing.T) {
	s, err := Start(Config{
		Addr:            "127.0.0.1:0",
		Videos:          []VideoConfig{{ID: 1, Segments: 4, SegmentBytes: 64}},
		SlotDuration:    10 * time.Millisecond,
		SpanSampleEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeNoFrameLeak(t, s) })

	honest := reportedSession(t, s.Addr(), 0, nil)
	if honest.SpanID == 0 {
		t.Fatal("the honest session carries no span id")
	}
	for _, flags := range []uint16{0, wire.FlagNoTrace} {
		reportedSession(t, s.Addr(), flags, &honest)
	}
	if n := s.QoE().Reports; n != 1 {
		t.Fatalf("client_reports_total = %d, want 1: a forged report counted", n)
	}
	grafted := 0
	for _, r := range s.spans.Recent() {
		if r.Name == "client_session" && r.Parent == honest.SpanID {
			grafted++
		}
	}
	if grafted != 1 {
		t.Fatalf("%d client_session spans under the honest admit span, want 1", grafted)
	}
}

// reportedSession plays one raw session that owes a report. At its last
// slot it reports the trace ids of its own ScheduleInfo, or forged's when
// forged is non-nil, then reads until the server, done with the report,
// closes the connection. It returns the session's ScheduleInfo.
func reportedSession(t *testing.T, addr string, flags uint16, forged *wire.ScheduleInfo) wire.ScheduleInfo {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, wire.Request{VideoID: 1, Version: wire.ProtoV2, Flags: flags}); err != nil {
		t.Fatal(err)
	}
	msg, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	info, ok := msg.(wire.ScheduleInfo)
	if !ok {
		t.Fatalf("first frame %T, want ScheduleInfo", msg)
	}
	echo := info
	if forged != nil {
		echo = *forged
	}
	last := info.AdmitSlot + uint64(slices.Max(info.Periods))
	for {
		msg, err := wire.ReadFrame(conn)
		if errors.Is(err, io.EOF) {
			return info
		}
		if err != nil {
			t.Fatal(err)
		}
		if end, ok := msg.(wire.SlotEnd); ok && end.Slot == last {
			err := wire.WriteFrame(conn, wire.ClientReport{Version: wire.ProtoV2, VideoID: 1,
				TraceID: echo.TraceID, SpanID: echo.SpanID, SegmentsNeeded: info.Segments})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

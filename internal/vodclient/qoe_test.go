package vodclient

import (
	"net"
	"strings"
	"testing"
	"time"

	"vodcast/internal/wire"
)

// fakeServerV2 is fakeServer for scripts that need the decoded request (to
// assert its fields) or to keep the connection for a report read.
func fakeServerV2(t *testing.T, script func(conn net.Conn, req wire.Request)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		msg, err := wire.ReadFrame(conn)
		if err != nil {
			return
		}
		req, ok := msg.(wire.Request)
		if !ok {
			return
		}
		script(conn, req)
	}()
	return ln.Addr().String()
}

func v2Info() wire.ScheduleInfo {
	info := goodInfo()
	info.TraceID = 0xABCD
	info.SpanID = 77
	return info
}

func streamAll(conn net.Conn, info wire.ScheduleInfo) {
	for j := uint32(1); j <= info.Segments; j++ {
		_ = wire.WriteFrame(conn, wire.Segment{
			VideoID: info.VideoID, Segment: j, Slot: uint64(j),
			Payload: wire.SegmentPayload(info.VideoID, j, info.SizeOf(j)),
		})
		_ = wire.WriteFrame(conn, wire.SlotEnd{Slot: uint64(j)})
	}
}

func TestFetchWithToleratesMissedDeadline(t *testing.T) {
	addr := fakeServerV2(t, func(conn net.Conn, req wire.Request) {
		if req.Version != wire.ProtoV2 {
			t.Errorf("request version = %d, want %d", req.Version, wire.ProtoV2)
		}
		info := v2Info()
		_ = wire.WriteFrame(conn, info)
		// Slot 1 ends without segment 1 (deadline slot 1): a strict client
		// dies here, a tolerant one records the miss and keeps receiving.
		_ = wire.WriteFrame(conn, wire.SlotEnd{Slot: 1})
		_ = wire.WriteFrame(conn, wire.Segment{
			VideoID: 1, Segment: 1, Slot: 2, Payload: wire.SegmentPayload(1, 1, 32)})
		_ = wire.WriteFrame(conn, wire.Segment{
			VideoID: 1, Segment: 2, Slot: 2, Payload: wire.SegmentPayload(1, 2, 32)})
		_ = wire.WriteFrame(conn, wire.SlotEnd{Slot: 2})
		_, _ = wire.ReadFrame(conn) // drain the report
	})
	res, err := FetchWith(addr, FetchOptions{VideoID: 1, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineMisses != 1 || res.Rebuffers != 1 || res.MissingSegments != 0 {
		t.Fatalf("result = %+v, want 1 miss, 1 rebuffer, 0 missing", res)
	}
	if res.MinSlackSlots != -1 {
		t.Fatalf("MinSlackSlots = %d, want -1 (segment 1 one slot late)", res.MinSlackSlots)
	}
	if res.TraceID != 0xABCD {
		t.Fatalf("TraceID = %#x, want 0xABCD", res.TraceID)
	}
}

func TestFetchWithStrictStillRejectsMiss(t *testing.T) {
	addr := fakeServerV2(t, func(conn net.Conn, req wire.Request) {
		_ = wire.WriteFrame(conn, v2Info())
		_ = wire.WriteFrame(conn, wire.SlotEnd{Slot: 1})
	})
	_, err := FetchWith(addr, FetchOptions{
		VideoID: 1, Timeout: 2 * time.Second, StrictDeadlines: true})
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("strict miss error = %v, want deadline", err)
	}
}

// TestFetchWithToleratesOnlyMisses: a tolerant session rides out a missed
// deadline, but a slot number that goes backwards still fails it.
func TestFetchWithToleratesOnlyMisses(t *testing.T) {
	addr := fakeServerV2(t, func(conn net.Conn, req wire.Request) {
		_ = wire.WriteFrame(conn, v2Info())
		_ = wire.WriteFrame(conn, wire.SlotEnd{Slot: 1}) // segment 1 misses
		_ = wire.WriteFrame(conn, wire.SlotEnd{Slot: 0})
	})
	_, err := FetchWith(addr, FetchOptions{VideoID: 1, Timeout: 2 * time.Second})
	if err == nil || !strings.Contains(err.Error(), "slot 0 fed after slot 1") {
		t.Fatalf("slot regression error = %v", err)
	}
}

func TestFetchWithSendsReport(t *testing.T) {
	got := make(chan wire.ClientReport, 1)
	addr := fakeServerV2(t, func(conn net.Conn, req wire.Request) {
		if req.Flags != 0 {
			t.Errorf("request flags = %#x, want 0", req.Flags)
		}
		info := v2Info()
		_ = wire.WriteFrame(conn, info)
		streamAll(conn, info)
		msg, err := wire.ReadFrame(conn)
		if err != nil {
			t.Errorf("read report: %v", err)
			return
		}
		rep, ok := msg.(wire.ClientReport)
		if !ok {
			t.Errorf("got %T, want ClientReport", msg)
			return
		}
		got <- rep
	})
	if _, err := FetchWith(addr, FetchOptions{VideoID: 1, Timeout: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	select {
	case rep := <-got:
		if rep.TraceID != 0xABCD || rep.SpanID != 77 {
			t.Fatalf("report trace = %#x/%d, want 0xabcd/77", rep.TraceID, rep.SpanID)
		}
		if rep.SegmentsNeeded != 2 || rep.SegmentsReceived != 2 ||
			rep.DeadlineMisses != 0 || rep.PayloadBytes != 64 {
			t.Fatalf("report = %+v", rep)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server never received a report")
	}
}

func TestFetchWithNoReportSetsFlagAndSkipsReport(t *testing.T) {
	done := make(chan struct{})
	addr := fakeServerV2(t, func(conn net.Conn, req wire.Request) {
		defer close(done)
		if req.Flags&wire.FlagNoReport == 0 {
			t.Error("FlagNoReport not set on opt-out request")
		}
		info := v2Info()
		_ = wire.WriteFrame(conn, info)
		streamAll(conn, info)
		// The client must close without writing a report frame.
		if msg, err := wire.ReadFrame(conn); err == nil {
			t.Errorf("unexpected frame after opt-out session: %T", msg)
		}
	})
	if _, err := FetchWith(addr, FetchOptions{
		VideoID: 1, Timeout: 2 * time.Second, NoReport: true}); err != nil {
		t.Fatal(err)
	}
	<-done
}

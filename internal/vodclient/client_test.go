package vodclient

import (
	"net"
	"strings"
	"testing"
	"time"

	"vodcast/internal/wire"
)

// fakeServer accepts one connection and plays the given script of frames.
func fakeServer(t *testing.T, script func(conn net.Conn)) string {
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
		// Consume the request frame first.
		if _, err := wire.ReadFrame(conn); err != nil {
			return
		}
		script(conn)
	}()
	return ln.Addr().String()
}

func goodInfo() wire.ScheduleInfo {
	return wire.ScheduleInfo{
		VideoID:      1,
		Segments:     2,
		SlotMillis:   10,
		SegmentBytes: 32,
		AdmitSlot:    0,
		Version:      wire.ProtoV2,
		Periods:      []uint32{1, 2},
	}
}

func fetchErr(t *testing.T, addr string) error {
	t.Helper()
	_, err := FetchWith(addr, FetchOptions{VideoID: 1, Timeout: 2 * time.Second, StrictDeadlines: true})
	if err == nil {
		t.Fatal("fetch succeeded against a misbehaving server")
	}
	return err
}

func TestFetchValidation(t *testing.T) {
	if _, err := FetchWith("127.0.0.1:1", FetchOptions{VideoID: 1, Timeout: 0, StrictDeadlines: true}); err == nil {
		t.Error("zero timeout accepted")
	}
	// From 0 now means "the beginning" (FetchWith coerces it to 1), so only
	// a non-positive timeout remains an option-level validation failure.
	if _, err := FetchWith("127.0.0.1:1", FetchOptions{VideoID: 1, From: 5, Timeout: -time.Second, StrictDeadlines: true}); err == nil {
		t.Error("negative timeout accepted")
	}
}

func TestFetchRejectsServerError(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		_ = wire.WriteFrame(conn, wire.ErrorMsg{Text: "nope"})
	})
	err := fetchErr(t, addr)
	if !strings.Contains(err.Error(), "nope") {
		t.Fatalf("error text lost: %v", err)
	}
}

func TestFetchRejectsUnexpectedFirstFrame(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		_ = wire.WriteFrame(conn, wire.SlotEnd{Slot: 1})
	})
	fetchErr(t, addr)
}

func TestFetchRejectsWrongVideoSchedule(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		info := goodInfo()
		info.VideoID = 9
		_ = wire.WriteFrame(conn, info)
	})
	fetchErr(t, addr)
}

func TestFetchRejectsCorruptPayload(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		_ = wire.WriteFrame(conn, goodInfo())
		payload := make([]byte, 32) // zeros, not the generator output
		_ = wire.WriteFrame(conn, wire.Segment{VideoID: 1, Segment: 1, Slot: 1, Payload: payload})
	})
	err := fetchErr(t, addr)
	if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corruption not reported: %v", err)
	}
}

func TestFetchRejectsForeignVideoFrame(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		_ = wire.WriteFrame(conn, goodInfo())
		payload := wire.SegmentPayload(2, 1, 32)
		_ = wire.WriteFrame(conn, wire.Segment{VideoID: 2, Segment: 1, Slot: 1, Payload: payload})
	})
	fetchErr(t, addr)
}

func TestFetchRejectsUnknownSegment(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		_ = wire.WriteFrame(conn, goodInfo())
		payload := wire.SegmentPayload(1, 7, 32)
		_ = wire.WriteFrame(conn, wire.Segment{VideoID: 1, Segment: 7, Slot: 1, Payload: payload})
	})
	fetchErr(t, addr)
}

func TestFetchRejectsMissedDeadline(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		_ = wire.WriteFrame(conn, goodInfo())
		// Slot 1 ends without segment 1, whose deadline is slot 1.
		_ = wire.WriteFrame(conn, wire.SlotEnd{Slot: 1})
	})
	err := fetchErr(t, addr)
	if !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("deadline miss not reported: %v", err)
	}
}

func TestFetchRejectsTruncatedStream(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		_ = wire.WriteFrame(conn, goodInfo())
		// Close without delivering anything.
	})
	fetchErr(t, addr)
}

func TestFetchRejectsResumeBeyondSchedule(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := wire.ReadFrame(conn); err != nil {
			return
		}
		_ = wire.WriteFrame(conn, goodInfo())
	}()
	if _, err := FetchWith(ln.Addr().String(), FetchOptions{VideoID: 1, From: 5, Timeout: 2 * time.Second, StrictDeadlines: true}); err == nil {
		t.Fatal("resume beyond the schedule accepted")
	}
}

func TestFetchHappyPathAgainstScript(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		_ = wire.WriteFrame(conn, goodInfo())
		_ = wire.WriteFrame(conn, wire.Segment{
			VideoID: 1, Segment: 1, Slot: 1, Payload: wire.SegmentPayload(1, 1, 32),
		})
		_ = wire.WriteFrame(conn, wire.SlotEnd{Slot: 1})
		_ = wire.WriteFrame(conn, wire.Segment{
			VideoID: 1, Segment: 2, Slot: 2, Payload: wire.SegmentPayload(1, 2, 32),
		})
		_ = wire.WriteFrame(conn, wire.SlotEnd{Slot: 2})
	})
	res, err := FetchWith(addr, FetchOptions{VideoID: 1, Timeout: 2 * time.Second, StrictDeadlines: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Segments != 2 || res.PayloadBytes != 64 {
		t.Fatalf("result = %+v", res)
	}
}

package vodserver

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"vodcast/internal/wire"
)

// rawSession plays one session that declines the report (so the server
// closes the connection after the last slot) and returns the stream with
// every slot rebased to the admit slot.
func rawSession(t *testing.T, addr string, videoID uint32) (info wire.ScheduleInfo, frames []any) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, wire.Request{VideoID: videoID, Version: wire.ProtoV2, Flags: wire.FlagNoReport}); err != nil {
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
	for {
		msg, err := wire.ReadFrame(conn)
		if errors.Is(err, io.EOF) {
			return info, frames
		}
		if err != nil {
			t.Fatal(err)
		}
		switch m := msg.(type) {
		case wire.Segment:
			m.Slot -= info.AdmitSlot
			frames = append(frames, m)
		case wire.SlotEnd:
			m.Slot -= info.AdmitSlot
			frames = append(frames, m)
		default:
			t.Fatalf("unexpected frame %T", msg)
		}
	}
}

// waitIdle polls until the station has no active video and its clock is at
// least minTicks ticks in, and returns the tick count.
func waitIdle(t *testing.T, s *Server, minTicks uint64) uint64 {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Station().Status()
		if st.Active == 0 && st.Clock.Ticks >= minTicks {
			return st.Clock.Ticks
		}
		if time.Now().After(deadline) {
			t.Fatalf("station never went idle: %d active videos at tick %d, want 0 at >= %d",
				st.Active, st.Clock.Ticks, minTicks)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestColdVideoStreamsLikeBoot: a video that sat idle for 200 slots — its
// scheduler never advanced, no frame encoded for it — serves a cold request
// with the stream a request at boot gets, slot for slot and byte for byte
// relative to the admit slot: one frame per slot from the first slot after
// admission to the customer's last, then the connection closes and the video
// leaves the active list with its load gauge at zero.
func TestColdVideoStreamsLikeBoot(t *testing.T) {
	const (
		videos   = 64
		segments = 8
		id       = 61 // in the last of the four spans
	)
	catalogue := make([]VideoConfig, videos)
	for i := range catalogue {
		catalogue[i] = VideoConfig{ID: uint32(i + 1), Segments: segments, SegmentBytes: 128}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // four tick spans
	s, err := Start(Config{Addr: "127.0.0.1:0", Videos: catalogue, SlotDuration: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNoFrameLeak(t, s)

	bootInfo, boot := rawSession(t, s.Addr(), id)
	idleFrom := waitIdle(t, s, 0)
	if got := channelLoad(t, s, id); got != 0 {
		t.Fatalf("vod_channel_load{video=%d} = %v once idle, want 0", id, got)
	}
	waitIdle(t, s, idleFrom+200)
	coldInfo, cold := rawSession(t, s.Addr(), id)
	waitIdle(t, s, 0)

	if coldInfo.AdmitSlot < bootInfo.AdmitSlot+200 {
		t.Fatalf("cold admission at slot %d, boot at %d: the video was not idle for 200 slots", coldInfo.AdmitSlot, bootInfo.AdmitSlot)
	}
	if !reflect.DeepEqual(boot, cold) {
		t.Fatalf("cold stream differs from the boot stream:\n boot %v\n cold %v", boot, cold)
	}
	// One frame per slot 1..segments after admission, every segment exactly
	// once with its payload intact, nothing after the last deadline.
	slot, got := uint64(1), make(map[uint32]bool)
	for _, f := range cold {
		switch m := f.(type) {
		case wire.Segment:
			if m.Slot != slot || got[m.Segment] || !bytes.Equal(m.Payload, wire.SegmentPayload(id, m.Segment, 128)) {
				t.Fatalf("slot %d: unexpected or corrupt segment %d stamped %d", slot, m.Segment, m.Slot)
			}
			got[m.Segment] = true
		case wire.SlotEnd:
			if m.Slot != slot {
				t.Fatalf("slot end %d, want %d: a slot was skipped or repeated", m.Slot, slot)
			}
			slot++
		}
	}
	if slot != segments+1 || len(got) != segments {
		t.Fatalf("stream ended after slot %d with %d segments, want %d and %d", slot-1, len(got), segments, segments)
	}
	ticks := s.Station().Status().Clock.Ticks
	st := s.Status()
	if st.Stats.Instances != 2*segments || st.Station.PerVideo[id-1].Instances != 2*segments {
		t.Fatalf("instances: %d station-wide, %d for the video, want %d", st.Stats.Instances, st.Station.PerVideo[id-1].Instances, 2*segments)
	}
	for _, row := range st.Station.PerVideo {
		if uint64(row.Slot)+1 < ticks {
			t.Fatalf("video %s reports slot %d after tick %d: idle videos fell off the grid", row.Name, row.Slot, ticks)
		}
	}
}

// channelLoad reads vod_channel_load{video="id"} from the registry's samples.
func channelLoad(t *testing.T, s *Server, id uint32) float64 {
	t.Helper()
	labels := fmt.Sprintf(`{video="%d"}`, id)
	for _, smp := range s.reg.Samples() {
		if smp.Name == "vod_channel_load" && smp.Labels == labels {
			return smp.Value
		}
	}
	t.Fatalf("no vod_channel_load%s sample", labels)
	return 0
}

package vodserver

import (
	"slices"
	"testing"
	"time"

	"vodcast/internal/vodclient"
)

// TestFirstByteWithinOneSlot: DHB serves a request that arrives in slot i
// from slot i+1. The clock admits it as slot i ends and writes its
// ScheduleInfo and first frame as slot i+1 begins, so a customer waits for
// its first byte until the next slot boundary and no longer. Sequential
// sessions on a 100 ms slot are started at phases spread evenly over the
// slot. The client-side wait, from the request's write to the first payload
// byte, then has a median near half a slot and a maximum near one; the
// server-side window (admission to the first write,
// vod_admit_first_byte_seconds) spans only the tick's own work. A frame sent
// as its slot ends instead puts every server-side sample at a slot and the
// client-side median at a slot and a half.
func TestFirstByteWithinOneSlot(t *testing.T) {
	const (
		slot     = 100 * time.Millisecond
		sessions = 12
	)
	s, err := Start(Config{
		Addr:         "127.0.0.1:0",
		Videos:       []VideoConfig{{ID: 1, Segments: 3, SegmentBytes: 256}},
		SlotDuration: slot,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeNoFrameLeak(t, s) })
	waits := make([]float64, sessions)
	for k := range waits {
		res, err := vodclient.FetchWith(s.Addr(), vodclient.FetchOptions{
			VideoID: 1, Timeout: 10 * time.Second, StrictDeadlines: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		waits[k] = res.FirstByte.Seconds() / slot.Seconds()
		// A session ends just after a tick delivers its last slot: waiting
		// (k+½)/sessions of a slot starts the next one at that phase.
		time.Sleep(time.Duration(2*k+1) * slot / (2 * sessions))
	}
	slices.Sort(waits)
	median, longest := (waits[sessions/2-1]+waits[sessions/2])/2, waits[sessions-1]
	fb := s.firstByte.Snapshot()
	if fb.Total != sessions {
		t.Fatalf("%d first-byte samples, want %d", fb.Total, sessions)
	}
	server := fb.Max / slot.Seconds()
	t.Logf("first byte over %d sessions: client median %.2f slots, max %.2f; server max %.2f slots", sessions, median, longest, server)
	if median < 0.25 || median >= 0.75 || longest >= 1.5 {
		t.Fatalf("client first byte: median %.2f slots (want 0.25 to 0.75), max %.2f slots (want < 1.5)", median, longest)
	}
	if server >= 0.25 {
		t.Fatalf("server first byte: max %.2f slots, want < 0.25", server)
	}
}

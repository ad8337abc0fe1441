package vodserver

import (
	"testing"
	"time"

	"vodcast/internal/vodclient"
)

// TestFirstByteWithinOneSlot: DHB serves a request that arrives in slot i
// from slot i+1, and the server pushes a slot's frame when the slot begins,
// so a customer waits for its first byte until the next slot boundary and no
// longer. Sequential sessions on a 100 ms slot are started at phases spread
// evenly over the slot; the server-side first byte (admission to first
// vectored write, vod_admit_first_byte_seconds) then has a median near half a
// slot and a maximum near one. A frame sent as its slot ends instead puts
// every sample at one slot or more.
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
	for k := 0; k < sessions; k++ {
		if _, err := vodclient.FetchWith(s.Addr(), vodclient.FetchOptions{
			VideoID: 1, Timeout: 10 * time.Second, StrictDeadlines: true,
		}); err != nil {
			t.Fatal(err)
		}
		// A session ends just after a tick delivers its last slot: waiting
		// (k+½)/sessions of a slot starts the next one at that phase.
		time.Sleep(time.Duration(2*k+1) * slot / (2 * sessions))
	}
	fb := s.firstByte.Snapshot()
	if fb.Total != sessions {
		t.Fatalf("%d first-byte samples, want %d", fb.Total, sessions)
	}
	median, longest := fb.P50/slot.Seconds(), fb.Max/slot.Seconds()
	t.Logf("server first byte over %d sessions: median %.2f slots, max %.2f slots", sessions, median, longest)
	if median >= 0.75 || longest >= 1.5 {
		t.Fatalf("server first byte: median %.2f slots (want < 0.75), max %.2f slots (want < 1.5)", median, longest)
	}
}

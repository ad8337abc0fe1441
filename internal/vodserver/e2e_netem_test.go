//go:build netem

package vodserver

import (
	"os"
	"os/exec"
	"testing"
	"time"
)

// This file is the netem-shaped A/B variant of the conntrack E2E, behind the
// `netem` build tag because it reshapes the loopback interface:
//
//	go test -tags netem -run TestE2ENetemPathAttribution ./internal/vodserver/
//
// It requires root and the tc binary, and skips itself cleanly when either is
// missing. Where the in-tree E2E distinguishes a paused reader (stalled) from
// a slow application reader (receiver_limited), this one injects packet loss
// into the PATH: a subscriber that reads as fast as it can across a lossy
// link must classify path_limited — retransmissions, not application
// behaviour — while a paused reader on the same link still classifies
// stalled. The A/B is the point: the classifier attributes the same symptom
// (late frames) to different layers.

// netemSetup shapes loopback with packet loss and returns a teardown. Skips
// the test when the environment cannot shape.
func netemSetup(t *testing.T) func() {
	t.Helper()
	if os.Geteuid() != 0 {
		t.Skip("netem shaping requires root")
	}
	tc, err := exec.LookPath("tc")
	if err != nil {
		t.Skip("tc binary not available")
	}
	if out, err := exec.Command(tc, "qdisc", "add", "dev", "lo", "root", "netem", "loss", "10%").CombinedOutput(); err != nil {
		t.Skipf("cannot shape loopback: %v: %s", err, out)
	}
	return func() {
		if out, err := exec.Command(tc, "qdisc", "del", "dev", "lo", "root").CombinedOutput(); err != nil {
			t.Errorf("netem teardown failed — loopback still shaped: %v: %s", err, out)
		}
	}
}

func TestE2ENetemPathAttribution(t *testing.T) {
	teardown := netemSetup(t)
	defer teardown()

	s := serveTuned(t, Config{
		Addr:         "127.0.0.1:0",
		Videos:       []VideoConfig{{ID: 1, Segments: 2000, SegmentBytes: 4 << 10}},
		SlotDuration: 5 * time.Millisecond,
		StatsAddr:    "127.0.0.1:0",
	}, func(s *Server) {
		s.sloTarget = 10
		// Sweeps are driven by hand, exactly as in the unshaped E2E.
		s.telemetryInterval = time.Hour
	})

	// The shaped-path subscriber reads as fast as it can: every late frame
	// it sees is the network's fault, and the kernel's retransmit counter is
	// the evidence.
	shaped := admitRaw(t, s.Addr(), 1)
	defer shaped.Close()
	shapedRemote := shaped.LocalAddr().String()
	go func() {
		buf := make([]byte, 64<<10)
		for {
			if _, err := shaped.Read(buf); err != nil {
				return
			}
		}
	}()

	// The paused subscriber stops reading entirely — same lossy link, but
	// the stall is its own: nothing moves regardless of the path.
	paused := admitRaw(t, s.Addr(), 1)
	defer paused.Close()
	pausedRemote := paused.LocalAddr().String()

	deadline := time.Now().Add(20 * time.Second)
	for {
		s.ct.Sweep()
		sum := connzSummary(t, s)
		sh, shok := connzRow(sum, shapedRemote)
		pa, paok := connzRow(sum, pausedRemote)
		if shok && paok && sh.State == "path_limited" && pa.State == "stalled" {
			if sh.Retrans == 0 {
				t.Fatalf("path_limited without retransmit evidence: %+v", sh)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("classifier never separated path loss from the stall; /connz: %+v", sum)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

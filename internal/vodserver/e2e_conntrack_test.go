//go:build linux

package vodserver

import (
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"vodcast/internal/conntrack"
	"vodcast/internal/obs"
	"vodcast/internal/wire"
)

// This file is the transport-telemetry acceptance E2E: a real server on a
// heavy video, three wire-level subscribers engineered into two transport
// conditions — two that pause reading entirely, one that keeps reading far
// below the broadcast rate — and assertions that the classifier separates
// them on /connz, that the conn_stalled_ratio alert walks pending → firing →
// resolved, that the firing transition captures exactly one flight bundle
// carrying conns.json, and that the write-deadline cut attributes the
// stalled subscriber's disconnect as reason="stalled". Linux-only: the stall-vs-slow
// distinction leans on kernel BytesAcked ground truth, which is the point of
// the TCP_INFO integration.

// connzSummary fetches and decodes the /connz document.
func connzSummary(t *testing.T, s *Server) conntrack.Summary {
	t.Helper()
	code, body := get(t, s, "/connz")
	if code != http.StatusOK {
		t.Fatalf("connz = %d", code)
	}
	var sum conntrack.Summary
	if err := json.Unmarshal([]byte(body), &sum); err != nil {
		t.Fatalf("connz body: %v\n%s", err, body)
	}
	return sum
}

// connzRow finds the row for a connection by its server-side remote address
// (the client's local address).
func connzRow(sum conntrack.Summary, remote string) (conntrack.ConnSnapshot, bool) {
	for _, row := range sum.Conns {
		if row.Remote == remote {
			return row, true
		}
	}
	return conntrack.ConnSnapshot{}, false
}

// admitRaw dials the wire protocol and completes admission, returning the
// open connection. The caller controls all further reads — which is exactly
// what this E2E manipulates.
func admitRaw(t *testing.T, addr string, video uint32) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.SetDeadline(time.Now().Add(60 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, wire.Request{VideoID: video, FromSegment: 1, Version: wire.ProtoV2}); err != nil {
		t.Fatal(err)
	}
	msg, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := msg.(wire.ScheduleInfo); !ok {
		t.Fatalf("first frame %T, want ScheduleInfo", msg)
	}
	return conn
}

func TestE2EConntrackStallAttribution(t *testing.T) {
	flightDir := t.TempDir()
	s := serveTuned(t, Config{
		Addr: "127.0.0.1:0",
		// A heavy, long channel: every slot carries tens of KiB so a
		// subscriber that stops (or nearly stops) reading saturates its
		// socket within a few hundred milliseconds, and the 1000-segment
		// schedule puts both write deadlines (last deadline plus the 1 s
		// read bound) about six seconds out, leaving the classifier room to
		// publish before either subscriber is cut.
		Videos:       []VideoConfig{{ID: 1, Segments: 1000, SegmentBytes: 4 << 10}},
		SlotDuration: 5 * time.Millisecond,
		StatsAddr:    "127.0.0.1:0",
		FlightDir:    flightDir,
		AlertFor:     50 * time.Millisecond,
	}, func(s *Server) {
		s.sloTarget = 10 // keep the burn rule quiet on slow machines
		// Sweeps and evaluations are driven by hand for determinism; the
		// telemetry loop is parked out of the way.
		s.telemetryInterval = time.Hour
	})

	// The paused subscribers: admitted, then never read another byte. Their
	// socket pipes fill, BytesAcked freezes, the rings back up — a total
	// stall. Two of three tracked connections stalled is a ratio above the
	// alert's 0.5.
	paused := admitRaw(t, s.Addr(), 1)
	defer paused.Close()
	pausedRemote := paused.LocalAddr().String()
	paused2 := admitRaw(t, s.Addr(), 1)
	defer paused2.Close()
	paused2Remote := paused2.LocalAddr().String()

	// The slow subscriber: keeps reading, but at a small fraction of the
	// broadcast rate. Bytes keep being acknowledged every sweep — provably
	// NOT stalled — while the kernel spends its time blocked on the
	// receiver's window and the ring deepens: receiver_limited.
	slow := admitRaw(t, s.Addr(), 1)
	defer slow.Close()
	slowRemote := slow.LocalAddr().String()
	go func() {
		buf := make([]byte, 4<<10)
		for {
			if _, err := slow.Read(buf); err != nil {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// Drive sweeps until the classifier separates the two. Each iteration is
	// one sampling pass; hysteresis (two sweeps) means the published states land
	// a few sweeps after the signals stabilize.
	sweepUntil := func(label string, cond func(sum conntrack.Summary) bool) conntrack.Summary {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for {
			s.ct.Sweep()
			sum := connzSummary(t, s)
			if cond(sum) {
				return sum
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; /connz: %+v", label, sum)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	sum := sweepUntil("classifier separation", func(sum conntrack.Summary) bool {
		p, pok := connzRow(sum, pausedRemote)
		p2, p2ok := connzRow(sum, paused2Remote)
		sl, sok := connzRow(sum, slowRemote)
		return pok && p2ok && sok && p.State == "stalled" && p2.State == "stalled" &&
			sl.State == "receiver_limited"
	})

	// The rows carry the kernel evidence behind the verdicts.
	pausedRow, _ := connzRow(sum, pausedRemote)
	slowRow, _ := connzRow(sum, slowRemote)
	if !pausedRow.Kernel || !slowRow.Kernel {
		t.Fatalf("TCP_INFO missing on loopback rows: paused=%+v slow=%+v", pausedRow, slowRow)
	}
	if sum.Tracked != 3 {
		t.Fatalf("tracked = %d, want 3", sum.Tracked)
	}
	if sum.StalledRatio != 2.0/3 {
		t.Fatalf("stalled ratio = %v, want 2/3", sum.StalledRatio)
	}
	if sum.States["stalled"] != 2 || sum.States["receiver_limited"] != 1 {
		t.Fatalf("state histogram wrong: %+v", sum.States)
	}

	// The alert walks pending → firing on hand-driven evaluations, and the
	// firing transition captures exactly one bundle.
	s.alerts.Eval()
	if st := ruleState(t, s, "conn_stalled_ratio"); st != obs.StatePending {
		t.Fatalf("breached stall alert = %s, want pending (For not yet elapsed)", st)
	}
	if got := len(bundleDirs(t, flightDir)); got != 0 {
		t.Fatalf("%d bundles while merely pending", got)
	}
	time.Sleep(60 * time.Millisecond) // AlertFor is 50ms
	s.ct.Sweep()                      // keep the classification fresh across the hold
	s.alerts.Eval()
	if st := ruleState(t, s, "conn_stalled_ratio"); st != obs.StateFiring {
		t.Fatalf("held breach = %s, want firing", st)
	}
	bundles := bundleDirs(t, flightDir)
	if len(bundles) != 1 {
		t.Fatalf("firing captured %d bundles, want exactly 1: %v", len(bundles), bundles)
	}
	if !strings.Contains(bundles[0], "alert_conn_stalled_ratio") {
		t.Fatalf("bundle name missing triggering rule: %s", bundles[0])
	}

	// The bundle carries conns.json: the same document /connz serves, frozen
	// at the firing transition — the stalled row is the evidence an operator
	// opens the bundle for.
	var bundled conntrack.Summary
	raw, err := os.ReadFile(filepath.Join(flightDir, bundles[0], "conns.json"))
	if err != nil {
		t.Fatalf("bundle missing conns.json: %v", err)
	}
	if err := json.Unmarshal(raw, &bundled); err != nil {
		t.Fatalf("conns.json: %v", err)
	}
	if bundled.Tracked != 3 || bundled.States["stalled"] != 2 {
		t.Fatalf("bundled conns.json wrong: tracked=%d states=%+v", bundled.Tracked, bundled.States)
	}
	if _, ok := connzRow(bundled, pausedRemote); !ok {
		t.Fatalf("bundled conns.json missing the stalled row: %+v", bundled.Conns)
	}

	// Throughout, the deadline-miss alert stays quiet: this incident is a
	// transport stall, not a delivery-deadline failure.
	if st := ruleState(t, s, "client_deadline_miss_rate"); st != obs.StateInactive {
		t.Fatalf("miss alert = %s, want inactive", st)
	}

	// A paused subscriber's blocked write hits its session deadline, its
	// handler cuts it, and the drop counter attributes the disconnect by
	// the last published state: reason="stalled".
	dropDeadline := time.Now().Add(30 * time.Second)
	for s.Stats().Dropped < 1 {
		if time.Now().After(dropDeadline) {
			t.Fatalf("stalled subscriber never dropped: %+v", s.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	_, body := get(t, s, "/metricsz?prefix=vod_dropped_subscribers_total")
	var stalledDrops float64
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, `vod_dropped_subscribers_total{reason="stalled"}`) {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("bad exposition line %q: %v", line, err)
		}
		stalledDrops += v
	}
	if stalledDrops < 1 {
		t.Fatalf("no drop attributed reason=\"stalled\":\n%s", body)
	}

	// The ratio self-resolves as tracking drains: the cuts unregister the
	// stalled connections, and the slow reader, far behind too, meets its
	// own deadline moments later. Either exit unregisters, so the next
	// evaluation walks the rule firing → resolved, with no second bundle.
	for s.ct.Tracked() != 0 {
		if time.Now().After(dropDeadline) {
			t.Fatalf("tracking never drained: tracked=%d %+v", s.ct.Tracked(), s.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.alerts.Eval()
	if st := ruleState(t, s, "conn_stalled_ratio"); st != obs.StateResolved {
		t.Fatalf("post-drop stall alert = %s, want resolved", st)
	}
	if got := len(bundleDirs(t, flightDir)); got != 1 {
		t.Fatalf("resolution grew bundles to %d", got)
	}

	// Both handlers are gone without any client action.
	waitFor(t, "subscribers drained", func() bool {
		return s.Stats().ActiveSubscribers == 0
	})
}

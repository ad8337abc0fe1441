package conntrack

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"vodcast/internal/obs"
)

// manualClock advances only when told, making hysteresis deterministic.
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func newManualClock() *manualClock {
	return &manualClock{now: time.Unix(1000, 0)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func testSampler(t *testing.T, cfg Config) (*Sampler, *manualClock) {
	t.Helper()
	clk := newManualClock()
	cfg.Clock = clk.Now
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	s := New(cfg)
	return s, clk
}

// sweep advances the clock by one second and runs one pass.
func sweep(s *Sampler, clk *manualClock) {
	clk.Advance(time.Second)
	s.Sweep()
}

func TestClassifyTable(t *testing.T) {
	s, _ := testSampler(t, Config{})
	ext := TCPInfo{Valid: true, Extended: true}
	cases := []struct {
		name           string
		wrote, backlog bool
		occ            float64
		retransDelta   int64
		rwndDelta      time.Duration
		info           TCPInfo
		kernelOK       bool
		want           State
	}{
		{name: "idle healthy", want: stateHealthy},
		{name: "backlog without progress stalls", backlog: true, want: stateStalled},
		{name: "backlog with progress is not stalled", backlog: true, wrote: true, want: stateHealthy},
		{name: "retransmit burst is path limited", wrote: true, retransDelta: 3, info: ext, kernelOK: true, want: statePathLimited},
		{name: "retransmits below threshold ignored", wrote: true, retransDelta: 2, info: ext, kernelOK: true, want: stateHealthy},
		{name: "rwnd limited time is receiver limited", wrote: true, rwndDelta: 500 * time.Millisecond, info: ext, kernelOK: true, want: stateReceiverLimited},
		{name: "deep ring with drained kernel queue is sender backpressured", wrote: true, occ: 0.75,
			info: TCPInfo{Valid: true}, kernelOK: true, want: stateSenderBackpressured},
		{name: "deep ring with kernel backlog is receiver limited", wrote: true, occ: 0.75,
			info: TCPInfo{Valid: true, NotSentBytes: 1 << 20}, kernelOK: true, want: stateReceiverLimited},
		{name: "deep ring without kernel is receiver limited", wrote: true, occ: 0.9, want: stateReceiverLimited},
	}
	for _, tc := range cases {
		got := s.classify(tc.wrote, tc.backlog, tc.occ, tc.retransDelta,
			tc.rwndDelta, time.Second, tc.info, tc.kernelOK)
		if got != tc.want {
			t.Errorf("%s: classify = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestHysteresisHoldsAndTransitions drives a tracked (kernel-less) connection
// through stall and recovery via its userspace counters, asserting the
// published state only moves after hold consecutive candidate sweeps.
func TestHysteresisHoldsAndTransitions(t *testing.T) {
	s, clk := testSampler(t, Config{})
	c := s.Register(nil, 1, 8)
	sweep(s, clk) // seed baseline
	if got := c.State(); got != stateHealthy {
		t.Fatalf("fresh conn state = %v, want healthy", got)
	}

	// Frames pile up with no drain progress: candidate stalled.
	c.RecordPush(8)
	sweep(s, clk)
	if got := c.State(); got != stateHealthy {
		t.Fatalf("state moved after one candidate sweep: %v", got)
	}
	sweep(s, clk)
	if got := c.State(); got != stateStalled {
		t.Fatalf("state after hold sweeps = %v, want stalled", got)
	}
	if s.StalledRatio() != 1 {
		t.Fatalf("StalledRatio = %v, want 1", s.StalledRatio())
	}

	// Drain resumes and the ring empties: back to healthy after hold.
	c.RecordDrain(8, 1<<20)
	sweep(s, clk)
	c.RecordDrain(8, 1<<20)
	sweep(s, clk)
	if got := c.State(); got != stateHealthy {
		t.Fatalf("state after recovery = %v, want healthy", got)
	}
	age := c.stateAge(clk.Now())
	if age < 0 || age > time.Second {
		t.Fatalf("state age after transition = %v", age)
	}
}

// TestHysteresisSuppressesFlap alternates the stall signal every sweep; with
// a hold of 2 the published state must never leave healthy.
func TestHysteresisSuppressesFlap(t *testing.T) {
	s, clk := testSampler(t, Config{})
	c := s.Register(nil, 1, 8)
	sweep(s, clk)
	for i := 0; i < 6; i++ {
		if i%2 == 0 {
			c.RecordPush(8) // backlog, no progress
		} else {
			c.RecordDrain(8, 4096) // progress, ring empty
		}
		sweep(s, clk)
		if got := c.State(); got != stateHealthy {
			t.Fatalf("sweep %d: flapping signal moved state to %v", i, got)
		}
	}
}

func TestNewRequiresRegistry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New without Registry did not panic")
		}
	}()
	New(Config{})
}

func TestUnregisterIdempotentAndCounted(t *testing.T) {
	s, clk := testSampler(t, Config{})
	c := s.Register(nil, 1, 4)
	sweep(s, clk)
	c.RecordPush(4)
	sweep(s, clk)
	sweep(s, clk)
	if got := c.State(); got != stateStalled {
		t.Fatalf("state = %v, want stalled after hold sweeps", got)
	}
	s.Unregister(c)
	s.Unregister(c)
	if s.Tracked() != 0 {
		t.Fatalf("Tracked = %d after unregister", s.Tracked())
	}
	if n := s.Snapshot().States["stalled"]; n != 0 {
		t.Fatalf("stalled count = %d after unregister", n)
	}
}

func TestSnapshotRowsAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s, clk := testSampler(t, Config{Registry: reg})
	a := s.Register(nil, 1, 8)
	b := s.Register(nil, 2, 8)
	sweep(s, clk)
	a.RecordPush(8) // stalls
	b.RecordPush(1)
	b.RecordDrain(1, 4096) // healthy
	sweep(s, clk)
	sweep(s, clk)

	sum := s.Snapshot()
	if sum.Tracked != 2 || len(sum.Conns) != 2 {
		t.Fatalf("snapshot tracked=%d rows=%d", sum.Tracked, len(sum.Conns))
	}
	if sum.Conns[0].ID >= sum.Conns[1].ID {
		t.Fatal("snapshot rows not sorted by id")
	}
	if sum.States["stalled"] != 1 {
		t.Fatalf("states = %v, want one stalled", sum.States)
	}
	if sum.StalledRatio != 0.5 {
		t.Fatalf("StalledRatio = %v, want 0.5", sum.StalledRatio)
	}

	vals := map[string]float64{}
	for _, smp := range reg.Samples() {
		vals[smp.Name+smp.Labels] = smp.Value
	}
	if vals[`conn_state{state="stalled"}`] != 1 {
		t.Fatalf("conn_state stalled gauge = %v", vals[`conn_state{state="stalled"}`])
	}
	if vals["conn_tracked"] != 2 {
		t.Fatalf("conn_tracked = %v", vals["conn_tracked"])
	}
	if vals["conn_stalled_ratio"] != 0.5 {
		t.Fatalf("conn_stalled_ratio = %v", vals["conn_stalled_ratio"])
	}
	if vals["conn_drain_bytes_total"] != 4096 {
		t.Fatalf("conn_drain_bytes_total = %v", vals["conn_drain_bytes_total"])
	}
	// Two connections over three sweeps: six occupancy observations, the
	// stalled connection's full ring (8/8) on top.
	if vals["conn_ring_occupancy_count"] != 6 || vals[`conn_ring_occupancy{quantile="0.99"}`] != 1 {
		t.Fatalf("conn_ring_occupancy summary = %v", vals)
	}
}

func TestEveryStateNameIsValidMetricLabel(t *testing.T) {
	seen := map[string]bool{}
	for s := State(0); s < numStates; s++ {
		n := s.String()
		if n == "" || n == "unknown" || seen[n] {
			t.Fatalf("bad state name %q", n)
		}
		seen[n] = true
	}
	if State(200).String() != "unknown" {
		t.Fatal("out-of-range state did not stringify to unknown")
	}
}

// TestLoopbackKernelSampling exercises the real TCP_INFO read path over a
// loopback socket: the sampler must see kernel telemetry and keep a conn
// whose reader never drains the socket out of the healthy state only via
// the classifier, not via errors.
func TestLoopbackKernelSampling(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer client.Close()
	server := <-accepted
	defer server.Close()

	s, clk := testSampler(t, Config{})
	c := s.Register(server, 7, 16)
	if c.raw == nil {
		t.Fatal("TCP conn did not yield a raw syscall conn")
	}

	// Push some traffic so BytesAcked moves.
	done := make(chan struct{})
	go func() {
		defer close(done)
		io.CopyN(io.Discard, client, 1<<16)
	}()
	buf := make([]byte, 1<<16)
	if _, err := server.Write(buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	<-done

	sweep(s, clk)
	sweep(s, clk)
	sum := s.Snapshot()
	if len(sum.Conns) != 1 {
		t.Fatalf("rows = %d", len(sum.Conns))
	}
	row := sum.Conns[0]
	if !row.Kernel {
		t.Fatal("loopback conn sampled without kernel telemetry")
	}
	if row.Remote == "" || row.Video != 7 {
		t.Fatalf("row identity = %+v", row)
	}
	info, ok := readTCPInfo(c.raw)
	if !ok || !info.Valid {
		t.Fatal("readTCPInfo failed on a live TCP socket")
	}
	if info.SndCwnd == 0 {
		t.Fatal("kernel reported zero congestion window")
	}
	if info.BytesAcked == 0 {
		t.Fatal("kernel reported zero acked bytes after a drained 64 KiB write")
	}
}

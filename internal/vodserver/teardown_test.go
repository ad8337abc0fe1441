package vodserver

import (
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"vodcast/internal/vodclient"
	"vodcast/internal/wire"
)

// openConns reports how many connections have a live handler.
func (s *Server) openConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// TestSlowSubscriberDroppedMidBroadcast exercises the tear-down path end to
// end, and is meant to run under -race: a subscriber that stops reading
// mid-broadcast must not stall the slot tick, and its handler must cut it on
// its own once the session's write deadline (last segment deadline plus the
// read bound) passes — no client action. The client then reads EOF, the drop
// is counted identically in Stats() and /metricsz under a reason label,
// every goroutine comes back, and a double Close of the server stays a
// no-op.
func TestSlowSubscriberDroppedMidBroadcast(t *testing.T) {
	before := runtime.NumGoroutine()
	const segments, slot = 200, 2 * time.Millisecond
	s, err := Start(Config{
		Addr: "127.0.0.1:0",
		// Enough bytes per slot to wedge the drain goroutine's vectored
		// write once the client stops reading.
		Videos:       []VideoConfig{{ID: 1, Segments: segments, SegmentBytes: 64 << 10}},
		SlotDuration: slot,
		StatsAddr:    "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNoFrameLeak(t, s)

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	requested := time.Now()
	if err := wire.WriteFrame(conn, wire.Request{VideoID: 1, FromSegment: 1, Version: wire.ProtoV2}); err != nil {
		t.Fatal(err)
	}
	msg, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := msg.(wire.ScheduleInfo); !ok {
		t.Fatalf("first frame %T, want ScheduleInfo", msg)
	}
	// Admitted — now never read another byte. TCP backpressure wedges the
	// drain goroutine's writev until the session's deadline fails it. The
	// slack past the bound absorbs a loaded machine.
	bound := (segments+1)*slot + s.readTimeout()
	deadline := requested.Add(bound + 2*time.Second)
	for s.openConns() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("paused reader's handler still running %v after its request (bound %v): %+v",
				time.Since(requested), bound, s.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("client read %d bytes then %v, want EOF", n, err)
	}

	st := s.Stats()
	if st.Dropped != 1 || st.ActiveSubscribers != 0 {
		t.Fatalf("after the cut: dropped = %d, active = %d, want 1 and 0", st.Dropped, st.ActiveSubscribers)
	}
	// The drop is visible identically through the exposition endpoint. The
	// counter is split by attribution reason — the connection's last
	// classified transport state — so the scrape sums the labelled children
	// and requires the label to be present on every one. Any reason value is
	// legitimate here; the conntrack E2E pins the stalled attribution.
	_, body := get(t, s, "/metricsz")
	var scraped, labelled int64
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "vod_dropped_subscribers_total") {
			continue
		}
		if !strings.Contains(line, `reason="`) {
			t.Fatalf("drop counter child without a reason label: %q", line)
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("bad exposition line %q: %v", line, err)
		}
		scraped += int64(v)
		if v > 0 {
			labelled++
		}
	}
	if scraped != st.Dropped {
		t.Fatalf("Stats().Dropped = %d but /metricsz children sum to %d", st.Dropped, scraped)
	}
	if labelled == 0 {
		t.Fatal("no reason-labelled drop counter child carries the drop")
	}

	// Close twice: the second must be a clean no-op (no double-close of
	// rings, channels or the station).
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// No goroutine leak: everything the session spawned winds down. The
	// /metricsz scrape left a keep-alive connection in the default HTTP
	// transport (two client goroutines plus the server-side handler) —
	// drop it so only this test's goroutines are measured. The runtime
	// needs a beat to retire exiting goroutines, so poll.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestLaggingReaderCatchesUp: a reader that pauses until its ring holds more
// than 64 slots of frames on top of its full socket buffers, then reads on,
// is still inside its deadlines on a video this long. It must not be cut: it
// receives every segment and the stream ends in a clean EOF.
func TestLaggingReaderCatchesUp(t *testing.T) {
	const segments, lag = 300, 64
	s, err := Start(Config{
		Addr:         "127.0.0.1:0",
		Videos:       []VideoConfig{{ID: 1, Segments: segments, SegmentBytes: 64 << 10}},
		SlotDuration: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNoFrameLeak(t, s)

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A small receive buffer makes the server's writev block early.
	if err := conn.(*net.TCPConn).SetReadBuffer(16 << 10); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetDeadline(time.Now().Add(20 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, wire.Request{VideoID: 1, FromSegment: 1, Version: wire.ProtoV2, Flags: wire.FlagNoReport}); err != nil {
		t.Fatal(err)
	}
	if msg, err := wire.ReadFrame(conn); err != nil {
		t.Fatal(err)
	} else if _, ok := msg.(wire.ScheduleInfo); !ok {
		t.Fatalf("first frame %T, want ScheduleInfo", msg)
	}

	r := s.videos[1].rec.Load()
	waitFor(t, "the reader to fall more than 64 slots behind", func() bool {
		subs := r.subs.Snapshot()
		if len(subs) == 0 {
			t.Fatalf("reader cut before falling %d slots behind: %+v", lag, s.Stats())
		}
		return subs[0].ring.Depth() > lag
	})

	seen := make([]bool, segments+1)
	for {
		msg, err := wire.ReadFrame(conn)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("stream broke while catching up: %v (%+v)", err, s.Stats())
		}
		if seg, ok := msg.(wire.Segment); ok {
			seen[seg.Segment] = true
		}
	}
	for j := 1; j <= segments; j++ {
		if !seen[j] {
			t.Fatalf("segment %d never arrived", j)
		}
	}
	if d := s.Stats().Dropped; d != 0 {
		t.Fatalf("dropped = %d, want 0: the reader was inside its deadlines", d)
	}
}

// TestCloseWaitsForTelemetry: sweep, scrape and evaluation run on one loop
// that Close joins. The staleness rule fires on that loop and captures its
// flight bundle there, and Close is called the moment the rule reads firing,
// while the capture may still be writing. Everything after Close is asserted
// once, without polling: no telemetry goroutine is left, the loop scraped (the
// rule firing shows it evaluated), and the bundle is whole.
func TestCloseWaitsForTelemetry(t *testing.T) {
	flightDir := t.TempDir()
	s := serveTuned(t, Config{
		Addr:         "127.0.0.1:0",
		Videos:       []VideoConfig{{ID: 1, Segments: 6, SegmentBytes: 64}},
		SlotDuration: 10 * time.Millisecond,
		FlightDir:    flightDir,
		// No client ever reports, so this rule fires within a few ticks.
		ReportStaleAfter: time.Millisecond,
	}, func(s *Server) {
		s.telemetryInterval = time.Millisecond
	})
	waitFor(t, "the staleness rule to fire on the loop", func() bool {
		return s.alerts.Firing() > 0
	})
	s.Close()

	// The loop is the only caller of the sweep, the scrape and the
	// evaluation, so its frame is the one to look for. Close returns when
	// the loop's deferred wg.Done lands, which can be an instant before the
	// goroutine is gone: a goroutine inside Done has finished its work.
	stacks := make([]byte, 1<<20)
	stacks = stacks[:runtime.Stack(stacks, true)]
	for _, g := range strings.Split(string(stacks), "\n\n") {
		if strings.Contains(g, "telemetryLoop") && !strings.Contains(g, "sync.(*WaitGroup).Done") {
			t.Fatalf("the telemetry loop survived Close:\n%s", g)
		}
	}
	if scrapes := s.history.Stats().Scrapes; scrapes == 0 {
		t.Fatal("the telemetry loop never scraped")
	}
	entries, err := os.ReadDir(flightDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !strings.HasPrefix(entries[0].Name(), "bundle-") || strings.HasSuffix(entries[0].Name(), ".tmp") {
		t.Fatalf("flight dir after Close holds %v, want exactly one finished bundle", entries)
	}
}

// TestStartFailureLeaksNothing: a Start that fails — in build, where the
// flight directory cannot be created, or at either bind, where the address
// is taken — returns with no goroutine left running and no descriptor left
// open, since no Server is handed back for the caller to Close. A server
// that was built and never served closes, and every frame comes back.
func TestStartFailureLeaksNothing(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	videos := []VideoConfig{{ID: 1, Segments: 4, SegmentBytes: 16}}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"listen address in use", Config{Addr: busy.Addr().String()}},
		{"stats address in use", Config{Addr: "127.0.0.1:0", StatsAddr: busy.Addr().String()}},
		{"uncreatable flight dir", Config{Addr: "127.0.0.1:0", FlightDir: filepath.Join(notDir, "bundles")}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Videos = videos
			tc.cfg.SlotDuration = 10 * time.Millisecond
			before, fds := runtime.NumGoroutine(), openFDs(t)
			if s, err := Start(tc.cfg); err == nil {
				s.Close()
				t.Fatal("Start succeeded, want an error")
			}
			if after := openFDs(t); after > fds {
				t.Fatalf("descriptors leaked by failed Start: %d before, %d after", fds, after)
			}
			// The runtime needs a beat to retire exiting goroutines, so poll.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked by failed Start: %d before, %d after",
						before, runtime.NumGoroutine())
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
	t.Run("built, never served", func(t *testing.T) {
		s, err := build(Config{Videos: videos, SlotDuration: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		closeNoFrameLeak(t, s)
	})
}

// openFDs counts the process's open descriptors, skipping the test where
// they cannot be counted.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count fds: %v", err)
	}
	return len(ents)
}

// TestSequentialSessionsNoFDLeak: a thousand sequential sessions leave the
// process's descriptor count where it started. Client and server share the
// process, so the count covers the client's dialled sockets and the server's
// accepted ones alike.
func TestSequentialSessionsNoFDLeak(t *testing.T) {
	sessions := 1000
	if testing.Short() {
		sessions = 100
	}
	s, err := Start(Config{
		Addr:         "127.0.0.1:0",
		Videos:       []VideoConfig{{ID: 1, Segments: 1, SegmentBytes: 32}},
		SlotDuration: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNoFrameLeak(t, s)
	session := func(i int) {
		res, err := vodclient.FetchWith(s.Addr(), vodclient.FetchOptions{VideoID: 1, Timeout: 10 * time.Second})
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if res.MissingSegments != 0 {
			t.Fatalf("session %d incomplete: %+v", i, res)
		}
	}
	// Warm up before the baseline: the first session creates the runtime's
	// lazily-opened descriptors (epoll, netpoll pipe).
	session(0)
	before := openFDs(t)
	for i := 1; i <= sessions; i++ {
		session(i)
	}
	// TIME_WAIT sockets belong to the kernel, not our fd table; the only
	// slack allowed is transient server-side accept/close churn.
	if after := openFDs(t); after > before+8 {
		t.Fatalf("fd count grew %d -> %d across %d sessions: descriptor leak", before, after, sessions)
	}
}

// flakyListener fails its first Accept as a process out of file descriptors
// does, then reports itself closed.
type flakyListener struct{ accepts atomic.Int32 }

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.accepts.Add(1) == 1 {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept4", syscall.EMFILE)}
	}
	return nil, net.ErrClosed
}

func (l *flakyListener) Close() error   { return nil }
func (l *flakyListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }

// TestAcceptLoopSurvivesTransientError: an Accept error other than a closed
// listener — EMFILE in a connection burst — does not end service; the loop
// backs off and accepts again, and only a closed listener ends it.
func TestAcceptLoopSurvivesTransientError(t *testing.T) {
	ln := &flakyListener{}
	s := &Server{ln: ln, done: make(chan struct{})}
	s.wg.Add(1)
	s.acceptLoop()
	if n := ln.accepts.Load(); n != 2 {
		t.Fatalf("acceptLoop called Accept %d times, want 2: it must retry after EMFILE and stop once closed", n)
	}
}

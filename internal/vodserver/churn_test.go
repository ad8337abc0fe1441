package vodserver

import (
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vodcast/internal/vodclient"
	"vodcast/internal/wire"
)

// TestParallelTickChurn is the -race stress for the parallel broadcast
// tick: with four fan-out workers walking the catalogue, three subscriber
// populations churn concurrently — full fetches that end with a clean
// lastSlot retirement, clients that disconnect right after admission, and
// slow subscribers on a heavy video that stop reading and must be cut
// loose by a ring-full drop racing the tick. The assertions: every admit
// is counted exactly once, at least one slow subscriber is dropped, the
// subscriber set drains to zero, Stats() agrees with /metricsz, no frame
// ref-count panic fires, and no goroutine outlives the server.
func TestParallelTickChurn(t *testing.T) {
	// Four tick spans: the span pool follows GOMAXPROCS.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	before := runtime.NumGoroutine()
	s, err := Start(Config{
		Addr: "127.0.0.1:0",
		Videos: []VideoConfig{
			// Video 1 is the heavy channel: enough bytes per slot to wedge a
			// non-reading subscriber's vectored write within a few ticks.
			{ID: 1, Segments: 200, SegmentBytes: 32 << 10},
			{ID: 2, Segments: 8, SegmentBytes: 512},
			{ID: 3, Segments: 8, SegmentBytes: 512},
			{ID: 4, Segments: 8, SegmentBytes: 512},
			{ID: 5, Segments: 8, SegmentBytes: 512},
		},
		SlotDuration: 2 * time.Millisecond,
		StatsAddr:    "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNoFrameLeak(t, s)

	deadline := time.Now().Add(30 * time.Second)
	var wg sync.WaitGroup
	errc := make(chan error, 16)

	// Class 1: six full fetches across the small videos — admissions racing
	// the tick, clean lastSlot retirements, session reports.
	const fetchers = 6
	for c := 0; c < fetchers; c++ {
		wg.Add(1)
		go func(video uint32) {
			defer wg.Done()
			res, err := vodclient.FetchWith(s.Addr(), vodclient.FetchOptions{
				VideoID: video, Timeout: 25 * time.Second,
			})
			if err != nil {
				errc <- fmt.Errorf("fetch video %d: %w", video, err)
				return
			}
			if res.Segments != 8 {
				errc <- fmt.Errorf("fetch video %d: %d segments, want 8", video, res.Segments)
			}
		}(uint32(2 + c%4))
	}

	// Class 2: four clients that disconnect the moment they are admitted —
	// the abnormal-teardown path racing the tick's snapshot push.
	const quitters = 4
	for c := 0; c < quitters; c++ {
		wg.Add(1)
		go func(video uint32) {
			defer wg.Done()
			conn, err := net.Dial("tcp", s.Addr())
			if err != nil {
				errc <- err
				return
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			if err := wire.WriteFrame(conn, wire.Request{VideoID: video, FromSegment: 1, Version: wire.ProtoV2}); err != nil {
				errc <- err
				return
			}
			if _, err := wire.ReadFrame(conn); err != nil {
				errc <- err
			}
			// Admitted; the deferred close races the next slot's fan-out.
		}(uint32(2 + c%4))
	}

	// Class 3: two slow subscribers on the heavy video — admitted, then
	// never read again, so TCP backpressure wedges their drain goroutines
	// and the parallel tick must retire them with a ring-full Drop.
	const slow = 2
	slowConns := make([]net.Conn, 0, slow)
	for c := 0; c < slow; c++ {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(25 * time.Second))
		if err := wire.WriteFrame(conn, wire.Request{VideoID: 1, FromSegment: 1, Version: wire.ProtoV2}); err != nil {
			t.Fatal(err)
		}
		if _, err := wire.ReadFrame(conn); err != nil {
			t.Fatal(err)
		}
		slowConns = append(slowConns, conn)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// The slow subscribers must be dropped by the tick, not by anything the
	// test does: poll until the fan-out cuts them loose.
	for s.Stats().Dropped < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("no slow subscriber dropped: %+v", s.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, conn := range slowConns {
		conn.Close()
	}
	for s.Stats().ActiveSubscribers != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("subscribers never drained: %+v", s.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The tick retires a subscriber before its service pass counts a cut,
	// so the counters are final only once every session is hung up on.
	for n := s.openSessions(); n != 0; n = s.openSessions() {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions never ended", n)
		}
		time.Sleep(5 * time.Millisecond)
	}

	st := s.Stats()
	if want := int64(fetchers + quitters + slow); st.Requests != want {
		t.Fatalf("requests = %d, want exactly %d (one per admit)", st.Requests, want)
	}
	if st.Dropped < 1 || st.Dropped > slow {
		t.Fatalf("dropped = %d, want 1..%d (only slow subscribers drop)", st.Dropped, slow)
	}

	// The same accounting must surface through the exposition endpoint —
	// the per-worker tallies merge into the registry counters too. The drop
	// counter is reason-labelled, so its scrape sums every child.
	_, body := get(t, s, "/metricsz")
	scrape := func(name string) int64 {
		var total int64
		found := false
		for _, line := range strings.Split(body, "\n") {
			if !strings.HasPrefix(line, name+" ") && !strings.HasPrefix(line, name+"{") {
				continue
			}
			fields := strings.Fields(line)
			v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				t.Fatalf("bad exposition line %q: %v", line, err)
			}
			total += int64(v)
			found = true
		}
		if !found {
			t.Fatalf("/metricsz missing %s", name)
		}
		return total
	}
	if got := scrape("vod_requests_total"); got != st.Requests {
		t.Fatalf("Stats().Requests = %d but /metricsz reports %d", st.Requests, got)
	}
	if got := scrape("vod_dropped_subscribers_total"); got != st.Dropped {
		t.Fatalf("Stats().Dropped = %d but /metricsz reports %d", st.Dropped, got)
	}

	// Close twice: worker pool, station clock and every ring wind down once.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

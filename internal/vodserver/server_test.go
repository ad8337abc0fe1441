package vodserver

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"bytes"

	"vodcast/internal/core"
	"vodcast/internal/fanout"
	"vodcast/internal/trace"
	"vodcast/internal/vodclient"
	"vodcast/internal/wire"
)

func startTestServer(t *testing.T, videos ...VideoConfig) *Server {
	t.Helper()
	if len(videos) == 0 {
		videos = []VideoConfig{{ID: 1, Segments: 10, SegmentBytes: 512}}
	}
	s, err := Start(Config{
		Addr:         "127.0.0.1:0",
		Videos:       videos,
		SlotDuration: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeNoFrameLeak(t, s) })
	return s
}

// buildServer builds a server on cfg and never serves it: it holds no
// socket, runs no goroutine and its clock never ticks, so the test drives
// ticks, evaluations and handlers itself.
func buildServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeNoFrameLeak(t, s) })
	return s
}

// serveTuned builds a server on cfg, lets tune set its telemetry period or
// SLO target, and serves it on cfg.Addr and, when set, cfg.StatsAddr, as
// Start does.
func serveTuned(t *testing.T, cfg Config, tune func(*Server)) *Server {
	t.Helper()
	s := buildServer(t, cfg)
	tune(s)
	listen := func(addr string) net.Listener {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		return ln
	}
	var statsLn net.Listener
	if cfg.StatsAddr != "" {
		statsLn = listen(cfg.StatsAddr)
	}
	if err := s.serve(listen(cfg.Addr), statsLn); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStartValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{name: "empty catalogue", cfg: Config{SlotDuration: time.Millisecond}},
		{
			name: "zero slot",
			cfg: Config{
				Videos: []VideoConfig{{ID: 1, Segments: 5, SegmentBytes: 64}},
			},
		},
		{
			name: "zero segment bytes",
			cfg: Config{
				Videos:       []VideoConfig{{ID: 1, Segments: 5}},
				SlotDuration: time.Millisecond,
			},
		},
		{
			name: "duplicate ids",
			cfg: Config{
				Videos: []VideoConfig{
					{ID: 1, Segments: 5, SegmentBytes: 64},
					{ID: 1, Segments: 6, SegmentBytes: 64},
				},
				SlotDuration: time.Millisecond,
			},
		},
		{
			name: "bad segments",
			cfg: Config{
				Videos:       []VideoConfig{{ID: 1, Segments: 0, SegmentBytes: 64}},
				SlotDuration: time.Millisecond,
			},
		},
		{
			name: "negative segments",
			cfg: Config{
				Videos:       []VideoConfig{{ID: 1, Segments: -1, SegmentBytes: 64}},
				SlotDuration: time.Millisecond,
			},
		},
		{
			// Validation stays eager: the last video is never admitted, yet
			// its bad period vector fails Start.
			name: "bad periods on the last video",
			cfg: Config{
				Videos: []VideoConfig{
					{ID: 1, Segments: 3, SegmentBytes: 64},
					{ID: 2, Segments: 3, SegmentBytes: 64, Periods: []int{0, 2, 2, 3}},
				},
				SlotDuration: time.Millisecond,
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tt.cfg.Addr = "127.0.0.1:0"
			if _, err := Start(tt.cfg); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

// TestEndToEndSingleClient is the canonical session: one client requests the
// video and must receive every segment, byte-perfect, by its deadline.
func TestEndToEndSingleClient(t *testing.T) {
	s := startTestServer(t)
	res, err := vodclient.FetchWith(s.Addr(), vodclient.FetchOptions{VideoID: 1, Timeout: 10 * time.Second, StrictDeadlines: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Segments != 10 {
		t.Fatalf("segments = %d, want 10", res.Segments)
	}
	if res.PayloadBytes < 10*512 {
		t.Fatalf("payload bytes = %d, want >= %d", res.PayloadBytes, 10*512)
	}
	st := s.Stats()
	if st.Requests != 1 {
		t.Fatalf("requests = %d, want 1", st.Requests)
	}
	if st.Instances != 10 {
		t.Fatalf("instances = %d, want 10 for an isolated request", st.Instances)
	}
}

// TestEndToEndConcurrentClientsShare verifies the whole point of the
// protocol over the real network: simultaneous customers share broadcast
// instances, so the server transmits far fewer than clients x segments.
func TestEndToEndConcurrentClientsShare(t *testing.T) {
	s := startTestServer(t, VideoConfig{ID: 1, Segments: 12, SegmentBytes: 256})
	const clients = 6
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := vodclient.FetchWith(s.Addr(), vodclient.FetchOptions{VideoID: 1, Timeout: 10 * time.Second, StrictDeadlines: true}); err != nil {
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(errs) > 0 {
		t.Fatalf("client errors: %v", errs)
	}
	st := s.Stats()
	if st.Requests != clients {
		t.Fatalf("requests = %d, want %d", st.Requests, clients)
	}
	// Without sharing the server would transmit 6*12 = 72 instances; the
	// clients arrive within a slot or two of each other, so sharing must
	// cut that down substantially.
	if st.Instances >= clients*12 {
		t.Fatalf("instances = %d: no sharing happened", st.Instances)
	}
	if st.Instances < 12 {
		t.Fatalf("instances = %d below one full video", st.Instances)
	}
}

// TestSameSlotBurst drives repeat same-slot admissions through the live
// server: 16 strict full viewings and one resume of the same video all
// admitted inside one long slot. Nobody misses a deadline, the server
// writes nothing late, only the first full viewing (and at most the
// resume's suffix) places instances, and the station_admit spans account
// for every instance.
func TestSameSlotBurst(t *testing.T) {
	const (
		n          = 6
		viewers    = 16
		resumeFrom = 4
	)
	s, err := Start(Config{
		Addr:            "127.0.0.1:0",
		Videos:          []VideoConfig{{ID: 1, Segments: n, SegmentBytes: 128}},
		SlotDuration:    300 * time.Millisecond,
		SpanSampleEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeNoFrameLeak(t, s) })

	// Start right after a slot boundary so the whole burst lands in one slot.
	for slot := s.Station().Status().PerVideo[0].Slot; s.Station().Status().PerVideo[0].Slot == slot; {
		time.Sleep(time.Millisecond)
	}
	results := make([]vodclient.Result, viewers+1)
	errs := make([]error, viewers+1)
	var wg sync.WaitGroup
	for c := range results {
		from := uint32(1)
		if c == viewers {
			from = resumeFrom
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[c], errs[c] = vodclient.FetchWith(s.Addr(), vodclient.FetchOptions{
				VideoID: 1, From: from, Timeout: 20 * time.Second,
				StrictDeadlines: true, NoTrace: true, NoReport: true,
			})
		}()
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", c, err)
		}
		if results[c].AdmitSlot != results[0].AdmitSlot {
			t.Fatalf("session %d admitted in slot %d, session 0 in %d: the burst straddled a boundary",
				c, results[c].AdmitSlot, results[0].AdmitSlot)
		}
		if results[c].DeadlineMisses != 0 || results[c].MissingSegments != 0 {
			t.Fatalf("session %d missed: %+v", c, results[c])
		}
	}
	if n := lateWrites(s); n != 0 {
		t.Fatalf("vod_late_writes_total = %d on slots %v long, want 0", n, s.cfg.SlotDuration)
	}

	const bound = n + (n - resumeFrom + 1)
	requests, scheduled := s.Station().Totals()
	if requests != viewers+1 || scheduled < n || scheduled > bound {
		t.Fatalf("station totals: %d requests, %d instances, want %d and %d..%d",
			requests, scheduled, viewers+1, n, bound)
	}
	if got := s.mInstances.Value(); got > bound {
		t.Fatalf("vod_instances_total = %v, want at most %d", got, bound)
	}
	var placed, placing int
	for _, r := range s.spans.Recent() {
		if r.Name != "station_admit" {
			continue
		}
		p, err := strconv.Atoi(r.Attrs["placed"])
		if err != nil {
			t.Fatalf("station_admit placed attr in %+v", r)
		}
		placed += p
		if p > 0 {
			placing++
		}
	}
	if int64(placed) != scheduled || placing > 2 {
		t.Fatalf("station_admit spans placed %d instances over %d admissions, station scheduled %d",
			placed, placing, scheduled)
	}
}

func TestStaggeredClients(t *testing.T) {
	s := startTestServer(t, VideoConfig{ID: 1, Segments: 8, SegmentBytes: 128})
	for c := 0; c < 3; c++ {
		res, err := vodclient.FetchWith(s.Addr(), vodclient.FetchOptions{VideoID: 1, Timeout: 10 * time.Second, StrictDeadlines: true})
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
		if res.MaxBuffered < 1 {
			t.Fatalf("client %d buffered nothing", c)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func TestMultipleVideos(t *testing.T) {
	s := startTestServer(t,
		VideoConfig{ID: 1, Segments: 6, SegmentBytes: 128},
		VideoConfig{ID: 2, Segments: 9, SegmentBytes: 64},
	)
	var wg sync.WaitGroup
	results := make([]vodclient.Result, 2)
	errs := make([]error, 2)
	for i, id := range []uint32{1, 2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = vodclient.FetchWith(s.Addr(), vodclient.FetchOptions{VideoID: id, Timeout: 10 * time.Second, StrictDeadlines: true})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("video %d: %v", i+1, err)
		}
	}
	if results[0].Segments != 6 || results[1].Segments != 9 {
		t.Fatalf("segments = %d, %d; want 6, 9", results[0].Segments, results[1].Segments)
	}
}

func TestUnknownVideoRejected(t *testing.T) {
	s := startTestServer(t)
	_, err := vodclient.FetchWith(s.Addr(), vodclient.FetchOptions{VideoID: 99, Timeout: 5 * time.Second, StrictDeadlines: true})
	if err == nil {
		t.Fatal("unknown video accepted")
	}
}

func TestBadFirstFrameRejected(t *testing.T) {
	s := startTestServer(t)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, wire.SlotEnd{Slot: 1}); err != nil {
		t.Fatal(err)
	}
	msg, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := msg.(wire.ErrorMsg); !ok {
		t.Fatalf("want ErrorMsg, got %T", msg)
	}
}

// TestSilentConnectionClosed: a client that connects and never sends its
// request is cut off by the server within the request read bound
// (max(4 slots, 1 s) = 1 s here) instead of holding a goroutine and an fd
// until Close, and leaves no tracked connection behind.
func TestSilentConnectionClosed(t *testing.T) {
	s := startTestServer(t)
	tracked := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.conns)
	}
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	waitFor(t, "the silent connection to be tracked", func() bool { return tracked() == 1 })
	dialed := time.Now()
	if err := conn.SetReadDeadline(dialed.Add(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read on a silent connection: %v after %v, want the server's close (EOF) within 1s",
			err, time.Since(dialed))
	}
	waitFor(t, "the silent connection to be untracked", func() bool { return tracked() == 0 })
}

func TestCloseTerminatesCleanly(t *testing.T) {
	s := startTestServer(t)
	// A parked connection that never sends a request must not block Close.
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	time.Sleep(20 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not terminate")
	}
	// Idempotent.
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := vodclient.FetchWith(s.Addr(), vodclient.FetchOptions{VideoID: 1, Timeout: time.Second, StrictDeadlines: true}); err == nil {
		t.Fatal("fetch succeeded after Close")
	}
}

func TestDHBDPeriodsOverTheWire(t *testing.T) {
	// A stretched DHB-d style period vector must flow through the wire
	// protocol and still satisfy the client's deadline oracle.
	s := startTestServer(t, VideoConfig{
		ID:           7,
		Segments:     6,
		Periods:      []int{0, 1, 3, 3, 5, 6, 8},
		SegmentBytes: 256,
	})
	res, err := vodclient.FetchWith(s.Addr(), vodclient.FetchOptions{VideoID: 7, Timeout: 10 * time.Second, StrictDeadlines: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Segments != 6 {
		t.Fatalf("segments = %d, want 6", res.Segments)
	}
}

func TestClientTimeout(t *testing.T) {
	// A listener that accepts but never answers must trip the client's
	// deadline, not hang.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			defer conn.Close()
			time.Sleep(2 * time.Second)
		}
	}()
	start := time.Now()
	_, err = vodclient.FetchWith(ln.Addr().String(), vodclient.FetchOptions{VideoID: 1, Timeout: 300 * time.Millisecond, StrictDeadlines: true})
	if err == nil {
		t.Fatal("fetch succeeded against a mute server")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("client did not respect its timeout")
	}
}

func TestVBRVideoOverTheWire(t *testing.T) {
	// The full Section 4 pipeline served over sockets: synthesize the
	// trace, derive the DHB-d plan, scale it to test size, and verify a
	// customer receives every variable-size unit by its relaxed deadline.
	tr, err := trace.SyntheticMatrix(42)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := core.PlanVBR(tr, 60)
	if err != nil {
		t.Fatal(err)
	}
	vc, err := NewVBRVideo(9, tr, plans[core.VariantD], 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Start(Config{
		Addr:         "127.0.0.1:0",
		Videos:       []VideoConfig{vc},
		SlotDuration: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNoFrameLeak(t, s)
	res, err := vodclient.FetchWith(s.Addr(), vodclient.FetchOptions{VideoID: 9, Timeout: 30 * time.Second, StrictDeadlines: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Segments != plans[core.VariantD].Segments {
		t.Fatalf("segments = %d, want %d", res.Segments, plans[core.VariantD].Segments)
	}
	// Work-ahead delivery runs early, so the client buffer holds many
	// units at once — the behaviour Section 4's smoothing relies on.
	if res.MaxBuffered < 2 {
		t.Fatalf("max buffered = %d, want work-ahead buffering", res.MaxBuffered)
	}
}

func TestVBRVideoVariantB(t *testing.T) {
	tr, err := trace.SyntheticMatrix(42)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := core.PlanVBR(tr, 60)
	if err != nil {
		t.Fatal(err)
	}
	vc, err := NewVBRVideo(3, tr, plans[core.VariantB], 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	// Variant B sizes track the trace: they must vary.
	min, max := vc.SegmentSizes[0], vc.SegmentSizes[0]
	for _, sz := range vc.SegmentSizes {
		if sz < min {
			min = sz
		}
		if sz > max {
			max = sz
		}
	}
	if min == max {
		t.Fatal("variant B segment sizes are uniform")
	}
	s, err := Start(Config{
		Addr:         "127.0.0.1:0",
		Videos:       []VideoConfig{vc},
		SlotDuration: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNoFrameLeak(t, s)
	if _, err := vodclient.FetchWith(s.Addr(), vodclient.FetchOptions{VideoID: 3, Timeout: 30 * time.Second, StrictDeadlines: true}); err != nil {
		t.Fatal(err)
	}
}

func TestNewVBRVideoValidation(t *testing.T) {
	tr, err := trace.SyntheticMatrix(1)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := core.PlanVBR(tr, 60)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewVBRVideo(1, nil, plans[core.VariantA], 1); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := NewVBRVideo(1, tr, plans[core.VariantA], 0); err == nil {
		t.Error("zero scale accepted")
	}
	bad := plans[core.VariantA]
	bad.Segments = 0
	if _, err := NewVBRVideo(1, tr, bad, 1); err == nil {
		t.Error("empty plan accepted")
	}
}

func TestStartRejectsBadSegmentSizes(t *testing.T) {
	base := Config{Addr: "127.0.0.1:0", SlotDuration: time.Millisecond}
	base.Videos = []VideoConfig{{ID: 1, Segments: 3, SegmentSizes: []int{1, 2}}}
	if _, err := Start(base); err == nil {
		t.Error("mismatched size count accepted")
	}
	base.Videos = []VideoConfig{{ID: 1, Segments: 2, SegmentSizes: []int{1, 0}}}
	if _, err := Start(base); err == nil {
		t.Error("zero size accepted")
	}

	// A Segment frame's body is its 16-byte head plus the payload, and a
	// body over wire.MaxBody is one no client decodes: Start refuses such a
	// size, CBR or VBR, naming the video and segment, and starts with the
	// largest size that fits.
	const largest = wire.MaxBody - 16
	for _, tc := range []struct {
		video VideoConfig
		want  string
	}{
		{VideoConfig{ID: 7, Segments: 2, SegmentBytes: largest + 1}, "video 7 segment 1 "},
		{VideoConfig{ID: 8, Segments: 3, SegmentSizes: []int{64, 64, largest + 1}}, "video 8 segment 3 "},
		{VideoConfig{ID: 9, Segments: 1, SegmentSizes: []int{1<<32 + 64}}, "video 9 segment 1 "},
	} {
		base.Videos = []VideoConfig{{ID: 1, Segments: 2, SegmentBytes: 64}, tc.video}
		if s, err := Start(base); err == nil {
			s.Close()
			t.Errorf("video %d: a segment the wire cannot carry was accepted", tc.video.ID)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("video %d: error %q does not name %q", tc.video.ID, err, tc.want)
		}
	}
	base.Videos = []VideoConfig{{ID: 1, Segments: 2, SegmentBytes: largest}}
	s, err := Start(base)
	if err != nil {
		t.Fatalf("largest carriable segment refused: %v", err)
	}
	closeNoFrameLeak(t, s)
}

func TestResumeOverTheWire(t *testing.T) {
	s := startTestServer(t, VideoConfig{ID: 1, Segments: 12, SegmentBytes: 256})
	// A full viewing and a resume from segment 9 share the suffix.
	full, err := vodclient.FetchWith(s.Addr(), vodclient.FetchOptions{VideoID: 1, Timeout: 10 * time.Second, StrictDeadlines: true})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := vodclient.FetchWith(s.Addr(), vodclient.FetchOptions{VideoID: 1, From: 9, Timeout: 10 * time.Second, StrictDeadlines: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.Segments != 12 || resumed.Segments != 12 {
		t.Fatalf("segments: full %d, resumed %d", full.Segments, resumed.Segments)
	}
	// The resumed session only waits for 4 segments, so it finishes much
	// faster than a full viewing (12 slots vs at most 5).
	if resumed.Elapsed >= full.Elapsed {
		t.Fatalf("resume took %v, full viewing %v", resumed.Elapsed, full.Elapsed)
	}
}

func TestResumeBeyondVideoRejected(t *testing.T) {
	s := startTestServer(t, VideoConfig{ID: 1, Segments: 5, SegmentBytes: 64})
	if _, err := vodclient.FetchWith(s.Addr(), vodclient.FetchOptions{VideoID: 1, From: 6, Timeout: 5 * time.Second, StrictDeadlines: true}); err == nil {
		t.Fatal("resume beyond the video accepted")
	}
}

func TestConcurrentResumesShare(t *testing.T) {
	s := startTestServer(t, VideoConfig{ID: 1, Segments: 10, SegmentBytes: 128})
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			_, errs[id] = vodclient.FetchWith(s.Addr(), vodclient.FetchOptions{VideoID: 1, From: 6, Timeout: 10 * time.Second, StrictDeadlines: true})
		}(c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("resume %d: %v", i, err)
		}
	}
	st := s.Stats()
	// Four resumes of the 5-segment suffix share instances: far below 20.
	if st.Instances >= 20 {
		t.Fatalf("instances = %d: resumes did not share", st.Instances)
	}
}

func TestStatszEndpoint(t *testing.T) {
	s, err := Start(Config{
		Addr:         "127.0.0.1:0",
		Videos:       []VideoConfig{{ID: 1, Segments: 6, SegmentBytes: 64}},
		SlotDuration: 10 * time.Millisecond,
		StatsAddr:    "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNoFrameLeak(t, s)
	if s.StatsAddr() == "" {
		t.Fatal("stats endpoint not bound")
	}
	if _, err := vodclient.FetchWith(s.Addr(), vodclient.FetchOptions{VideoID: 1, Timeout: 10 * time.Second, StrictDeadlines: true}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.StatsAddr() + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var snap StatusSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if st := snap.Stats; st.Requests != 1 || st.Instances != 6 {
		t.Fatalf("stats = %+v", st)
	}
	// Non-GET is rejected.
	post, err := http.Post("http://"+s.StatsAddr()+"/statusz", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d", post.StatusCode)
	}
}

func TestStatszDisabledByDefault(t *testing.T) {
	s := startTestServer(t)
	if s.StatsAddr() != "" {
		t.Fatal("stats endpoint bound without configuration")
	}
}

func TestUnsubscribeIdempotent(t *testing.T) {
	s := startTestServer(t)
	r, err := s.record(s.videos[1])
	if err != nil {
		t.Fatal(err)
	}
	// The first call drops the ring, releasing its queued frame; repeats
	// are no-ops.
	rsub := &subscriber{ring: fanout.NewRing(1), firstByte: s.firstByte, rec: r, ct: s.ct.Register(nil, 1, 1)}
	r.subs.Add(rsub)
	f, err := s.enc.EncodeSlot(1, 0, []int{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rsub.ring.Push(f); !ok {
		t.Fatal("push to a fresh ring failed")
	}
	s.unsubscribe(rsub)
	s.unsubscribe(rsub)
	if d := rsub.ring.Depth(); d != 0 || r.subs.Len() != 0 {
		t.Fatalf("after unsubscribe: %d frames queued, %d subscribed", d, r.subs.Len())
	}
	if frames, open := rsub.ring.PopAll(nil); open || len(frames) != 0 {
		t.Fatalf("dropped ring popped %d frames, open=%v", len(frames), open)
	}
}

// TestRawWireNoReportNoTraceSession drives a request declining both the
// report and the trace over a raw TCP connection: the ScheduleInfo carries
// ProtoV2 and zero trace identifiers, and every segment is delivered with
// verified payload bytes.
func TestRawWireNoReportNoTraceSession(t *testing.T) {
	s := startTestServer(t, VideoConfig{ID: 4, Segments: 5, SegmentBytes: 96})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	req := wire.Request{VideoID: 4, FromSegment: 1, Version: wire.ProtoV2, Flags: wire.FlagNoReport | wire.FlagNoTrace}
	if err := wire.WriteFrame(conn, req); err != nil {
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
	if info.Version != wire.ProtoV2 || info.TraceID != 0 || info.SpanID != 0 {
		t.Fatalf("untraced session got %+v", info)
	}
	// Verify every payload byte, stop at the slot that retires the whole
	// schedule.
	last := info.AdmitSlot
	for _, p := range info.Periods {
		if info.AdmitSlot+uint64(p) > last {
			last = info.AdmitSlot + uint64(p)
		}
	}
	got := make(map[uint32]bool)
	for {
		msg, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		switch m := msg.(type) {
		case wire.Segment:
			want := wire.SegmentPayload(m.VideoID, m.Segment, info.SizeOf(m.Segment))
			if !bytes.Equal(m.Payload, want) {
				t.Fatalf("corrupt payload for segment %d", m.Segment)
			}
			got[m.Segment] = true
		case wire.SlotEnd:
			if m.Slot >= last {
				for j := uint32(1); j <= info.Segments; j++ {
					if !got[j] {
						t.Fatalf("segment %d never delivered", j)
					}
				}
				return
			}
		default:
			t.Fatalf("unexpected frame %T", msg)
		}
	}
}

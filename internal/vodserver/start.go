// Package vodserver is the networked realization of the DHB protocol: a
// video server that admits customer requests over TCP, schedules segment
// transmissions with the DHB scheduler in real time, and pushes the segment
// payloads of every broadcast instance to the subscribed set-top boxes.
//
// Scheduling is delegated to the internal/station engine: one DHB scheduler
// per video, each behind its own lock, so admissions for different videos
// proceed in parallel. The station's clock goroutine drives the slot grid
// and hands each slot, as it begins, to the fan-out path, which walks the
// catalogue over the station's spans: a customer admitted in slot i gets
// its first segment as slot i+1 begins.
//
// The data plane models broadcast channels: each scheduled instance is
// produced (and counted) exactly once per slot and the encoded frame is
// fanned out to the subscribers of the video that tune in to it — those
// whose admission assigned one of their segments to the slot, and those
// whose last slot it is — standing in for the IP multicast a production
// deployment would use (see DESIGN.md §3). Video bytes are generated
// deterministically per (video, segment) so the client can verify every
// byte without the server storing real footage.
package vodserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vodcast/internal/conntrack"
	"vodcast/internal/core"
	"vodcast/internal/fanout"
	"vodcast/internal/obs"
	"vodcast/internal/obs/history"
	"vodcast/internal/station"
)

// VideoConfig describes one servable video.
type VideoConfig struct {
	// ID is the catalogue identifier clients request.
	ID uint32
	// Segments is the DHB segment count.
	Segments int
	// Periods optionally carries a DHB-d period vector (nil = CBR default).
	Periods []int
	// SegmentBytes is the payload size of one segment.
	SegmentBytes int
	// SegmentSizes optionally carries per-segment payload sizes for
	// variable-bit-rate videos (it must have Segments entries and
	// overrides SegmentBytes). Build one from a Section 4 plan with
	// NewVBRVideo.
	SegmentSizes []int
}

// Config parameterizes a server.
type Config struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:0".
	Addr string
	// Videos is the catalogue.
	Videos []VideoConfig
	// SlotDuration is the real-time slot length (the paper's d, scaled
	// down for testing).
	SlotDuration time.Duration
	// StatsAddr optionally binds an HTTP monitoring endpoint serving
	// /statusz (JSON pipeline snapshot with uptime and alert states),
	// /metricsz (Prometheus text format), /connz (per-subscriber transport
	// state), /queryz (metric history), /debug/flightrecord (forces a
	// flight-recorder bundle) and /debug/pprof/*.
	StatsAddr string
	// SpanWriter optionally streams every finished pipeline span as JSONL.
	// Spans are kept in the ring the flight bundle's spans.jsonl copies
	// regardless; the writer adds the offline stream.
	SpanWriter io.Writer
	// SpanSampleEvery keeps 1 in N admission span trees (children inherit
	// the root's decision); 0 selects defaultSpanSampleEvery, 1 keeps
	// everything.
	SpanSampleEvery int
	// AlertFor is the pending hold of the built-in alert rules: how long a
	// condition must persist before pending becomes firing. 0 fires on the
	// first breached evaluation.
	AlertFor time.Duration
	// ReportStaleAfter arms the client_reports_stale rule: it fires when no
	// client report has arrived for this long. 0 disables the rule.
	ReportStaleAfter time.Duration
	// DropInstance, when non-nil, suppresses the transmission of scheduled
	// broadcast instances for which it returns true — fault injection for
	// tests and operator drills. The scheduler still counts the instance;
	// only the wire frame is withheld, so subscribed clients miss the
	// segment's deadline exactly as they would under packet loss.
	DropInstance func(video uint32, segment, slot int) bool
	// FlightDir arms the flight recorder: any alert rule entering firing
	// (at most one bundle per 5-minute cooldown), a SIGQUIT in cmd/vodserver,
	// or a /debug/flightrecord GET dumps a diagnostic bundle directory under
	// it. "" leaves the recorder disabled.
	FlightDir string
}

// defaultSpanSampleEvery is the admission span sampling period when the
// owner does not choose one: cheap enough for production, dense enough that
// vodtop always has recent trees to show.
const defaultSpanSampleEvery = 8

// sloObjective is the fraction of admissions that must reach their first
// byte within Server.sloTarget.
const sloObjective = 0.99

type video struct {
	cfg VideoConfig
	// idx is the video's index in the station catalogue.
	idx int
	// rec is built by the video's first admission and never replaced; a
	// video nobody has requested has none and exports no series.
	rec atomic.Pointer[videoRecord]
}

// videoRecord is the serving state of a video that has been admitted at
// least once (see Server.record).
type videoRecord struct {
	id uint32
	// maxPeriod[k] is the largest of the resolved periods T[1..k]: how many
	// slots a customer consuming k segments stays subscribed.
	maxPeriod []int
	// wirePeriods and wireSizes are shared read-only by every ScheduleInfo.
	wirePeriods, wireSizes []uint32
	// load is the channel-load gauge vod_channel_load{video="..."}: each
	// slot's instance count as it begins, 0 once idle (the last slot was
	// empty).
	// miss and rebuffer are the video's client_miss_total and
	// client_rebuffer_total children, which every client report adds to.
	load           *obs.Gauge
	miss, rebuffer *obs.Counter

	// subs is the copy-on-write subscriber set: tick workers read lock-free
	// snapshots, admit/disconnect/teardown mutate under the set's own small
	// admin lock, and Set.Close doubles as the video's shutdown latch (Add
	// refuses afterwards). Removal and the ring teardown around it are
	// idempotent, so retirement, disconnect and shutdown may all reach one
	// subscriber.
	subs *fanout.Set[*subscriber]
	// frame is the slot's frame between the tick's two walks (see fanOut);
	// the tick alone touches it.
	frame *fanout.Frame
}

// record returns the video's record, building it on the video's first
// admission. Record builds happen under s.mu and refuse once Close has
// begun; Close latches every built record's set under s.mu, so a record is
// either latched by Close or never built.
func (s *Server) record(v *video) (*videoRecord, error) {
	if r := v.rec.Load(); r != nil {
		return r, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, errShuttingDown
	}
	if r := v.rec.Load(); r != nil {
		return r, nil
	}
	label := obs.Labels{"video": strconv.FormatUint(uint64(v.cfg.ID), 10)}
	r := &videoRecord{
		id:          v.cfg.ID,
		maxPeriod:   s.station.Periods(v.idx), // a copy, turned into its prefix maxima
		wirePeriods: make([]uint32, v.cfg.Segments),
		load: s.reg.GaugeWith("vod_channel_load",
			"Instances transmitted in the video's most recent slot (multiples of the consumption rate).", label),
		miss: s.reg.CounterWith("client_miss_total",
			"Client-reported segments that missed their delivery deadline.", label),
		rebuffer: s.reg.CounterWith("client_rebuffer_total",
			"Client-reported playback stalls caused by deadline misses.", label),
		subs: fanout.NewSet[*subscriber](),
	}
	for k := 1; k <= v.cfg.Segments; k++ {
		r.wirePeriods[k-1] = uint32(r.maxPeriod[k])
		r.maxPeriod[k] = max(r.maxPeriod[k], r.maxPeriod[k-1])
	}
	for _, sz := range v.cfg.SegmentSizes {
		r.wireSizes = append(r.wireSizes, uint32(sz))
	}
	v.rec.Store(r)
	return r, nil
}

// errShuttingDown refuses an admission once Close has begun.
var errShuttingDown = errors.New("server shutting down")

// Server is a running VOD server. Create with Start, stop with Close.
type Server struct {
	cfg     Config
	ln      *listener
	station *station.Station

	statsLn net.Listener
	started time.Time

	// telemetryInterval is the telemetry loop's period (1 s). sloTarget is
	// the admit-to-first-byte objective in seconds that sloObjective of the
	// admissions must meet: two slots, one past a customer's worst-case
	// protocol wait. build sets both and only serve reads them, so a test
	// may change them in between.
	telemetryInterval time.Duration
	sloTarget         float64

	reg    *obs.Registry
	spans  *obs.SpanTracer
	alerts *obs.AlertEngine
	// firstByte and fanout are the registered summaries behind /statusz and
	// /metricsz: admit-to-first-byte latency (with the SLO armed on it) and
	// the per-tick fan-out service time. qoeStartup and qoeSlack are their
	// client-side counterparts, folded from ClientReports: startup delay in
	// slots and per-report mean slack to deadline. qoeMissRate, deadline
	// misses per report, is the windowed mean the miss alert watches (so it
	// can resolve when healthy reports roll the bad ones out); it is exported
	// only as that mean, vod_qoe_miss_rate.
	firstByte   *obs.Window
	fanout      *obs.Window
	qoeStartup  *obs.Window
	qoeSlack    *obs.Window
	qoeMissRate *obs.Window
	// Registry handles, bound once at startup so the hot paths never
	// touch the registry's name map.
	mRequests       *obs.Counter
	mRejects        *obs.Counter
	mInstances      *obs.Counter
	mBroadcastBytes *obs.Counter
	// mDroppedBy are the reason-labelled children of
	// vod_dropped_subscribers_total, indexed by the connection's last
	// classified transport state when its write deadline cut it, and bound
	// at startup so the drop path never touches the registry's name map.
	mDroppedBy [conntrack.NumStates]*obs.Counter
	// mLateWrites are the path-labelled children of vod_late_writes_total,
	// indexed by latePath and bound at startup like mDroppedBy.
	mLateWrites [numLatePaths]*obs.Counter
	mReports    *obs.Counter
	// ringDepth is the fan-out ring depth high-watermark behind the
	// vod_fanout_ring_depth_max GaugeFunc: the hot path Records, each scrape
	// Reads-and-resets, so a one-tick depth spike between scrapes survives
	// to the next scrape instead of being overwritten by a quieter tick.
	ringDepth obs.HighWatermark

	// history is the retained-telemetry store behind /queryz and bundle
	// history; recorder writes alert/operator-triggered diagnostic bundles,
	// and is nil (every method of a nil one inert) without a FlightDir.
	history  *history.Store
	recorder *history.Recorder

	// ct samples per-subscriber transport telemetry (kernel TCP_INFO plus
	// ring/drain signals) and classifies each connection; it is the source
	// of /connz, the conn_* families and the conn_stalled_ratio alert.
	ct *conntrack.Sampler

	// enc is the zero-copy slot encoder (each slot's payloads generated into
	// a pooled ref-counted frame).
	enc *fanout.Encoder

	// videos is immutable after Start; per-subscriber state lives in each
	// video's copy-on-write set so the server-wide lock never sits on the
	// broadcast path. mu guards the building of video records; the counters
	// the fan-out and admit paths touch are atomics.
	mu     sync.Mutex
	videos map[uint32]*video
	closed atomic.Bool
	// done is closed by the first Close; the telemetry loop exits on it.
	done chan struct{}

	// vlist is the catalogue in station index order — the array the
	// station's spans index, and the videos map points into.
	vlist []video
	// slot is the slot the tick most recently began, which a completed
	// write is checked against for lateness (checkLate).
	slot atomic.Int64
	// tallies are the per-worker broadcast counters; service is each span's
	// list of sessions the service pass visits (serveListed): a short write
	// to retry, or a session past its last slot. Both are sized to the
	// station's span count and indexed by worker.
	tallies []fanoutTally
	service [][]*subscriber
	// pending holds, under pendMu, the connections whose request had not
	// arrived whole when they were accepted (retryRequests).
	pendMu  sync.Mutex
	pending []*subscriber
	// walks are fanOut's two per-video walks, bound once: the station hands
	// them to its pool, so a method value evaluated in fanOut would allocate
	// on every tick.
	walks [2]func(worker, video int, rep core.SlotReport) bool
	// assignments pools admit's serving-slot buffers (*[]int).
	assignments sync.Pool

	wg sync.WaitGroup
}

// Start builds a server on cfg, binds cfg.Addr and, when set, cfg.StatsAddr,
// and serves them: the accept goroutine, the telemetry loop, the stats
// endpoint and the slot clock run until Close.
func Start(cfg Config) (*Server, error) {
	s, err := build(cfg)
	if err != nil {
		return nil, err
	}
	// A built server holds nothing a failed bind must release.
	ln, err := listen(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("vodserver: listen: %w", err)
	}
	var statsLn net.Listener
	if cfg.StatsAddr != "" {
		if statsLn, err = net.Listen("tcp", cfg.StatsAddr); err != nil {
			ln.Close()
			return nil, fmt.Errorf("vodserver: stats listen: %w", err)
		}
	}
	if err := s.serve(ln, statsLn); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// build validates cfg and constructs the server: the station, the encoder,
// every registered metric family and the flight recorder. It opens no socket
// and starts no goroutine, so none of its error returns has anything to
// release, and Close tears down a built server that never served.
func build(cfg Config) (*Server, error) {
	if cfg.SlotDuration <= 0 {
		return nil, fmt.Errorf("vodserver: slot duration %v must be positive", cfg.SlotDuration)
	}
	if cfg.SpanSampleEvery < 0 {
		return nil, fmt.Errorf("vodserver: span sample period %d must be non-negative", cfg.SpanSampleEvery)
	}
	if cfg.SpanSampleEvery == 0 {
		cfg.SpanSampleEvery = defaultSpanSampleEvery
	}
	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)
	// A video's serving state is built on its first admission (record);
	// build keeps its configuration only.
	vlist := make([]video, len(cfg.Videos))
	videos := make(map[uint32]*video, len(cfg.Videos))
	stationVideos := make([]station.VideoConfig, len(cfg.Videos))
	enc := fanout.NewEncoder()
	// cbr is scratch for a CBR video's size vector, which the encoder copies.
	var cbr []int
	for i, vc := range cfg.Videos {
		if len(vc.SegmentSizes) == 0 && vc.SegmentBytes <= 0 {
			return nil, fmt.Errorf("vodserver: video %d: segment bytes %d must be positive", vc.ID, vc.SegmentBytes)
		}
		if len(vc.SegmentSizes) != 0 {
			if len(vc.SegmentSizes) != vc.Segments {
				return nil, fmt.Errorf("vodserver: video %d: %d segment sizes for %d segments",
					vc.ID, len(vc.SegmentSizes), vc.Segments)
			}
			for j, sz := range vc.SegmentSizes {
				if sz <= 0 {
					return nil, fmt.Errorf("vodserver: video %d: segment %d size %d must be positive", vc.ID, j+1, sz)
				}
			}
		}
		// Hand the video's (possibly VBR) segment sizes to the data plane,
		// which refuses a size the wire cannot carry: the zero-copy encoder
		// keeps only the sizes and generates each slot's payloads into its
		// frame, so start-up pays no payload bytes and broadcasts never
		// allocate one.
		sizes := vc.SegmentSizes
		if len(sizes) == 0 {
			cbr = cbr[:0]
			for range vc.Segments {
				cbr = append(cbr, vc.SegmentBytes)
			}
			sizes = cbr
		}
		if err := enc.AddVideo(vc.ID, sizes); err != nil {
			return nil, fmt.Errorf("vodserver: %w", err)
		}
		stationVideos[i] = station.VideoConfig{
			Name:          strconv.FormatUint(uint64(vc.ID), 10),
			Segments:      vc.Segments,
			Periods:       vc.Periods,
			TrackSegments: true,
		}
		v := &vlist[i]
		v.cfg, v.idx = vc, i
		videos[vc.ID] = v
	}
	st, err := station.New(station.Config{
		Videos:   stationVideos,
		Registry: reg,
	})
	if err != nil {
		return nil, fmt.Errorf("vodserver: %w", err)
	}
	s := &Server{
		cfg:               cfg,
		station:           st,
		started:           time.Now(),
		telemetryInterval: time.Second,
		sloTarget:         2 * cfg.SlotDuration.Seconds(),
		done:              make(chan struct{}),
		reg:               reg,
		spans:             obs.NewSpanTracer(cfg.SpanWriter, cfg.SpanSampleEvery),
		alerts:            obs.NewAlertEngine(),
		firstByte: reg.Window("vod_admit_first_byte_seconds",
			"Latency from request admission to the first broadcast byte reaching the subscriber.", 0),
		fanout: reg.Window("vod_fanout_seconds",
			"Per-tick fan-out service time: encoding every video's slot batch and distributing it, including every session's socket writes, retries, report reads and closes.", 0),
		qoeStartup: reg.Window("client_startup_slots",
			"Client-reported slots from admission to the first needed segment.", 0),
		qoeSlack: reg.Window("client_deadline_slack_slots",
			"Client-reported per-report mean slack to the delivery deadline, in slots.", 0),
		qoeMissRate: obs.NewWindow(0),
		mRequests: reg.Counter("vod_requests_total",
			"Admitted customer requests (including interactive resumes)."),
		mRejects: reg.Counter("vod_rejects_total",
			"Refused customer requests (unknown video, bad resume point, shutdown)."),
		mInstances: reg.Counter("vod_instances_total",
			"Segment instances transmitted across all videos."),
		mBroadcastBytes: reg.Counter("vod_broadcast_bytes_total",
			"Payload bytes transmitted, counted once per instance regardless of fan-out."),
		mReports: reg.Counter("client_reports_total",
			"QoE reports received from clients at session end."),
		enc:    enc,
		videos: videos,
		vlist:  vlist,
	}
	s.tallies = make([]fanoutTally, st.Shards())
	s.service = make([][]*subscriber, st.Shards())
	s.walks = [2]func(worker, video int, rep core.SlotReport) bool{s.firstFrames, s.steadyFrames}
	// Pre-register every reason child of the drop counter so the exposition
	// inventory (and the metric-name lint walking it) is complete from boot,
	// not from the first drop.
	for r := range s.mDroppedBy {
		s.mDroppedBy[r] = reg.CounterWith("vod_dropped_subscribers_total",
			"Subscribers cut with writes still queued at their bound (last segment deadline plus the read bound), by last classified transport state.",
			obs.Labels{"reason": conntrack.State(r).String()})
	}
	for p := range s.mLateWrites {
		s.mLateWrites[p] = reg.CounterWith("vod_late_writes_total",
			"Writes that completed after the tick began a slot past their deadline (the first flush slot at or after their first frame), by the write that finished them (a flush's own, or a later retry of a short one): a lower bound on deadline misses.",
			obs.Labels{"path": latePath(p).String()})
	}
	// The sampler exists before armAlerts so the conn_stalled_ratio rule can
	// watch it.
	s.ct = conntrack.New(conntrack.Config{Registry: reg})
	reg.GaugeFunc("vod_active_subscribers", "Clients currently receiving a broadcast.",
		func() float64 { return float64(s.activeSubscribers()) })
	reg.GaugeFunc("vod_fanout_ring_depth_max",
		"Deepest per-subscriber write ring observed since the previous scrape (high-watermark, reset on read).",
		s.ringDepth.Read)
	// Scalar QoE series for the history store: the miss alert's windowed mean
	// and the alert count as single values a sparkline can ride. The empty
	// miss-rate window reads 0, not NaN — a flat zero line is the healthy
	// history, absence is not.
	reg.GaugeFunc("vod_qoe_miss_rate",
		"Windowed mean of client-reported deadline misses per report (the miss alert's signal).",
		func() float64 {
			snap := s.qoeMissRate.Snapshot()
			if snap.Count == 0 {
				return 0
			}
			return snap.Mean
		})
	reg.GaugeFunc("vod_alerts_firing", "Alert rules currently in the firing state.",
		func() float64 { return float64(s.alerts.Firing()) })
	s.history = history.New(history.Config{
		Samples:  reg.Samples,
		Interval: s.telemetryInterval,
	})
	if cfg.FlightDir != "" {
		rec, err := history.NewRecorder(history.RecorderConfig{
			Dir:   cfg.FlightDir,
			Store: s.history,
			Status: func() ([]byte, error) {
				return json.MarshalIndent(s.Status(), "", "  ")
			},
			Spans: s.spans.Recent,
			Conns: func() ([]byte, error) {
				return json.MarshalIndent(s.ct.Snapshot(), "", "  ")
			},
		})
		if err != nil {
			return nil, fmt.Errorf("vodserver: %w", err)
		}
		s.recorder = rec
		// Capture synchronously on the evaluating goroutine the moment any
		// rule enters firing; the OnTransition contract (hook runs after the
		// engine lock is released) makes the recorder's Snapshot calls safe.
		s.alerts.SetOnTransition(func(tr obs.AlertTransition) {
			if tr.To == obs.StateFiring {
				s.recorder.Trigger("alert_" + tr.Rule)
			}
		})
	}
	return s, nil
}

// serve arms what reads the telemetry period and the SLO target, which are
// final from here on, then serves ln and, when non-nil, statsLn: it starts
// the accept goroutine, the telemetry loop, the stats endpoint and the slot
// clock, which retries incomplete requests before each advance. s owns both
// listeners from the call on, so on an error the caller closes s and
// nothing else.
func (s *Server) serve(ln *listener, statsLn net.Listener) error {
	s.ln, s.statsLn = ln, statsLn
	if err := s.firstByte.SetSLO(s.sloTarget, sloObjective); err != nil {
		return fmt.Errorf("vodserver: %w", err)
	}
	if err := s.armAlerts(); err != nil {
		return fmt.Errorf("vodserver: %w", err)
	}
	s.wg.Add(2)
	go s.telemetryLoop()
	go s.acceptSessions()
	if statsLn != nil {
		srv := &http.Server{Handler: s.statsMux(), ReadHeaderTimeout: 5 * time.Second}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			// Serve returns once Close closes the listener.
			_ = srv.Serve(statsLn)
		}()
	}
	if err := s.station.StartClock(s.cfg.SlotDuration, s.retryRequests, s.fanOut); err != nil {
		return fmt.Errorf("vodserver: %w", err)
	}
	return nil
}

// Close stops accepting, halts the clock, waits for all server goroutines to
// exit and then ends every session and closes every connection. It is safe
// to call more than once, and on a server that was built but never
// served.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		s.station.Close()
		return nil
	}
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	if s.statsLn != nil {
		s.statsLn.Close()
	}
	var live []*subscriber
	s.mu.Lock()
	for i := range s.vlist {
		// Set.Close latches the video shut — admit's Add refuses from here
		// on, so a late registration can never hold a ring nobody ends —
		// and surfaces every live subscriber exactly once. Holding s.mu,
		// the lock records are built under, means a video with no record
		// here never gets one.
		if r := s.vlist[i].rec.Load(); r != nil {
			live = append(live, r.subs.Close()...)
		}
	}
	s.mu.Unlock()
	// station.Close waits for the clock goroutine — and therefore the
	// joined span walks and service pass — to finish before it tears its
	// pool down, and the accept goroutine has handed over or refused every
	// session it admitted by the time wg.Wait returns: every session is this
	// goroutine's from there.
	close(s.done)
	s.station.Close()
	s.wg.Wait()
	for _, list := range s.service {
		live = append(live, list...)
	}
	for _, sub := range live {
		s.hangUp(sub)
	}
	for _, sub := range s.pending {
		sub.close()
	}
	return err
}

// telemetryLoop is the server's one telemetry goroutine. Each period it
// sweeps the connections, scrapes the registry and evaluates the alert rules,
// in that order: a rule sees the sweep of the same period, and the store
// holds what the rule saw. A rule entering firing captures its flight bundle
// here, synchronously, which delays the next sweep and scrape by the
// capture's duration (rate-limited by the recorder's 5-minute cooldown); in
// exchange Close, which waits for this goroutine, never returns while a
// bundle is being written.
func (s *Server) telemetryLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.telemetryInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.ct.Sweep()
			s.history.Scrape()
			s.alerts.Eval()
		case <-s.done:
			return
		}
	}
}

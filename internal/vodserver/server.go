// Package vodserver is the networked realization of the DHB protocol: a
// video server that admits customer requests over TCP, schedules segment
// transmissions with the DHB scheduler in real time, and pushes the segment
// payloads of every broadcast instance to the subscribed set-top boxes.
//
// Scheduling is delegated to the internal/station engine: one DHB scheduler
// per video, each behind its own lock, so admissions for different videos
// proceed in parallel. The station's clock goroutine drives the slot grid
// and hands each retired slot to the fan-out path, which walks the
// catalogue over the station's spans.
//
// The data plane models broadcast channels: each scheduled instance is
// produced (and counted) exactly once per slot and the encoded frames are
// fanned out to every subscriber of the video, standing in for the IP
// multicast a production deployment would use (see DESIGN.md §3). Video
// bytes are generated deterministically per (video, segment) so the client
// can verify every byte without the server storing real footage.
package vodserver

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
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
	"vodcast/internal/wire"
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

// sizeOf reports the payload size of 1-based segment j.
func (vc VideoConfig) sizeOf(j int) int {
	if len(vc.SegmentSizes) == 0 {
		return vc.SegmentBytes
	}
	return vc.SegmentSizes[j-1]
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
	// Shards is how many contiguous catalogue spans the clock's tick — the
	// per-slot advance and the fan-out — is split over, each on a persistent
	// goroutine of the station's pool that the clock wakes and joins. 0
	// selects the station default of min(GOMAXPROCS, len(Videos)); a
	// resolved count of 1 keeps the tick serial on the clock goroutine.
	Shards int
	// SubscriberBuffer is the per-client ring of shared slot frames; a
	// client that falls further behind is disconnected so one slow STB
	// cannot stall the broadcast. Zero selects a sensible default.
	SubscriberBuffer int
	// StatsAddr optionally binds an HTTP monitoring endpoint serving
	// /statusz (JSON pipeline snapshot), /healthz (liveness + uptime),
	// /metricsz (Prometheus text format), /spanz (recent pipeline spans)
	// and /debug/pprof/*.
	StatsAddr string
	// SpanWriter optionally streams every finished pipeline span as JSONL.
	// Spans are recorded to the /spanz ring regardless; the writer adds the
	// offline stream.
	SpanWriter io.Writer
	// SpanSampleEvery keeps 1 in N admission span trees (children inherit
	// the root's decision); 0 selects DefaultSpanSampleEvery, 1 keeps
	// everything.
	SpanSampleEvery int
	// SpanSeed seeds the span sampler so a fixed seed reproduces the same
	// sampled set for the same arrival sequence.
	SpanSeed int64
	// SLOTargetSeconds is the admit-to-first-byte latency objective
	// threshold; 0 selects two slot durations (the customer's worst-case
	// protocol wait is one full slot, so two slots flags real control-path
	// trouble, not protocol behaviour).
	SLOTargetSeconds float64
	// SLOObjective is the fraction of admissions that must meet the target
	// (0 selects 0.99). /statusz reports the burn rate of the implied
	// error budget.
	SLOObjective float64
	// QoEWindow bounds the rolling windows folded from client reports
	// (startup delay, deadline slack, miss rate); 0 selects
	// obs.DefaultWindowSize.
	QoEWindow int
	// AlertInterval is the alert engine's evaluation period; 0 selects 1s.
	AlertInterval time.Duration
	// AlertFor is the pending hold of the built-in alert rules: how long a
	// condition must persist before pending becomes firing. 0 fires on the
	// first breached evaluation.
	AlertFor time.Duration
	// MissRateThreshold is the windowed mean of deadline misses per client
	// report above which the client_deadline_miss_rate alert trips; 0
	// selects 0.5.
	MissRateThreshold float64
	// ReportStaleAfter arms the client_reports_stale rule: it fires when no
	// client report has arrived for this long. 0 disables the rule.
	ReportStaleAfter time.Duration
	// AlertRules appends operator-defined rules to the built-ins.
	AlertRules []obs.AlertRule
	// DropInstance, when non-nil, suppresses the transmission of scheduled
	// broadcast instances for which it returns true — fault injection for
	// tests and operator drills. The scheduler still counts the instance;
	// only the wire frame is withheld, so subscribed clients miss the
	// segment's deadline exactly as they would under packet loss.
	DropInstance func(video uint32, segment, slot int) bool
	// HistoryInterval is the telemetry history scrape period — how often the
	// registry is walked into the in-process time-series store behind
	// /queryz. 0 selects 1s.
	HistoryInterval time.Duration
	// HistoryDisabled turns the telemetry history off entirely; /queryz then
	// answers 503. The disabled path costs one nil check per would-be
	// consumer.
	HistoryDisabled bool
	// HistoryMaxBytes caps the history store's resident memory; 0 selects
	// the history package default (8 MiB).
	HistoryMaxBytes int
	// FlightDir arms the flight recorder: any alert rule entering firing
	// (rate-limited by FlightCooldown), a SIGQUIT in cmd/vodserver, or a
	// /debug/flightrecord GET dumps a diagnostic bundle directory under it.
	// "" leaves the recorder disabled.
	FlightDir string
	// FlightCooldown rate-limits alert-triggered bundles; 0 selects the
	// recorder default (5 minutes).
	FlightCooldown time.Duration
	// FlightKeep bounds retained bundle directories; 0 selects the recorder
	// default (8).
	FlightKeep int
	// ConntrackDisabled turns off per-subscriber transport telemetry: no
	// TCP_INFO sampling, no conn_* metric families, /connz answers 503 and
	// dropped subscribers are attributed reason="untracked". The disabled
	// path costs one nil check per fan-out push and drain batch.
	ConntrackDisabled bool
	// ConntrackInterval is the transport telemetry sampling period; 0
	// selects the conntrack default (1s).
	ConntrackInterval time.Duration
	// ConnStalledRatio is the fraction of tracked connections classified
	// stalled at which the conn_stalled_ratio alert trips (and, with a
	// FlightDir armed, captures a diagnostic bundle carrying conns.json).
	// 0 selects 0.5.
	ConnStalledRatio float64
}

// DefaultSpanSampleEvery is the admission span sampling period when the
// owner does not choose one: cheap enough for production, dense enough that
// vodtop always has recent trees to show.
const DefaultSpanSampleEvery = 8

// Stats is a snapshot of server counters.
type Stats struct {
	// Requests counts admitted customers.
	Requests int64
	// Instances counts segment transmissions (the broadcast cost).
	Instances int64
	// BroadcastBytes counts payload bytes transmitted, one count per
	// instance regardless of subscriber fan-out.
	BroadcastBytes int64
	// ActiveSubscribers counts clients currently receiving.
	ActiveSubscribers int
	// Dropped counts subscribers disconnected for falling behind.
	Dropped int64
}

type video struct {
	cfg VideoConfig
	// idx is the video's index in the station catalogue.
	idx int
	// maxPeriod[k] is the largest of the resolved periods T[1..k]: how many
	// slots a customer consuming k segments stays subscribed.
	maxPeriod []int
	// wirePeriods and wireSizes are shared read-only by every ScheduleInfo.
	wirePeriods, wireSizes []uint32
	// load is the channel-load gauge vod_channel_load{video="..."}: each
	// retired slot's instance count, 0 once idle (the last slot was empty).
	load *obs.Gauge

	// subs is the copy-on-write subscriber set: tick workers read lock-free
	// snapshots, admit/disconnect/teardown mutate under the set's own small
	// admin lock, and Set.Close doubles as the video's shutdown latch (Add
	// refuses afterwards). Remove's exactly-one-winner contract is what
	// makes every ring Drop/Close single-shot.
	subs *fanout.Set[*subscriber]
}

type subscriber struct {
	conn net.Conn
	// ring queues shared frame references; the connection's handler drains
	// it with vectored writes.
	ring *fanout.Ring
	// lastSlot is the final slot this subscriber needs. It starts at
	// math.MaxInt64 (registration precedes admission) and is stored once,
	// after the admission reaches the scheduler; tick workers read it
	// lock-free.
	lastSlot atomic.Int64
	// admitted stamps the admission for the first-byte latency histogram.
	admitted time.Time
	// ct is the transport telemetry handle: the fan-out and drain paths feed
	// it ring depth and progress signals, and the drop path reads the last
	// classified state as the disconnect reason. nil when conntrack is
	// disabled — every touch point is nil-safe.
	ct *conntrack.Conn
}

// Dropped-subscriber attribution: the reason label on
// vod_dropped_subscribers_total is the connection's last classified
// transport state at drop time, or "untracked" when conntrack is disabled
// (or the drop won before the subscriber was ever registered).
const (
	dropReasonUntracked = conntrack.NumStates
	numDropReasons      = conntrack.NumStates + 1
)

func dropReasonName(r int) string {
	if r < conntrack.NumStates {
		return conntrack.State(r).String()
	}
	return "untracked"
}

// dropReason resolves the reason index for one dropped subscriber.
func dropReason(sub *subscriber) int {
	if sub.ct == nil {
		return dropReasonUntracked
	}
	return int(sub.ct.State())
}

// fanoutTally accumulates one worker's per-tick broadcast accounting,
// merged into the shared atomics and registry counters once per tick. The
// pad keeps adjacent workers' tallies on separate cache lines so the hot
// loop never false-shares.
type fanoutTally struct {
	instances int64
	bytes     int64
	// dropsBy counts dropped subscribers by attribution reason (last
	// classified transport state, or untracked).
	dropsBy  [numDropReasons]int64
	maxDepth int64
	_        [32]byte
}

// retireEntry queues a subscriber for detachment after a span walk: drop
// marks the ring-full case (Drop the ring and count the disconnect); clean
// expiry Closes the ring so the tail drains.
type retireEntry struct {
	sub  *subscriber
	drop bool
}

// Server is a running VOD server. Create with Start, stop with Close.
type Server struct {
	cfg     Config
	ln      net.Listener
	station *station.Station

	statsLn net.Listener
	started time.Time

	reg    *obs.Registry
	spans  *obs.SpanTracer
	alerts *obs.AlertEngine
	// firstByte and fanout are the rolling windows behind /statusz:
	// admit-to-first-byte latency (with the SLO armed on it) and the
	// per-tick fan-out service time. qoeStartup, qoeSlack and qoeMissRate
	// are their client-side counterparts, folded from ClientReports: startup
	// delay in slots, per-report mean slack to deadline, and deadline
	// misses per report (the windowed signal the miss alert watches, so it
	// can resolve when healthy reports roll the bad ones out).
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
	// vod_dropped_subscribers_total, indexed by drop reason and bound at
	// startup so the drop path never touches the registry's name map.
	mDroppedBy     [numDropReasons]*obs.Counter
	mAdmitLatency  *obs.Histogram
	mFanout        *obs.Histogram
	mReports       *obs.Counter
	mClientStartup *obs.Histogram
	mClientSlack   *obs.Histogram
	// ringDepth is the fan-out ring depth high-watermark behind the
	// vod_fanout_ring_depth_max GaugeFunc: the hot path Records, each scrape
	// Reads-and-resets, so a one-tick depth spike between scrapes survives
	// to the next scrape instead of being overwritten by a quieter tick.
	ringDepth obs.HighWatermark

	// history is the retained-telemetry store behind /queryz and bundle
	// history; recorder writes alert/operator-triggered diagnostic bundles.
	// Both are nil when disabled — every touch point is nil-safe.
	history  *history.Store
	recorder *history.Recorder

	// ct samples per-subscriber transport telemetry (kernel TCP_INFO plus
	// ring/drain signals) and classifies each connection; it is the source
	// of /connz, the conn_* families and the conn_stalled_ratio alert. nil
	// when Config.ConntrackDisabled — every touch point is nil-safe.
	ct *conntrack.Sampler

	// enc is the zero-copy slot encoder (pre-generated payloads, pooled
	// ref-counted frames).
	enc *fanout.Encoder

	// videos is immutable after Start; per-subscriber state lives in each
	// video's copy-on-write set so the server-wide lock never sits on the
	// broadcast path. mu guards only the connection set; the counters the
	// fan-out and admit paths touch are atomics.
	mu     sync.Mutex
	videos map[uint32]*video
	conns  map[net.Conn]struct{}
	closed atomic.Bool

	// vlist is the catalogue in station index order — the array the
	// station's spans index.
	vlist []*video
	// tallies are the per-worker broadcast counters; retire is each
	// worker's reusable retirement scratch (expired and ring-full
	// subscribers collected during a video's push loop, detached after it).
	// Both are sized to the station's span count and indexed by worker.
	tallies []fanoutTally
	retire  [][]retireEntry

	wg sync.WaitGroup
}

// Start validates cfg, binds the listener and launches the slot clock.
func Start(cfg Config) (*Server, error) {
	if len(cfg.Videos) == 0 {
		return nil, fmt.Errorf("vodserver: empty catalogue")
	}
	if cfg.SlotDuration <= 0 {
		return nil, fmt.Errorf("vodserver: slot duration %v must be positive", cfg.SlotDuration)
	}
	if cfg.SubscriberBuffer <= 0 {
		cfg.SubscriberBuffer = 64
	}
	if cfg.SpanSampleEvery < 0 {
		return nil, fmt.Errorf("vodserver: span sample period %d must be non-negative", cfg.SpanSampleEvery)
	}
	if cfg.SpanSampleEvery == 0 {
		cfg.SpanSampleEvery = DefaultSpanSampleEvery
	}
	if cfg.SLOTargetSeconds < 0 || cfg.SLOObjective < 0 || cfg.SLOObjective >= 1 {
		return nil, fmt.Errorf("vodserver: bad SLO target %v / objective %v",
			cfg.SLOTargetSeconds, cfg.SLOObjective)
	}
	if cfg.SLOTargetSeconds == 0 {
		cfg.SLOTargetSeconds = 2 * cfg.SlotDuration.Seconds()
	}
	if cfg.SLOObjective == 0 {
		cfg.SLOObjective = 0.99
	}
	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)
	videos := make(map[uint32]*video, len(cfg.Videos))
	stationVideos := make([]station.VideoConfig, len(cfg.Videos))
	enc := fanout.NewEncoder()
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
		if _, dup := videos[vc.ID]; dup {
			return nil, fmt.Errorf("vodserver: duplicate video id %d", vc.ID)
		}
		// Hand the video's (possibly VBR) segment sizes to the data plane:
		// the zero-copy encoder pre-generates every payload once here, at
		// start-up, so the broadcast path never allocates one again.
		sizes := make([]int, vc.Segments)
		for j := 1; j <= vc.Segments; j++ {
			sizes[j-1] = vc.sizeOf(j)
		}
		if err := enc.AddVideo(vc.ID, sizes); err != nil {
			return nil, fmt.Errorf("vodserver: %w", err)
		}
		stationVideos[i] = station.VideoConfig{
			Name:          fmt.Sprint(vc.ID),
			Segments:      vc.Segments,
			Periods:       vc.Periods,
			TrackSegments: true,
		}
		videos[vc.ID] = &video{
			cfg:  vc,
			idx:  i,
			subs: fanout.NewSet[*subscriber](),
			load: reg.GaugeWith("vod_channel_load",
				"Instances transmitted in the video's most recent slot (multiples of the consumption rate).",
				obs.Labels{"video": fmt.Sprint(vc.ID)}),
		}
	}
	st, err := station.New(station.Config{
		Videos:   stationVideos,
		Shards:   cfg.Shards,
		Registry: reg,
	})
	if err != nil {
		return nil, fmt.Errorf("vodserver: %w", err)
	}
	for _, v := range videos {
		v.maxPeriod = st.Periods(v.idx) // a copy, turned into its prefix maxima
		v.wirePeriods = make([]uint32, v.cfg.Segments)
		for k := 1; k <= v.cfg.Segments; k++ {
			v.wirePeriods[k-1] = uint32(v.maxPeriod[k])
			v.maxPeriod[k] = max(v.maxPeriod[k], v.maxPeriod[k-1])
		}
		for _, sz := range v.cfg.SegmentSizes {
			v.wireSizes = append(v.wireSizes, uint32(sz))
		}
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("vodserver: listen: %w", err)
	}
	firstByte := obs.NewWindow(0)
	if err := firstByte.SetSLO(cfg.SLOTargetSeconds, cfg.SLOObjective); err != nil {
		ln.Close()
		return nil, fmt.Errorf("vodserver: %w", err)
	}
	s := &Server{
		cfg:         cfg,
		ln:          ln,
		station:     st,
		started:     time.Now(),
		reg:         reg,
		spans:       obs.NewSpanTracer(cfg.SpanWriter, obs.DefaultRingSize, cfg.SpanSampleEvery, cfg.SpanSeed),
		alerts:      obs.NewAlertEngine(),
		firstByte:   firstByte,
		fanout:      obs.NewWindow(0),
		qoeStartup:  obs.NewWindow(cfg.QoEWindow),
		qoeSlack:    obs.NewWindow(cfg.QoEWindow),
		qoeMissRate: obs.NewWindow(cfg.QoEWindow),
		mRequests: reg.Counter("vod_requests_total",
			"Admitted customer requests (including interactive resumes)."),
		mRejects: reg.Counter("vod_rejects_total",
			"Refused customer requests (unknown video, bad resume point, shutdown)."),
		mInstances: reg.Counter("vod_instances_total",
			"Segment instances transmitted across all videos."),
		mBroadcastBytes: reg.Counter("vod_broadcast_bytes_total",
			"Payload bytes transmitted, counted once per instance regardless of fan-out."),
		mAdmitLatency: reg.Histogram("vod_admit_first_byte_seconds",
			"Latency from request admission to the first broadcast byte reaching the subscriber.", nil),
		mFanout: reg.Histogram("vod_fanout_seconds",
			"Per-tick fan-out service time: encoding every video's slot batch and distributing it.", nil),
		mReports: reg.Counter("client_reports_total",
			"QoE reports received from clients at session end."),
		mClientStartup: reg.Histogram("client_startup_slots",
			"Client-reported slots from admission to the first needed segment.",
			clientStartupBuckets),
		mClientSlack: reg.Histogram("client_deadline_slack_slots",
			"Client-reported per-report mean slack to the delivery deadline, in slots.",
			clientSlackBuckets),
		enc:    enc,
		videos: videos,
		conns:  make(map[net.Conn]struct{}),
	}
	s.vlist = make([]*video, len(cfg.Videos))
	for _, v := range videos {
		s.vlist[v.idx] = v
	}
	s.tallies = make([]fanoutTally, st.Shards())
	s.retire = make([][]retireEntry, st.Shards())
	// Pre-register every reason child of the drop counter so the exposition
	// inventory (and the metric-name lint walking it) is complete from boot,
	// not from the first drop.
	for r := 0; r < numDropReasons; r++ {
		s.mDroppedBy[r] = reg.CounterWith("vod_dropped_subscribers_total",
			"Subscribers disconnected for falling a full buffer behind, by last classified transport state.",
			obs.Labels{"reason": dropReasonName(r)})
	}
	// The sampler exists before armAlerts so the conn_stalled_ratio rule can
	// watch it.
	if !cfg.ConntrackDisabled {
		s.ct = conntrack.New(conntrack.Config{
			Interval: cfg.ConntrackInterval,
			Registry: reg,
		})
	}
	if err := s.armAlerts(); err != nil {
		ln.Close()
		return nil, fmt.Errorf("vodserver: %w", err)
	}
	reg.GaugeFunc("vod_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.started).Seconds() })
	reg.GaugeFunc("vod_active_subscribers", "Clients currently receiving a broadcast.",
		func() float64 { return float64(s.activeSubscribers()) })
	reg.GaugeFunc("vod_fanout_ring_depth_max",
		"Deepest per-subscriber write ring observed since the previous scrape (high-watermark, reset on read).",
		s.ringDepth.Read)
	// Scalar QoE series for the history store: windows and alert counts as
	// single values a sparkline can ride. The empty miss-rate window reads 0,
	// not NaN — a flat zero line is the healthy history, absence is not.
	reg.GaugeFunc("vod_qoe_startup_p99_slots",
		"99th percentile of client-reported startup delay over the rolling QoE window, in slots.",
		func() float64 { return s.qoeStartup.Snapshot().P99 })
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
	if !cfg.HistoryDisabled {
		s.history = history.New(history.Config{
			Samples:  reg.Samples,
			Interval: cfg.HistoryInterval,
			MaxBytes: cfg.HistoryMaxBytes,
		})
	}
	if cfg.FlightDir != "" {
		recCfg := history.RecorderConfig{
			Dir:      cfg.FlightDir,
			Cooldown: cfg.FlightCooldown,
			Keep:     cfg.FlightKeep,
			Store:    s.history,
			Status: func() ([]byte, error) {
				return json.MarshalIndent(s.Status(), "", "  ")
			},
			Spans:  func() []obs.SpanRecord { return s.spans.Recent(0) },
			Alerts: func() []obs.AlertStatus { return s.alerts.Snapshot() },
		}
		if s.ct != nil {
			recCfg.Conns = func() ([]byte, error) {
				return json.MarshalIndent(s.ct.Snapshot(), "", "  ")
			}
		}
		rec, err := history.NewRecorder(recCfg)
		if err != nil {
			ln.Close()
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
	if cfg.StatsAddr != "" {
		statsLn, err := s.serveStats(cfg.StatsAddr)
		if err != nil {
			ln.Close()
			return nil, err
		}
		s.statsLn = statsLn
	}
	// The background loops start only past the last error return that
	// bypasses Close, so a failed Start leaks no goroutine; from here on
	// Close tears them down.
	s.alerts.Start(cfg.AlertInterval)
	s.history.Start()
	s.ct.Start()
	s.wg.Add(1)
	go s.acceptLoop()
	// The walk is bound once: the station hands it to its pool, so a method
	// value evaluated inside fanOut would allocate on every tick.
	walk := s.fanOutVideo
	tick := func([]core.SlotReport) { s.fanOut(walk) }
	if err := st.StartClock(cfg.SlotDuration, tick); err != nil {
		s.Close()
		return nil, fmt.Errorf("vodserver: %w", err)
	}
	return s, nil
}

// StatsAddr reports the bound monitoring address, or "" when disabled.
func (s *Server) StatsAddr() string {
	if s.statsLn == nil {
		return ""
	}
	return s.statsLn.Addr().String()
}

// Addr reports the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Registry exposes the server's metrics registry, the source of /metricsz.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Spans exposes the server's pipeline span tracer, the source of /spanz.
func (s *Server) Spans() *obs.SpanTracer { return s.spans }

// StatusSnapshot is the /statusz document: one consistent operator view of
// the whole pipeline, the payload cmd/vodtop renders.
type StatusSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Stats are the server counters (requests, instances, bytes,
	// subscribers, drops).
	Stats Stats `json:"stats"`
	// Station is the engine snapshot: per-video rows, stage latency windows,
	// clock health.
	Station station.Status `json:"station"`
	// FirstByte is the rolling admit-to-first-byte latency window with the
	// SLO burn accounting armed on it; Fanout is the per-tick fan-out
	// service time window.
	FirstByte obs.WindowSnapshot `json:"first_byte"`
	Fanout    obs.WindowSnapshot `json:"fanout"`
	// Spans summarizes pipeline span sampling.
	Spans obs.SpanStats `json:"spans"`
	// QoE is the client-side view folded from session reports; Alerts is
	// the rule table the vodtop alert pane renders.
	QoE    QoESnapshot       `json:"qoe"`
	Alerts []obs.AlertStatus `json:"alerts"`
	// History reports the retained-telemetry store's counters (series,
	// resident bytes, scrapes); Flight the recorder's capture counters.
	// Either is omitted when the subsystem is disabled.
	History *history.Stats         `json:"history,omitempty"`
	Flight  *history.RecorderStats `json:"flight,omitempty"`
}

// Status assembles the operator snapshot served at /statusz.
func (s *Server) Status() StatusSnapshot {
	snap := StatusSnapshot{
		UptimeSeconds: s.Uptime().Seconds(),
		Stats:         s.Stats(),
		Station:       s.station.Status(),
		FirstByte:     s.firstByte.Snapshot(),
		Fanout:        s.fanout.Snapshot(),
		Spans:         s.spans.Stats(),
		QoE:           s.QoE(),
		Alerts:        s.alerts.Snapshot(),
	}
	if s.history != nil {
		st := s.history.Stats()
		snap.History = &st
	}
	if s.recorder != nil {
		fs := s.recorder.Stats()
		snap.Flight = &fs
	}
	return snap
}

// Alerts exposes the server's alert engine, the source of /alertz.
func (s *Server) Alerts() *obs.AlertEngine { return s.alerts }

// History exposes the retained-telemetry store behind /queryz, or nil when
// Config.HistoryDisabled was set.
func (s *Server) History() *history.Store { return s.history }

// Conns exposes the transport telemetry sampler behind /connz, or nil when
// Config.ConntrackDisabled was set.
func (s *Server) Conns() *conntrack.Sampler { return s.ct }

// FlightRecord forces a diagnostic bundle capture (bypassing the alert
// cooldown) and returns the bundle directory. It errors when no FlightDir
// was configured — the SIGQUIT and /debug/flightrecord paths surface that
// instead of silently dropping the operator's request.
func (s *Server) FlightRecord(reason string) (string, error) {
	return s.recorder.Force(reason)
}

// Station exposes the broadcast engine (span count, per-video slots).
func (s *Server) Station() *station.Station { return s.station }

// Uptime reports how long the server has been running.
func (s *Server) Uptime() time.Duration { return time.Since(s.started) }

// Stats returns a snapshot of the server counters, read from the registry
// families /metricsz exposes (float64 counters are exact below 2^53).
func (s *Server) Stats() Stats {
	st := Stats{
		Requests:          int64(s.mRequests.Value()),
		BroadcastBytes:    int64(s.mBroadcastBytes.Value()),
		ActiveSubscribers: s.activeSubscribers(),
	}
	for _, c := range s.mDroppedBy {
		st.Dropped += int64(c.Value())
	}
	_, st.Instances = s.station.Totals()
	return st
}

// activeSubscribers sums the per-video subscriber sets.
func (s *Server) activeSubscribers() int {
	n := 0
	for _, v := range s.vlist {
		n += v.subs.Len()
	}
	return n
}

// Close stops accepting, terminates every subscription, halts the clock and
// waits for all server goroutines to exit. It is safe to call more than
// once.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		s.station.Close()
		return nil
	}
	err := s.ln.Close()
	if s.statsLn != nil {
		s.statsLn.Close()
	}
	for _, v := range s.videos {
		// Set.Close latches the video shut — admit's Add refuses from here
		// on, so a late registration can never hold a ring no producer ever
		// closes — and surfaces every live subscriber exactly once.
		for _, sub := range v.subs.Close() {
			s.ct.Unregister(sub.ct)
			sub.ring.Close()
		}
	}
	// Unblock handlers parked in reads or writes.
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	// A concurrent fanOut tick may still be pushing from a pre-Close
	// snapshot; pushes to the closed rings fail harmlessly and
	// station.Close waits for the clock goroutine — and therefore the
	// joined span walks — to finish before it tears its pool down.
	s.alerts.Stop()
	s.history.Stop()
	s.ct.Stop()
	s.station.Close()
	s.wg.Wait()
	return err
}

// track registers a connection for shutdown; it reports false when the
// server is already closing.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, conn)
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// readTimeout bounds every read the server waits on a client for — the
// request frame and the end-of-session report: four slots, at least a second.
func (s *Server) readTimeout() time.Duration {
	return max(4*s.cfg.SlotDuration, time.Second)
}

// handleConn admits one request and streams its subscription.
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	if !s.track(conn) {
		return
	}
	defer s.untrack(conn)

	// A client that connects and sends nothing is cut off after the read
	// bound; the deadline is cleared again so it cannot outlive the request.
	if err := conn.SetReadDeadline(time.Now().Add(s.readTimeout())); err != nil {
		return
	}
	msg, err := wire.ReadFrame(conn)
	if err != nil {
		return
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		return
	}
	req, ok := msg.(wire.Request)
	if !ok {
		_ = wire.WriteFrame(conn, wire.ErrorMsg{Text: "expected a request frame"})
		return
	}
	// Version negotiation: a version-less request is an old client — serve
	// it a v1 session with no trace fields and expect no report. Anything
	// announcing v2 or later negotiates down to our v2.
	proto := uint16(0)
	if req.Version >= wire.ProtoV2 {
		proto = wire.MaxProto
	}
	wantReport := proto >= wire.ProtoV2 && req.Flags&wire.FlagNoReport == 0
	wantTrace := proto >= wire.ProtoV2 && req.Flags&wire.FlagNoTrace == 0

	// The root span covers the whole pipeline from admit to the first
	// fan-out byte reaching this subscriber; an unsampled request gets a
	// nil span and every operation below is a no-op. End is idempotent, so
	// the deferred call only closes trees that error out before first
	// byte.
	root := s.spans.StartSpan("admit")
	root.SetVideo(req.VideoID)
	defer root.End()

	sub, info, err := s.admit(req.VideoID, req.FromSegment, conn, root)
	if err != nil {
		s.mRejects.Inc()
		root.SetAttr("reject", err.Error())
		_ = wire.WriteFrame(conn, wire.ErrorMsg{Text: err.Error()})
		return
	}
	if proto >= wire.ProtoV2 {
		info.Version = proto
		if wantTrace {
			// The session joins the admit span's tree: the client echoes
			// these identifiers in its report and the server synthesizes its
			// playback as child spans. An unsampled root hands out zero and
			// the session stays traceless.
			info.TraceID = root.ID()
			info.SpanID = root.ID()
		}
	}
	if err := wire.WriteFrame(conn, info); err != nil {
		s.unsubscribe(req.VideoID, sub)
		return
	}
	admitSlot := int(info.AdmitSlot)
	wait := root.Child("first_byte_wait")
	if !s.drainRing(conn, req.VideoID, sub, admitSlot, wait, root) {
		return
	}
	// The subscription ended cleanly (ring closed at the last slot). A v2
	// session that did not opt out now owes us a ClientReport; a subscriber
	// the fan-out dropped for falling behind gets disconnected instead.
	if wantReport && !sub.ring.Dropped() {
		s.readReport(conn, req.VideoID)
	}
}

// drainRing is the delivery loop of a session: it batch-pops the shared frame
// references queued on the subscriber's ring and hands them to the kernel
// as one vectored write per batch, releasing each frame only after its
// bytes are out. It reports false when the connection failed mid-stream
// (the session is already torn down) and true on clean ring closure.
func (s *Server) drainRing(conn net.Conn, videoID uint32, sub *subscriber, admitSlot int, wait, root *obs.Span) bool {
	var (
		frames    []*fanout.Frame
		vec       net.Buffers
		firstByte bool
	)
	release := func() {
		for _, f := range frames {
			f.Release()
		}
	}
	for {
		var open bool
		frames, open = sub.ring.PopAll(frames[:0])
		sent, n, err := writeFrames(conn, &vec, frames, admitSlot)
		if err != nil {
			release()
			// unsubscribe Drops the ring, which releases anything still
			// queued and refuses further pushes, so every outstanding
			// frame reference is now accounted for.
			s.unsubscribe(videoID, sub)
			return false
		}
		if sent {
			sub.ct.RecordDrain(len(frames), n)
		}
		if sent && !firstByte {
			firstByte = true
			lat := time.Since(sub.admitted).Seconds()
			s.mAdmitLatency.Observe(lat)
			s.firstByte.Observe(lat)
			wait.End()
			root.End()
		}
		release()
		if !open {
			return true
		}
	}
}

// writeFrames hands one drained batch to the connection as a single
// vectored write, skipping frames at or before the admit slot (the
// subscription was registered before the admission reached the scheduler,
// so the ring may carry slots the customer's service does not cover). vec
// is the session's reusable scratch: net.Buffers.WriteTo consumes the
// header it is invoked on — advancing it and rewriting elements on partial
// writes — so the full-capacity slice is restored into *vec afterwards.
// One header lives per session and the steady-state write path performs no
// per-batch allocation (BenchmarkDrainRing gates this).
func writeFrames(conn net.Conn, vec *net.Buffers, frames []*fanout.Frame, admitSlot int) (sent bool, n int64, err error) {
	bufs := (*vec)[:0]
	for _, f := range frames {
		if f.Slot() > admitSlot {
			bufs = append(bufs, f.Bytes())
		}
	}
	*vec = bufs
	if len(bufs) == 0 {
		return false, 0, nil
	}
	n, err = vec.WriteTo(conn)
	*vec = bufs[:0]
	return true, n, err
}

// admit registers a subscription and admits the request through the
// station. fromSegment above 1 resumes interactive playback there (0 and 1
// mean a full viewing).
//
// The subscription is registered BEFORE the admission reaches the
// scheduler, so the subscriber provably receives every slot from the admit
// slot on: the clock retires the admit slot only after the admission
// completes, which is after registration. Slots at or before the admit slot
// are discarded in writeFrames (the set-top box ignores them anyway — its
// service starts one slot after admission). This keeps scheduling entirely
// off the server-wide mutex: concurrent admissions for different videos
// proceed in parallel.
//
// root, when sampled, gains a station_admit child covering the scheduler
// call (whose lock wait and service time the station's stage histograms
// break down further); the child carries the admission's slot and the
// number of instances it placed.
func (s *Server) admit(videoID, fromSegment uint32, conn net.Conn, root *obs.Span) (*subscriber, wire.ScheduleInfo, error) {
	v, ok := s.videos[videoID]
	if !ok {
		return nil, wire.ScheduleInfo{}, fmt.Errorf("unknown video %d", videoID)
	}
	from := int(fromSegment)
	if from == 0 {
		from = 1
	}
	if from > v.cfg.Segments {
		return nil, wire.ScheduleInfo{}, fmt.Errorf("resume segment %d beyond %d", from, v.cfg.Segments)
	}
	sub := &subscriber{
		conn:     conn,
		ring:     fanout.NewRing(s.cfg.SubscriberBuffer),
		admitted: time.Now(),
	}
	sub.lastSlot.Store(math.MaxInt64)
	// Telemetry registration precedes publication into the subscriber set:
	// tick workers read sub.ct lock-free from snapshots, so the field must
	// be settled before Add makes the subscriber visible.
	sub.ct = s.ct.Register(conn, videoID, sub.ring.Cap())
	if !v.subs.Add(sub) {
		s.ct.Unregister(sub.ct)
		return nil, wire.ScheduleInfo{}, fmt.Errorf("server shutting down")
	}

	span := root.Child("station_admit")
	res, err := s.station.Admit(v.idx, core.AdmitOptions{From: from})
	if span != nil && err == nil {
		// Formatted only for sampled trees: the unsampled admit path stays
		// allocation-free here.
		span.SetAttr("slot", strconv.Itoa(res.Slot))
		span.SetAttr("placed", strconv.Itoa(res.Placed))
	}
	span.End()
	if err != nil {
		s.unsubscribe(videoID, sub)
		return nil, wire.ScheduleInfo{}, err
	}
	admitSlot := res.Slot

	// The subscription ends once the customer's last deadline passes: the
	// largest shifted period of the remaining suffix. The store is harmless
	// when a concurrent disconnect already removed the subscriber — its ring
	// is dropped and further pushes fail — and tick workers that read the
	// placeholder MaxInt64 this slot retire the subscriber one snapshot later.
	sub.lastSlot.Store(int64(admitSlot + v.maxPeriod[v.cfg.Segments-from+1]))
	s.mRequests.Inc()

	info := wire.ScheduleInfo{
		VideoID:      videoID,
		Segments:     uint32(v.cfg.Segments),
		SlotMillis:   uint32(s.cfg.SlotDuration / time.Millisecond),
		SegmentBytes: uint32(v.cfg.SegmentBytes),
		AdmitSlot:    uint64(admitSlot),
		Periods:      v.wirePeriods,
		SegmentSizes: v.wireSizes,
	}
	return sub, info, nil
}

// unsubscribe removes the subscription after an abnormal termination
// (failed admit, dead connection) and ends its ring if the fan-out has not
// already done so — Remove's exactly-one-winner contract makes the teardown
// single-shot against a racing tick retirement or server Close. The ring is
// Dropped rather than Closed so any queued frame references are returned to
// the pool immediately — the handler will never write them.
func (s *Server) unsubscribe(videoID uint32, sub *subscriber) {
	v, ok := s.videos[videoID]
	if !ok {
		return
	}
	if !v.subs.Remove(sub) {
		return
	}
	s.ct.Unregister(sub.ct)
	sub.ring.Drop()
}

// dropHook adapts the fault-injection hook to one video and slot. It is
// only materialized when DropInstance is armed, so the production fan-out
// never allocates a closure per tick.
func (s *Server) dropHook(videoID uint32, slot int) func(segment int) bool {
	if s.cfg.DropInstance == nil {
		return nil
	}
	return func(seg int) bool { return s.cfg.DropInstance(videoID, seg, slot) }
}

// fanOut runs on the station's clock goroutine once per retired slot: each
// active video's broadcast instances are encoded exactly once into a shared
// ref-counted frame and one reference is pushed per subscriber ring — the
// per-audience cost is a pointer, not a copy; an idle video costs nothing.
// The station walks its active videos span by span — on its pool when there
// is more than one span, the clock only dispatching and joining — and
// per-worker tallies merge into the shared counters once per tick, so the
// hot loops touch no shared cache line and take no lock but each ring's own.
func (s *Server) fanOut(walk func(worker, video int, rep core.SlotReport) bool) {
	t0 := time.Now()
	defer func() {
		d := time.Since(t0).Seconds()
		s.mFanout.Observe(d)
		s.fanout.Observe(d)
	}()
	if s.closed.Load() {
		return
	}
	s.station.EachActive(walk)
	var instances, bytes, maxDepth int64
	var dropsBy [numDropReasons]int64
	for i := range s.tallies {
		t := &s.tallies[i]
		instances += t.instances
		bytes += t.bytes
		for r, n := range t.dropsBy {
			dropsBy[r] += n
		}
		if t.maxDepth > maxDepth {
			maxDepth = t.maxDepth
		}
		*t = fanoutTally{}
	}
	s.mInstances.Add(float64(instances))
	s.mBroadcastBytes.Add(float64(bytes))
	for r, n := range dropsBy {
		if n != 0 {
			s.mDroppedBy[r].Add(float64(n))
		}
	}
	s.ringDepth.Record(float64(maxDepth))
}

// fanOutVideo fans one active video's retired slot out: encode the slot
// once, push the shared frame to every subscriber in the video's
// copy-on-write snapshot, then detach the expired and ring-full subscribers
// collected on the way so the push loop stays tight. It reports whether the
// video still has an audience: that, not a subscriber's last slot (maybe
// still the placeholder), keeps a drained video active. worker indexes the
// tally and retirement scratch; the only locks taken are each ring's own.
func (s *Server) fanOutVideo(worker, video int, rep core.SlotReport) bool {
	v := s.vlist[video]
	tally := &s.tallies[worker]
	v.load.Set(float64(rep.Load))
	tally.instances += int64(rep.Load)
	frame, err := s.enc.EncodeSlot(v.cfg.ID, rep.Slot, rep.Segments, s.dropHook(v.cfg.ID, rep.Slot))
	if err != nil {
		return false // unreachable: the catalogue was built from the same configs
	}
	tally.bytes += frame.PayloadBytes()
	retire := s.retire[worker][:0]
	for _, sub := range v.subs.Snapshot() {
		frame.Retain()
		depth, ok := sub.ring.Push(frame)
		sub.ct.RecordPush(depth, ok)
		if !ok {
			// The subscriber fell a full ring behind: queue it for
			// disconnection rather than stall the broadcast.
			frame.Release()
			retire = append(retire, retireEntry{sub: sub, drop: true})
			continue
		}
		if int64(depth) > tally.maxDepth {
			tally.maxDepth = int64(depth)
		}
		if int64(rep.Slot) >= sub.lastSlot.Load() {
			retire = append(retire, retireEntry{sub: sub})
		}
	}
	// Drop the encoder's own reference; subscribers now hold theirs and the
	// frame recycles once the last write completes.
	frame.Release()
	for _, r := range retire {
		// Remove has exactly one winner, so a disconnect or shutdown racing
		// this retirement ends the ring exactly once. Only a won drop counts
		// toward the disconnect tally, attributed to the connection's last
		// classified transport state.
		if !v.subs.Remove(r.sub) {
			continue
		}
		if r.drop {
			tally.dropsBy[dropReason(r.sub)]++
			r.sub.ring.Drop()
		} else {
			r.sub.ring.Close()
		}
		s.ct.Unregister(r.sub.ct)
	}
	s.retire[worker] = retire[:0]
	return v.subs.Len() > 0
}

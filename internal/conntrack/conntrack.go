// Package conntrack is the per-subscriber transport telemetry layer: it
// samples kernel TCP state (TCP_INFO on Linux) alongside the userspace
// signals the fan-out path already produces — ring occupancy, drain batch
// sizes, bytes written — and classifies every tracked
// connection into an explicit state machine with hysteresis:
//
//	healthy               delivering at the broadcast rate
//	receiver_limited      the client application reads too slowly (kernel
//	                      rwnd-limited time, or a deep ring with a live drain)
//	path_limited          the network is losing or delaying segments
//	                      (retransmit rate over threshold)
//	sender_backpressured  frames queue in OUR ring while the kernel shows no
//	                      constraint — the server's own drain is the bottleneck
//	stalled               a backlog exists and nothing has moved for a full
//	                      hold period (no drained bytes, no acked bytes)
//
// The classifier is deliberately conservative: a candidate state must hold
// for hold consecutive samples before the published state changes, so
// one slow scrape or a single retransmission never flaps a connection
// between states. The published state is what a write-deadline cut records
// as its reason, what /connz serves, and what the conn_stalled_ratio
// alert aggregates.
//
// The package follows the repository's observability idiom: stdlib-only
// imports (plus obs) and zero-value configs selecting documented defaults.
package conntrack

import (
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"vodcast/internal/obs"
)

// State is the classified transport condition of one tracked connection.
type State uint8

const (
	stateHealthy State = iota
	stateReceiverLimited
	statePathLimited
	stateSenderBackpressured
	stateStalled
	numStates
)

// NumStates is the number of distinct classifier states, for callers that
// index per-state accounting arrays.
const NumStates = int(numStates)

var stateNames = [NumStates]string{
	"healthy", "receiver_limited", "path_limited", "sender_backpressured", "stalled",
}

// String returns the state's metric-label-safe name.
func (s State) String() string {
	if int(s) < NumStates {
		return stateNames[s]
	}
	return "unknown"
}

// TCPInfo is the portable slice of the kernel's TCP_INFO the classifier
// consumes. Valid reports whether the kernel answered at all; Extended
// whether it filled the busy/rwnd/sndbuf limited-time tail (Linux >= 4.10).
// On non-Linux builds Valid is always false and classification runs on the
// userspace signals alone.
type TCPInfo struct {
	Valid    bool
	Extended bool
	// RTT and RTTVar are the smoothed round-trip estimate and its variance.
	RTT    time.Duration
	RTTVar time.Duration
	// TotalRetrans counts lifetime retransmitted segments.
	TotalRetrans uint32
	// NotSentBytes is the send-queue backlog the kernel has not yet put on
	// the wire.
	NotSentBytes uint32
	// SndCwnd and SndSsthresh are the congestion window and its threshold,
	// in segments.
	SndCwnd     uint32
	SndSsthresh uint32
	// BytesAcked is the lifetime count of bytes the receiver acknowledged —
	// the ground truth for "is anything still being delivered".
	BytesAcked uint64
	// DeliveryRate is the kernel's delivery rate estimate in bytes/sec.
	DeliveryRate uint64
	// BusyTime, RwndLimited and SndbufLimited are cumulative times the
	// connection spent sending, blocked on the receiver's window, and
	// blocked on the local send buffer.
	BusyTime      time.Duration
	RwndLimited   time.Duration
	SndbufLimited time.Duration
}

// Classification thresholds.
const (
	// retransThreshold is the per-sample retransmitted-segment delta at or
	// above which a connection classifies path_limited.
	retransThreshold = 3
	// rwndFraction classifies receiver_limited when the kernel's
	// rwnd-limited time grew by at least this fraction of the time since the
	// previous sample.
	rwndFraction = 0.1
	// ringHighFraction is the ring occupancy at or above which a connection
	// counts as behind the broadcast rate. Occupancy is relative to the
	// subscription's span, the most frames its ring can ever hold.
	ringHighFraction = 0.5
	// notSentLowBytes bounds the kernel send-queue backlog below which a
	// deep ring is attributed to the server's own drain
	// (sender_backpressured) rather than the receiver.
	notSentLowBytes = 4096
	// depthWindow sizes the per-connection ring-depth window behind the
	// /connz ring-depth p99 column.
	depthWindow = 64
	// hold is the hysteresis: how many consecutive samples a candidate
	// state must persist before the published state changes.
	hold = 2
)

// Config parameterizes a Sampler. The zero value of every field but
// Registry selects a documented default.
type Config struct {
	// Registry receives the conn_* metric families. Required.
	Registry *obs.Registry
	// Clock stamps samples; nil selects time.Now. Tests inject a manual
	// clock to make hysteresis deterministic.
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Sampler tracks a set of connections and classifies them on every Sweep.
// All methods are safe for concurrent use.
type Sampler struct {
	cfg Config

	mu     sync.Mutex
	conns  map[*Conn]struct{}
	nextID uint64
	counts [NumStates]int

	// occWin holds the latest ring-occupancy fraction of every tracked
	// connection, one observation per connection per sweep — the aggregate
	// quantile surface behind /connz and the conn_ring_occupancy summary.
	occWin *obs.Window

	mRTT        *obs.Window
	mRetrans    *obs.Counter
	mDrainBytes *obs.Counter
	stateGauges [NumStates]*obs.Gauge
}

// New builds a sampler on cfg. It is passive: whoever owns it calls Sweep
// once per sampling period. It panics if cfg.Registry is nil: a sampler with
// nowhere to export is a programming error, caught by the first test.
func New(cfg Config) *Sampler {
	reg := cfg.Registry
	if reg == nil {
		panic("conntrack: Config.Registry is required")
	}
	s := &Sampler{
		cfg:   cfg.withDefaults(),
		conns: make(map[*Conn]struct{}),
		occWin: reg.Window("conn_ring_occupancy",
			"Per-subscriber ring occupancy (fraction of the subscription's span), one observation per tracked connection per sweep.", 0),
		mRTT: reg.Window("conn_rtt_seconds",
			"Kernel smoothed RTT per tracked connection per sample.", 0),
		mRetrans: reg.Counter("conn_retrans_total",
			"TCP segments retransmitted across all tracked connections."),
		mDrainBytes: reg.Counter("conn_drain_bytes_total",
			"Payload bytes drained to tracked subscriber connections."),
	}
	for st := 0; st < NumStates; st++ {
		s.stateGauges[st] = reg.GaugeWith("conn_state",
			"Tracked connections currently classified into each transport state.",
			obs.Labels{"state": stateNames[st]})
	}
	reg.GaugeFunc("conn_tracked",
		"Connections currently tracked by the transport telemetry sampler.",
		func() float64 { return float64(s.tracked()) })
	reg.GaugeFunc("conn_stalled_ratio",
		"Fraction of tracked connections classified stalled (0 when none are tracked).",
		s.StalledRatio)
	return s
}

// Conn is one tracked connection's telemetry handle. The fan-out and drain
// hot paths feed it through RecordPush and RecordDrain — lock-free atomics —
// and the sampler's sweep owns everything else.
type Conn struct {
	id      uint64
	video   uint32
	remote  string
	ringCap int
	raw     syscall.RawConn // nil when the conn is not *net.TCPConn
	opened  time.Time

	// Hot-path counters.
	lastDepth  atomic.Int64
	drainBytes atomic.Int64
	drainOps   atomic.Int64
	// late latches once the server wrote the connection a segment after
	// its deadline.
	late atomic.Bool

	// Published classification, readable from any goroutine (the drop path
	// reads it at disconnect time).
	pub      atomic.Uint32
	pubSince atomic.Int64 // unix nanos

	// Sweep-owned classifier state, guarded by the sampler's mutex.
	candidate    State
	candidateRun int
	prev         prevSample
	depthWin     *obs.Window
	snap         ConnSnapshot
}

// prevSample is the previous sweep's cumulative counters, the baseline the
// next sweep diffs against.
type prevSample struct {
	valid       bool
	at          time.Time
	drainBytes  int64
	retrans     uint32
	bytesAcked  uint64
	rwndLimited time.Duration
}

// Register starts tracking conn. ringCap is the most frames the subscriber's
// queue can hold (its subscription's span in slots), the denominator of the
// occupancy signal.
func (s *Sampler) Register(conn net.Conn, video uint32, ringCap int) *Conn {
	if ringCap < 1 {
		ringCap = 1
	}
	now := s.cfg.Clock()
	c := &Conn{
		video:    video,
		ringCap:  ringCap,
		opened:   now,
		depthWin: obs.NewWindow(depthWindow),
	}
	if conn != nil {
		if addr := conn.RemoteAddr(); addr != nil {
			c.remote = addr.String()
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			if raw, err := tc.SyscallConn(); err == nil {
				c.raw = raw
			}
		}
	}
	c.pubSince.Store(now.UnixNano())
	s.mu.Lock()
	s.nextID++
	c.id = s.nextID
	c.snap = ConnSnapshot{ID: c.id, Remote: c.remote, Video: video,
		State: stateHealthy.String(), RingCap: ringCap, Kernel: c.raw != nil}
	s.conns[c] = struct{}{}
	s.counts[stateHealthy]++
	s.mu.Unlock()
	return c
}

// Unregister stops tracking c. It is idempotent — the drop, disconnect and
// shutdown paths may all reach it for the same connection.
func (s *Sampler) Unregister(c *Conn) {
	s.mu.Lock()
	if _, ok := s.conns[c]; ok {
		delete(s.conns, c)
		s.counts[c.State()]--
	}
	s.mu.Unlock()
}

// RecordPush notes one fan-out push: the post-push ring depth.
func (c *Conn) RecordPush(depth int) {
	c.lastDepth.Store(int64(depth))
}

// RecordDrain notes one completed drain batch: frames handed to the kernel
// and the payload bytes written. The ring is empty after a batch pop, so the
// depth signal resets.
func (c *Conn) RecordDrain(frames int, bytes int64) {
	if frames == 0 {
		return
	}
	c.drainOps.Add(1)
	c.drainBytes.Add(bytes)
	c.lastDepth.Store(0)
}

// RecordLate marks the connection as written a segment after its deadline.
func (c *Conn) RecordLate() {
	c.late.Store(true)
}

// State returns the connection's published classification.
func (c *Conn) State() State {
	return State(c.pub.Load())
}

// stateAge reports how long the published state has held.
func (c *Conn) stateAge(now time.Time) time.Duration {
	return now.Sub(time.Unix(0, c.pubSince.Load()))
}

// Sweep runs one sampling pass over every tracked connection: read the
// kernel and userspace signals, classify with hysteresis, refresh the
// cached /connz snapshots and the aggregate metric families. The server's
// telemetry loop calls it once per period.
func (s *Sampler) Sweep() {
	now := s.cfg.Clock()
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		s.sweepConn(c, now)
	}
	for st := 0; st < NumStates; st++ {
		s.stateGauges[st].Set(float64(s.counts[st]))
	}
}

// sweepConn samples and classifies one connection. Caller holds s.mu.
func (s *Sampler) sweepConn(c *Conn, now time.Time) {
	drain := c.drainBytes.Load()
	depth := c.lastDepth.Load()
	occ := float64(depth) / float64(c.ringCap)
	info, kernelOK := readTCPInfo(c.raw)

	cur := prevSample{
		valid:      true,
		at:         now,
		drainBytes: drain,
	}
	if kernelOK {
		cur.retrans = info.TotalRetrans
		cur.bytesAcked = info.BytesAcked
		cur.rwndLimited = info.RwndLimited
	}

	prev := c.prev
	c.prev = cur
	c.depthWin.Observe(float64(depth))
	s.occWin.Observe(occ)

	if kernelOK && info.RTT > 0 {
		s.mRTT.Observe(info.RTT.Seconds())
	}
	if prev.valid {
		if d := drain - prev.drainBytes; d > 0 {
			s.mDrainBytes.Add(float64(d))
		}
		if kernelOK && info.TotalRetrans > prev.retrans {
			s.mRetrans.Add(float64(info.TotalRetrans - prev.retrans))
		}
	}

	// The first sweep after registration only seeds the baseline: zero
	// deltas would otherwise read as "nothing moved" and nominate stalled
	// for a connection that just arrived.
	if prev.valid {
		elapsed := now.Sub(prev.at)
		wrote := drain > prev.drainBytes ||
			(kernelOK && prev.bytesAcked > 0 && info.BytesAcked > prev.bytesAcked)
		backlog := depth > 0 || (kernelOK && info.NotSentBytes > 0)
		var retransDelta int64
		var rwndDelta time.Duration
		if kernelOK {
			retransDelta = int64(info.TotalRetrans) - int64(prev.retrans)
			rwndDelta = info.RwndLimited - prev.rwndLimited
		}
		cand := s.classify(wrote, backlog, occ, retransDelta, rwndDelta, elapsed, info, kernelOK)
		s.holdAndPublish(c, cand, now)
	}

	rate := 0.0
	if prev.valid {
		if dt := now.Sub(prev.at).Seconds(); dt > 0 {
			if d := drain - prev.drainBytes; d > 0 {
				rate = float64(d) / dt
			}
		}
	}
	st := c.State()
	c.snap = ConnSnapshot{
		ID:              c.id,
		Remote:          c.remote,
		Video:           c.video,
		State:           st.String(),
		StateAgeSeconds: c.stateAge(now).Seconds(),
		RingDepth:       depth,
		RingCap:         c.ringCap,
		RingDepthP99:    c.depthWin.Snapshot().P99,
		BytesPerSec:     rate,
		Kernel:          kernelOK,
		LateWrite:       c.late.Load(),
	}
	if kernelOK {
		c.snap.RTTMillis = float64(info.RTT) / float64(time.Millisecond)
		c.snap.RTTVarMillis = float64(info.RTTVar) / float64(time.Millisecond)
		c.snap.Retrans = info.TotalRetrans
		c.snap.NotSentBytes = info.NotSentBytes
		c.snap.Cwnd = info.SndCwnd
		c.snap.DeliveryRate = info.DeliveryRate
	}
}

// classify nominates a candidate state from one sample's signals. Rules are
// ordered by how definitive the evidence is: total stall beats everything, a
// retransmit burst beats window accounting, kernel window accounting beats
// the occupancy fallback.
func (s *Sampler) classify(wrote, backlog bool, occ float64, retransDelta int64,
	rwndDelta, elapsed time.Duration, info TCPInfo, kernelOK bool) State {
	if backlog && !wrote {
		return stateStalled
	}
	if kernelOK && retransDelta >= retransThreshold {
		return statePathLimited
	}
	if info.Extended && elapsed > 0 &&
		rwndDelta >= time.Duration(rwndFraction*float64(elapsed)) {
		return stateReceiverLimited
	}
	if occ >= ringHighFraction {
		// A deep ring with a drained kernel queue means the network and the
		// receiver are keeping up — the server's own drain is behind.
		if kernelOK && info.NotSentBytes <= notSentLowBytes {
			return stateSenderBackpressured
		}
		return stateReceiverLimited
	}
	return stateHealthy
}

// holdAndPublish applies hysteresis: the candidate must repeat for hold
// consecutive sweeps before the published state moves. Caller
// holds s.mu.
func (s *Sampler) holdAndPublish(c *Conn, cand State, now time.Time) {
	cur := c.State()
	if cand == cur {
		c.candidateRun = 0
		return
	}
	if cand == c.candidate {
		c.candidateRun++
	} else {
		c.candidate = cand
		c.candidateRun = 1
	}
	if c.candidateRun < hold {
		return
	}
	s.counts[cur]--
	s.counts[cand]++
	c.pub.Store(uint32(cand))
	c.pubSince.Store(now.UnixNano())
	c.candidateRun = 0
}

// tracked reports the number of connections currently tracked.
func (s *Sampler) tracked() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// StalledRatio reports the fraction of tracked connections whose published
// state is stalled, or 0 when none are tracked — the conn_stalled_ratio
// alert signal.
func (s *Sampler) StalledRatio() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.conns) == 0 {
		return 0
	}
	return float64(s.counts[stateStalled]) / float64(len(s.conns))
}

// ConnSnapshot is one /connz table row: the connection's identity, its
// published state, and the kernel plus ring signals behind it. Kernel fields
// are zero when the platform (or the socket type) offers no TCP_INFO.
type ConnSnapshot struct {
	ID              uint64  `json:"id"`
	Remote          string  `json:"remote,omitempty"`
	Video           uint32  `json:"video"`
	State           string  `json:"state"`
	StateAgeSeconds float64 `json:"state_age_seconds"`
	RTTMillis       float64 `json:"rtt_ms,omitempty"`
	RTTVarMillis    float64 `json:"rttvar_ms,omitempty"`
	Retrans         uint32  `json:"retrans_total"`
	NotSentBytes    uint32  `json:"notsent_bytes,omitempty"`
	Cwnd            uint32  `json:"cwnd,omitempty"`
	DeliveryRate    uint64  `json:"delivery_rate_bps,omitempty"`
	RingDepth       int64   `json:"ring_depth"`
	RingCap         int     `json:"ring_cap"`
	RingDepthP99    float64 `json:"ring_depth_p99"`
	BytesPerSec     float64 `json:"bytes_per_sec"`
	Kernel          bool    `json:"kernel"`
	// LateWrite is set once the server wrote the connection a segment
	// after its deadline.
	LateWrite bool `json:"late_write,omitempty"`
}

// Summary is the /connz document (and the flight bundle's conns.json): the
// state histogram, the aggregate signals, and one row per tracked
// connection sorted by registration order.
type Summary struct {
	Tracked       int                `json:"tracked"`
	States        map[string]int     `json:"states"`
	StalledRatio  float64            `json:"stalled_ratio"`
	RingOccupancy obs.WindowSnapshot `json:"ring_occupancy"`
	Conns         []ConnSnapshot     `json:"conns"`
}

// Snapshot assembles the /connz document from the most recent sweep's cached
// rows. State ages are refreshed to now so a poll between sweeps still sees
// them advance.
func (s *Sampler) Snapshot() Summary {
	sum := Summary{States: make(map[string]int, NumStates)}
	now := s.cfg.Clock()
	s.mu.Lock()
	sum.Tracked = len(s.conns)
	for st := 0; st < NumStates; st++ {
		sum.States[stateNames[st]] = s.counts[st]
	}
	if len(s.conns) > 0 {
		sum.StalledRatio = float64(s.counts[stateStalled]) / float64(len(s.conns))
	}
	sum.Conns = make([]ConnSnapshot, 0, len(s.conns))
	for c := range s.conns {
		row := c.snap
		row.State = c.State().String()
		row.StateAgeSeconds = c.stateAge(now).Seconds()
		sum.Conns = append(sum.Conns, row)
	}
	s.mu.Unlock()
	sum.RingOccupancy = s.occWin.Snapshot()
	sort.Slice(sum.Conns, func(i, j int) bool { return sum.Conns[i].ID < sum.Conns[j].ID })
	return sum
}

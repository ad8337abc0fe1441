// Package load is the closed-loop load harness for a live vodserver: it
// drives the server with a fleet of concurrent QoE-tracking client sessions
// multiplexed over a bounded connection pool, steps the fleet through
// ramp/soak/spike profiles, and gates what it measured against the paper's
// closed-form capacity models (internal/analysis).
//
// The observability core is a lock-cheap results pipeline. Workers fold each
// finished session into one of a small set of shards — per-shard mutexes, so
// a hundred thousand workers never serialize on a global lock — whose
// digests are mergeable obs.Windows plus plain counters. A reporter
// goroutine merges the shards into live progress lines on an interval, and
// the step runner swaps every shard's digest at each step boundary to cut
// one StepResult per load step: sessions/core, admits/sec, startup delay
// quantiles, deadline slack, dial and pool-wait latency, error rate. Steps
// stream to a JSONL log as they finish and assemble into a final
// machine-readable Report.
//
// The gate is what makes the harness a *test* and not just a generator: the
// DHB schedule the server grants each session (period vector, slot duration)
// parameterizes the analytic envelopes — DHBMean for the expected broadcast
// bandwidth at the measured arrival rate, DHBSaturated for the hard ceiling,
// T[1] for the worst-case customer wait — and every step's measured server
// bandwidth (polled from /statusz), startup delay, miss rate and error rate
// must sit inside them. A healthy server passes; a server dropping instances
// (fault injection, packet loss) or admitting beyond capacity fails, and
// cmd/vodload exits non-zero.
package load

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vodcast/internal/obs"
	"vodcast/internal/sim"
	"vodcast/internal/vodclient"
	"vodcast/internal/workload"
)

// Step is one load plateau: hold Sessions concurrent closed-loop sessions
// for Duration.
type Step struct {
	Name     string        `json:"name"`
	Sessions int           `json:"sessions"`
	Duration time.Duration `json:"duration"`
}

// RampProfile climbs to peak concurrent sessions in steps equal plateaus
// over total — the shape that finds the knee of a capacity curve.
func RampProfile(peak, steps int, total time.Duration) ([]Step, error) {
	if peak <= 0 || steps <= 0 || total <= 0 {
		return nil, fmt.Errorf("load: ramp peak %d / steps %d / total %v must be positive", peak, steps, total)
	}
	if steps > peak {
		steps = peak
	}
	prof := make([]Step, steps)
	for i := range prof {
		prof[i] = Step{
			Name:     fmt.Sprintf("ramp-%d", i+1),
			Sessions: peak * (i + 1) / steps,
			Duration: total / time.Duration(steps),
		}
	}
	return prof, nil
}

// SoakProfile holds one plateau for the whole run — the shape that surfaces
// leaks and drift.
func SoakProfile(sessions int, total time.Duration) ([]Step, error) {
	if sessions <= 0 || total <= 0 {
		return nil, fmt.Errorf("load: soak sessions %d / total %v must be positive", sessions, total)
	}
	return []Step{{Name: "soak", Sessions: sessions, Duration: total}}, nil
}

// SpikeProfile runs base → spike → base in three equal plateaus — the
// flash-crowd shape, with the recovery plateau showing whether the server
// comes back.
func SpikeProfile(base, spike int, total time.Duration) ([]Step, error) {
	if base <= 0 || spike <= base || total <= 0 {
		return nil, fmt.Errorf("load: spike base %d / spike %d / total %v invalid (need spike > base > 0)", base, spike, total)
	}
	third := total / 3
	return []Step{
		{Name: "base", Sessions: base, Duration: third},
		{Name: "spike", Sessions: spike, Duration: third},
		{Name: "recover", Sessions: base, Duration: third},
	}, nil
}

// Config parameterizes a harness run.
type Config struct {
	// Addr is the vodserver's client-facing address.
	Addr string
	// StatusAddr optionally names the server's stats address (its
	// -stats-addr); when set, the harness polls /statusz at step boundaries
	// and the gate checks measured broadcast bandwidth against the analytic
	// envelopes. Empty disables the server-side checks.
	StatusAddr string
	// Videos is the catalogue to draw requests from; popularity follows a
	// Zipf law with ZipfSkew (0 selects the classic 1.0).
	Videos   []uint32
	ZipfSkew float64
	// Profile is the step sequence; build one with RampProfile, SoakProfile
	// or SpikeProfile, or assemble steps by hand.
	Profile []Step
	// MaxConns bounds the connection pool the sessions multiplex over; 0
	// selects 256. Sessions beyond the bound queue for a slot (the wait is
	// measured, not an error).
	MaxConns int
	// SessionTimeout bounds each session, dial included; 0 selects 30s.
	SessionTimeout time.Duration
	// Seed makes video sampling reproducible.
	Seed int64
	// Interval is the live-progress cadence; 0 selects 1s.
	Interval time.Duration
	// Progress, when non-nil, receives one live status line per interval.
	Progress io.Writer
	// StepLog, when non-nil, receives one JSON object per finished step.
	StepLog io.Writer
	// Arrivals optionally paces session starts open-loop at a
	// requests-per-second rate (t is seconds since the run began) — the
	// time-of-day arrival waves of internal/workload. Nil runs fully closed
	// loop: every worker issues its next session immediately.
	Arrivals workload.RateFunc
	// Gate tunes the analytic pass/fail envelopes; the zero value selects
	// the documented defaults. Disable with Gate.Disabled.
	Gate Gate
}

// Harness is a configured load run. Create with New, drive with Run.
type Harness struct {
	cfg    Config
	pool   *vodclient.Pool
	zipf   *workload.Zipf
	shards []*resultShard

	// Lifetime counters (workers bump these with atomics; the reporter and
	// Live read them without touching the shards).
	totalSessions atomic.Uint64
	totalErrors   atomic.Uint64
	active        atomic.Int64

	// Learned schedule parameters: the first session of each video records
	// the period vector the server granted; slotMillis is shared. learned
	// short-circuits the per-session check once every video is known.
	schedMu    sync.Mutex
	periods    map[uint32][]int
	slotMillis int
	learned    atomic.Bool

	liveMu sync.Mutex
	live   LiveStatus
}

// resultShard is one slice of the results pipeline: a handful of workers fold
// into it under its private mutex, and the step runner swaps its digest at
// each boundary.
type resultShard struct {
	mu sync.Mutex
	d  *digest
}

// digest accumulates one shard's share of a step.
type digest struct {
	sessions uint64
	errors   uint64
	misses   uint64
	startup  *obs.Window // slots, admission to first needed segment
	slack    *obs.Window // slots, per-session mean slack to deadline
	dial     *obs.Window // seconds
	poolWait *obs.Window // seconds
	firstBy  *obs.Window // seconds
}

// digestWindow sizes the per-shard windows; shards only hold one step's
// share, so a modest bound keeps merges cheap while steps of tens of
// thousands of sessions still quantile over a dense recent sample.
const digestWindow = 4096

func newDigest() *digest {
	return &digest{
		startup:  obs.NewWindow(digestWindow),
		slack:    obs.NewWindow(digestWindow),
		dial:     obs.NewWindow(digestWindow),
		poolWait: obs.NewWindow(digestWindow),
		firstBy:  obs.NewWindow(digestWindow),
	}
}

// New validates cfg and prepares the harness.
func New(cfg Config) (*Harness, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("load: server address required")
	}
	if len(cfg.Videos) == 0 {
		return nil, fmt.Errorf("load: empty catalogue")
	}
	if len(cfg.Profile) == 0 {
		return nil, fmt.Errorf("load: empty step profile")
	}
	for i, st := range cfg.Profile {
		if st.Sessions <= 0 || st.Duration <= 0 {
			return nil, fmt.Errorf("load: step %d (%q): sessions %d / duration %v must be positive",
				i, st.Name, st.Sessions, st.Duration)
		}
	}
	if cfg.MaxConns == 0 {
		cfg.MaxConns = 256
	}
	if cfg.SessionTimeout == 0 {
		cfg.SessionTimeout = 30 * time.Second
	}
	if cfg.Interval == 0 {
		cfg.Interval = time.Second
	}
	if cfg.ZipfSkew == 0 {
		cfg.ZipfSkew = 1.0
	}
	cfg.Gate = cfg.Gate.withDefaults()
	zipf, err := workload.NewZipf(len(cfg.Videos), cfg.ZipfSkew)
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	pool, err := vodclient.NewPool(cfg.Addr, cfg.MaxConns)
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	nShards := 4 * runtime.GOMAXPROCS(0)
	if max := maxSessions(cfg.Profile); nShards > max {
		nShards = max
	}
	shards := make([]*resultShard, nShards)
	for i := range shards {
		shards[i] = &resultShard{d: newDigest()}
	}
	return &Harness{
		cfg:     cfg,
		pool:    pool,
		zipf:    zipf,
		shards:  shards,
		periods: make(map[uint32][]int),
	}, nil
}

func maxSessions(profile []Step) int {
	max := 1
	for _, st := range profile {
		if st.Sessions > max {
			max = st.Sessions
		}
	}
	return max
}

// Pool exposes the connection pool (its stats land in the final report).
func (h *Harness) Pool() *vodclient.Pool { return h.pool }

// Run executes the profile and returns the report. done, when non-nil, is
// polled between sessions: closing it stops the run early (the report then
// covers the completed steps and fails the gate).
func (h *Harness) Run(done <-chan struct{}) (*Report, error) {
	report := &Report{
		Addr:  h.cfg.Addr,
		Cores: runtime.GOMAXPROCS(0),
		Zipf:  h.cfg.ZipfSkew,
	}
	start := time.Now()

	// The pacer hands out session-start tokens when an open-loop arrival
	// rate is configured.
	var tokens chan struct{}
	pacerDone := make(chan struct{})
	if h.cfg.Arrivals != nil {
		tokens = make(chan struct{}, 1024)
		go h.pace(tokens, start, pacerDone)
	}
	defer close(pacerDone)

	// The reporter renders live progress for the whole run.
	reporterDone := make(chan struct{})
	reporterExit := make(chan struct{})
	go h.reportLoop(start, reporterDone, reporterExit)
	defer func() {
		close(reporterDone)
		<-reporterExit
		h.setLive(func(l *LiveStatus) { l.Running = false })
	}()

	poller := newStatusPoller(h.cfg.StatusAddr)
	interrupted := false
	for i, st := range h.cfg.Profile {
		select {
		case <-done:
			interrupted = true
		default:
		}
		if interrupted {
			break
		}
		h.setLive(func(l *LiveStatus) {
			l.Running = true
			l.Step = st.Name
			l.StepIndex = i + 1
			l.Steps = len(h.cfg.Profile)
			l.TargetSessions = st.Sessions
		})
		before := poller.sample()
		stepStart := time.Now()
		res := h.runStep(st, tokens, done)
		stepEnd := time.Now()
		res.Server = poller.delta(before, res.DurationSeconds)
		res.History = poller.history(stepStart, stepEnd)
		res.Conn = poller.conns()
		h.gateStep(&res)
		if h.cfg.StepLog != nil {
			if b, err := json.Marshal(res); err == nil {
				fmt.Fprintf(h.cfg.StepLog, "%s\n", b)
			}
		}
		report.Steps = append(report.Steps, res)
	}
	report.Pool = h.pool.Stats()
	report.SlotMillis = h.slotMillisLearned()
	report.finalize(interrupted)
	return report, nil
}

// runStep holds the step's session count for its duration and cuts the
// merged digest into a StepResult.
func (h *Harness) runStep(st Step, tokens chan struct{}, done <-chan struct{}) StepResult {
	deadline := time.Now().Add(st.Duration)
	stop := make(chan struct{})
	timer := time.AfterFunc(st.Duration, func() { close(stop) })
	defer timer.Stop()

	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < st.Sessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := sim.NewRNG(h.cfg.Seed + int64(w)*7919 + 1)
			sh := h.shards[w%len(h.shards)]
			for {
				select {
				case <-stop:
					return
				case <-done:
					return
				default:
				}
				if time.Now().After(deadline) {
					return
				}
				if tokens != nil {
					select {
					case <-tokens:
					case <-stop:
						return
					case <-done:
						return
					}
				}
				h.runOne(rng, sh)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(t0).Seconds()

	// Swap every shard's digest and merge the step's share.
	agg := newDigest()
	aggStartup, aggSlack := obs.NewWindow(digestWindow), obs.NewWindow(digestWindow)
	aggDial, aggWait := obs.NewWindow(digestWindow), obs.NewWindow(digestWindow)
	aggFB := obs.NewWindow(digestWindow)
	for _, sh := range h.shards {
		sh.mu.Lock()
		d := sh.d
		sh.d = newDigest()
		sh.mu.Unlock()
		agg.sessions += d.sessions
		agg.errors += d.errors
		agg.misses += d.misses
		aggStartup.Merge(d.startup)
		aggSlack.Merge(d.slack)
		aggDial.Merge(d.dial)
		aggWait.Merge(d.poolWait)
		aggFB.Merge(d.firstBy)
	}

	res := StepResult{
		Name:            st.Name,
		TargetSessions:  st.Sessions,
		DurationSeconds: elapsed,
		Sessions:        agg.sessions,
		Errors:          agg.errors,
		Misses:          agg.misses,
		Startup:         aggStartup.Snapshot(),
		Slack:           aggSlack.Snapshot(),
		Dial:            aggDial.Snapshot(),
		PoolWait:        aggWait.Snapshot(),
		FirstByte:       aggFB.Snapshot(),
	}
	if elapsed > 0 {
		res.SessionsPerSec = float64(agg.sessions) / elapsed
		res.SessionsPerCore = res.SessionsPerSec / float64(runtime.GOMAXPROCS(0))
		res.AdmitsPerSec = res.SessionsPerSec
	}
	if total := agg.sessions + agg.errors; total > 0 {
		res.ErrorRate = float64(agg.errors) / float64(total)
	}
	if agg.sessions > 0 {
		res.MissesPerSession = float64(agg.misses) / float64(agg.sessions)
	}
	return res
}

// runOne drives one closed-loop session and folds its outcome into sh.
func (h *Harness) runOne(rng *sim.RNG, sh *resultShard) {
	video := h.cfg.Videos[h.zipf.Sample(rng)]
	h.active.Add(1)
	res, err := h.pool.Fetch(vodclient.FetchOptions{
		VideoID: video,
		Timeout: h.cfg.SessionTimeout,
	})
	h.active.Add(-1)

	sh.mu.Lock()
	d := sh.d
	if err != nil {
		d.errors++
		sh.mu.Unlock()
		h.totalErrors.Add(1)
		return
	}
	d.sessions++
	d.misses += uint64(res.DeadlineMisses)
	d.startup.Observe(float64(res.StartupSlots))
	d.slack.Observe(res.MeanSlackSlots)
	d.dial.Observe(res.Dial.Seconds())
	d.poolWait.Observe(res.PoolWait.Seconds())
	d.firstBy.Observe(res.FirstByte.Seconds())
	sh.mu.Unlock()
	h.totalSessions.Add(1)
	h.learn(res)
}

// learn records the granted schedule parameters the gate needs, once per
// video; the atomic short-circuits the mutex after every video is known.
func (h *Harness) learn(res vodclient.Result) {
	if h.learned.Load() || len(res.Periods) == 0 {
		return
	}
	h.schedMu.Lock()
	if _, ok := h.periods[res.VideoID]; !ok {
		p := make([]int, len(res.Periods))
		copy(p, res.Periods)
		h.periods[res.VideoID] = p
		h.slotMillis = res.SlotMillis
		if len(h.periods) == len(h.cfg.Videos) {
			h.learned.Store(true)
		}
	}
	h.schedMu.Unlock()
}

func (h *Harness) slotMillisLearned() int {
	h.schedMu.Lock()
	defer h.schedMu.Unlock()
	return h.slotMillis
}

func (h *Harness) periodsLearned() map[uint32][]int {
	h.schedMu.Lock()
	defer h.schedMu.Unlock()
	out := make(map[uint32][]int, len(h.periods))
	for id, p := range h.periods {
		out[id] = p
	}
	return out
}

// pace integrates the arrival rate into session-start tokens on a fine
// grid; workers block on the token channel, turning the closed-loop fleet
// into an open-loop one bounded by the fleet size.
func (h *Harness) pace(tokens chan<- struct{}, start time.Time, done <-chan struct{}) {
	const grid = 5 * time.Millisecond
	ticker := time.NewTicker(grid)
	defer ticker.Stop()
	acc := 0.0
	for {
		select {
		case <-done:
			return
		case now := <-ticker.C:
			t := now.Sub(start).Seconds()
			acc += h.cfg.Arrivals(t) * grid.Seconds()
			for acc >= 1 {
				acc--
				select {
				case tokens <- struct{}{}:
				default: // fleet saturated; drop the token, closed loop rules
				}
			}
		}
	}
}

// LiveStatus is the harness's instantaneous view — what a /statusz load
// pane renders while the run is in flight.
type LiveStatus struct {
	Running        bool    `json:"running"`
	Step           string  `json:"step"`
	StepIndex      int     `json:"step_index"`
	Steps          int     `json:"steps"`
	TargetSessions int     `json:"target_sessions"`
	ActiveSessions int64   `json:"active_sessions"`
	Sessions       uint64  `json:"sessions"`
	Errors         uint64  `json:"errors"`
	AdmitsPerSec   float64 `json:"admits_per_sec"`
	ErrorRate      float64 `json:"error_rate"`
}

// Live snapshots the harness's current state. Safe to call from any
// goroutine at any time, including before Run and after it returns.
func (h *Harness) Live() LiveStatus {
	h.liveMu.Lock()
	l := h.live
	h.liveMu.Unlock()
	l.ActiveSessions = h.active.Load()
	l.Sessions = h.totalSessions.Load()
	l.Errors = h.totalErrors.Load()
	if total := l.Sessions + l.Errors; total > 0 {
		l.ErrorRate = float64(l.Errors) / float64(total)
	}
	return l
}

func (h *Harness) setLive(f func(*LiveStatus)) {
	h.liveMu.Lock()
	f(&h.live)
	h.liveMu.Unlock()
}

// reportLoop renders one live progress line per interval and keeps the
// admits/sec rate in LiveStatus fresh.
func (h *Harness) reportLoop(start time.Time, done <-chan struct{}, exited chan<- struct{}) {
	defer close(exited)
	ticker := time.NewTicker(h.cfg.Interval)
	defer ticker.Stop()
	lastSessions := uint64(0)
	lastTick := start
	for {
		select {
		case <-done:
			return
		case now := <-ticker.C:
			sessions := h.totalSessions.Load()
			rate := float64(sessions-lastSessions) / now.Sub(lastTick).Seconds()
			lastSessions, lastTick = sessions, now
			h.setLive(func(l *LiveStatus) { l.AdmitsPerSec = rate })
			if h.cfg.Progress == nil {
				continue
			}
			l := h.Live()
			// A merged snapshot of the in-flight step's startup digest gives
			// the operator live quantiles without waiting for the boundary.
			startup := obs.NewWindow(digestWindow)
			for _, sh := range h.shards {
				sh.mu.Lock()
				startup.Merge(sh.d.startup)
				sh.mu.Unlock()
			}
			ss := startup.Snapshot()
			fmt.Fprintf(h.cfg.Progress,
				"load %6.1fs step=%s (%d/%d) target=%d active=%d sessions=%d err=%d adm/s=%.1f startup p50/p95/p99=%.0f/%.0f/%.0f slots\n",
				now.Sub(start).Seconds(), l.Step, l.StepIndex, l.Steps, l.TargetSessions,
				l.ActiveSessions, l.Sessions, l.Errors, rate, ss.P50, ss.P95, ss.P99)
		}
	}
}

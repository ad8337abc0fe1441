// Package station is the concurrent multi-video broadcast engine: it owns
// one DHB scheduler per catalogue video, each behind its own lock, so
// admissions for different videos proceed in parallel.
//
// The paper's introduction motivates a server distributing a whole catalogue
// under per-video demand; DHB schedules every video independently (the
// Figure 6 loop touches one video's slots only, exactly as Viennot et al.
// treat distributed VoD as independent parallel channels), and
// core.Scheduler deliberately has no concurrency story (one goroutine per
// scheduler). The design:
//
//   - One lock per video. Admissions for different videos never contend;
//     admissions for one video serialize on that video's lock.
//   - One span partition. The catalogue is cut once, at construction, into
//     Config.Shards contiguous near-equal spans: the unit of parallelism of
//     a clock tick.
//   - One active list per span. A tick touches only the videos whose
//     scheduler holds a pending instance or whose audience the tick callback
//     reports; Admit builds a video's scheduler on its first admission and
//     catches an idle one up in O(1), so a video nobody requests costs its
//     configuration only.
//   - One clock, one pool. A single optional clock goroutine retires one
//     slot per grid point start + k·interval: one wall-time slot grid. With
//     more than one span it owns a persistent pool of one goroutine per span,
//     which runs the advance and, through EachActive, whatever per-video work
//     the tick callback hands it. Deterministic drivers call AdvanceSlot
//     themselves instead: a plain serial loop that starts no goroutine.
//   - One report contract. An advance retires the current slot and reports
//     the slot it begins, which is final: admissions place instances only
//     after the current slot. AdvanceSlot, AdvanceSlotInto, StartClock's
//     callback and EachActive all hand out that report, so a data plane
//     sends a slot as it begins and a request admitted in slot i gets its
//     first segment as slot i+1 begins. A bare core.Scheduler returns the
//     same report one advance later, when the slot retires.
//
// Within one slot, admissions for the same video are identical operations,
// so any interleaving yields the same per-video schedule as a sequential
// run with the same per-slot arrival counts; station_test.go proves this
// equivalence against K independent core schedulers.
package station

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"vodcast/internal/core"
	"vodcast/internal/obs"
	"vodcast/internal/video"
)

// Sentinel errors. Construction errors wrap these (and the core sentinels
// for per-video scheduler problems) with context; runtime errors from Admit
// are classifiable with errors.Is.
var (
	// errEmptyCatalogue reports a Config with no videos.
	errEmptyCatalogue = errors.New("station: empty catalogue")
	// errBadShards reports a negative Config.Shards.
	errBadShards = errors.New("station: shard count must be non-negative")
	// errBadSlotDuration reports a non-positive StartClock interval.
	errBadSlotDuration = errors.New("station: slot duration must be positive")
	// errUnknownVideo reports a video index outside the catalogue.
	errUnknownVideo = errors.New("station: unknown video")
	// errClosed reports an operation against a closed station.
	errClosed = errors.New("station: closed")
	// errClockRunning reports a second StartClock.
	errClockRunning = errors.New("station: clock already running")
)

// VideoConfig describes one catalogue video of a station.
type VideoConfig struct {
	// Name labels the video in reports and metrics ("" is allowed).
	Name string
	// Segments is the DHB segment count n.
	Segments int
	// Periods optionally carries a DHB-d period vector; nil selects the CBR
	// default T[i] = i.
	Periods []int
	// TrackSegments records which segment ids occupy each slot (needed when
	// slot reports feed a data plane, as in vodserver).
	TrackSegments bool
	// Observer optionally receives the video's scheduling decisions. It is
	// invoked under the video's lock, from admitting goroutines and the
	// clock's, so it must be safe for use from multiple goroutines over time
	// (obs.SchedObserver over a Tracer is). The empty slots an idle video
	// skips emit no ObserveRetire.
	Observer core.Observer
}

// Config parameterizes a station.
type Config struct {
	// Videos is the catalogue. Video indices in the station API are indices
	// into this slice.
	Videos []VideoConfig
	// Shards is how many contiguous spans the clock's tick is split over; 0
	// selects GOMAXPROCS, and the count is capped at len(Videos).
	Shards int
	// Registry optionally receives the pipeline instruments: the admission
	// stage summaries (station_stage_seconds) and the clock's tick and
	// skipped-grid-point counters (station_clock_ticks_total,
	// station_clock_skipped_ticks_total).
	Registry *obs.Registry
}

// Stage names of the admission pipeline, the keys of Status.Stages.
const (
	// stageLockWait is the time an admission waits for its video's lock.
	stageLockWait = "lock_wait"
	// stageAdmit is the scheduler service time under the video's lock.
	stageAdmit = "admit"
)

// stationObs carries every instrument of an observed station; a nil
// *stationObs disables the whole layer for one predictable branch per hot
// path. Each admission stage is one summary: its window is the live
// p50/p95/p99 that /statusz and vodtop render and its _sum/_count the
// lifetime totals /metricsz scrapes.
type stationObs struct {
	lockWait, admit          *obs.Window
	clockTicks, clockSkipped *obs.Counter
}

// newStationObs registers the pipeline instruments on reg.
func newStationObs(reg *obs.Registry) *stationObs {
	stage := func(name string) *obs.Window {
		return reg.WindowWith("station_stage_seconds",
			"Admission pipeline stage latencies.", 0, obs.Labels{"stage": name})
	}
	return &stationObs{lockWait: stage(stageLockWait), admit: stage(stageAdmit),
		clockTicks: reg.Counter("station_clock_ticks_total", "Slot ticks fanned out by the clock goroutine."),
		clockSkipped: reg.Counter("station_clock_skipped_ticks_total",
			"Slot grid points the clock skipped because it woke 8 or more slots late.")}
}

// stationVideo is one catalogue video: its configuration, immutable after
// New, and its scheduler with the lock every access to it takes.
type stationVideo struct {
	mu  sync.Mutex
	cfg VideoConfig
	// sched (guarded by mu) is nil until the video's first admission builds
	// it; until then every query answers from cfg and the span's slot.
	sched *core.Scheduler
	// active (guarded by mu) reports that the video has joined list and its
	// scheduler is on the slot grid; an idle one's is stale.
	list   *activeList
	active bool
	// audience (the last EachActive callback saw one) belongs to the tick.
	audience bool
}

// activeList is one span's active videos and the slot its idle ones are in.
// mu guards slot and joined (the videos activated since the last advance) and
// is taken after a video's lock, never before one; active belongs to the tick.
type activeList struct {
	mu     sync.Mutex
	slot   int
	joined []int
	active []int
}

// Station is a multi-video DHB broadcast engine. All methods are safe for
// concurrent use.
type Station struct {
	videos []stationVideo
	// spans is the one partition of the catalogue: contiguous near-equal
	// half-open video index ranges; lists holds each span's active videos
	// and active counts them all.
	spans  [][2]int
	lists  []activeList
	active atomic.Int64
	// tickMu serializes whoever drives the slot grid (the clock, AdvanceSlot,
	// EachActive) and guards reports and visit, the arguments of the two
	// span functions bound once in New so a tick allocates nothing.
	tickMu      sync.Mutex
	reports     []core.SlotReport
	visit       func(worker, video int, rep core.SlotReport) (audience bool)
	advanceFunc func(worker, lo, hi int)
	walkFunc    func(worker, lo, hi int)
	// pool runs the spans in parallel while a clock over more than one span
	// is running. StartClock sets it before the clock goroutine starts and
	// Close clears it after that goroutine exits, so the clock goroutine
	// reads it without a lock.
	pool *workers

	// obs is the pipeline instrumentation, nil when Config.Registry was
	// nil: every hot path pays exactly one branch for the disabled layer.
	obs *stationObs

	// Close sets closed and closes done under clockMu, the lock StartClock
	// checks closed under, and then joins the clock (clockWG).
	clockMu sync.Mutex
	closed  atomic.Bool
	done    chan struct{}
	clockWG sync.WaitGroup
	// clock is the clock StartClock launched, nil until then. now is its
	// time source, the wall clock. wait, nil unless an in-package test set
	// it before StartClock, replaces the wall wait StartClock opens (a
	// timerfd on Linux, see wallWait); either returns a channel that
	// delivers once d has passed, and the clock drains it before it waits
	// again.
	clock atomic.Pointer[slotClock]
	now   func() time.Time
	wait  func(d time.Duration) <-chan time.Time
}

// slotClock is a clock's interval and its lag window: one observation per
// tick of how late it ran behind its grid point, so Total counts the ticks.
type slotClock struct {
	interval time.Duration
	lag      *obs.Window
}

// maxCatchUp is how many intervals late a wake may be and still run the
// ticks it missed back to back instead of skipping them. A burst therefore
// pushes at most 8 frames at once into a subscriber's ring, which vodserver
// sizes to the whole subscription, so catching up never cuts a subscriber.
const maxCatchUp = 8

// New validates cfg — every video's scheduler configuration included, so a
// bad catalogue fails here and never on a customer's admission — and builds
// the station at slot 0. A video's scheduler is built on its first
// admission.
func New(cfg Config) (*Station, error) {
	if len(cfg.Videos) == 0 {
		return nil, errEmptyCatalogue
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("%w: got %d", errBadShards, cfg.Shards)
	}
	n := cfg.Shards
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > len(cfg.Videos) {
		n = len(cfg.Videos)
	}
	st := &Station{
		videos: make([]stationVideo, len(cfg.Videos)),
		spans:  make([][2]int, n),
		lists:  make([]activeList, n),
		done:   make(chan struct{}),
		now:    time.Now,
	}
	st.advanceFunc, st.walkFunc = st.advanceSpan, st.walkSpan
	if cfg.Registry != nil {
		st.obs = newStationObs(cfg.Registry)
	}
	for i, vc := range cfg.Videos {
		if err := vc.core().Validate(); err != nil {
			return nil, fmt.Errorf("station: video %d (%q): %w", i, vc.Name, err)
		}
		vc.Periods = slices.Clone(vc.Periods) // the station's own copy; nil stays nil
		st.videos[i].cfg = vc
	}
	// Spans differ in length by at most one video.
	base, rem := len(cfg.Videos)/n, len(cfg.Videos)%n
	lo := 0
	for i := range st.spans {
		hi := lo + base
		if i < rem {
			hi++
		}
		st.spans[i] = [2]int{lo, hi}
		for ; lo < hi; lo++ {
			st.videos[lo].list = &st.lists[i]
		}
	}
	return st, nil
}

// core is the scheduler configuration a video's first admission builds from
// vc; New validates it up front, so that build cannot fail.
func (vc VideoConfig) core() core.Config {
	return core.Config{
		Segments:      vc.Segments,
		Periods:       vc.Periods,
		TrackSegments: vc.TrackSegments,
		Observer:      vc.Observer,
	}
}

// Shards reports the number of spans the catalogue is partitioned into
// (the resolved Config.Shards).
func (st *Station) Shards() int { return len(st.spans) }

// EachActive calls fn(worker, video, rep) once for every video the last
// advance left active, rep being its report from that advance, of the slot it
// began (Segments is the scheduler's, read-only, unchanged until the next
// advance), and worker its span's index in 0..Shards()-1, and returns when
// all have finished. fn reports whether the video still has an audience,
// which keeps a drained video active, and must not advance the station. While
// a clock over more than one span is running, EachActive belongs to its tick
// callback alone and the spans run in parallel on the clock's pool, so fn must
// confine itself to its video and to state indexed by worker; otherwise they
// run in order.
func (st *Station) EachActive(fn func(worker, video int, rep core.SlotReport) (audience bool)) {
	st.tickMu.Lock()
	defer st.tickMu.Unlock()
	st.visit = fn
	st.eachSpan(st.walkFunc)
}

// walkSpan is EachActive over one span.
func (st *Station) walkSpan(worker, _, _ int) {
	for _, v := range st.lists[worker].active {
		st.videos[v].audience = st.visit(worker, v, st.reports[v])
	}
}

// eachSpan runs run over every span, on the clock's pool while there is one.
func (st *Station) eachSpan(run func(worker, lo, hi int)) {
	if st.pool != nil {
		st.pool.tick(run)
		return
	}
	for i, sp := range st.spans {
		run(i, sp[0], sp[1])
	}
}

// Periods returns a copy of video v's resolved 1-based period vector (CBR
// defaults applied), read from its configuration.
func (st *Station) Periods(v int) []int {
	vc := st.videos[v].cfg
	if vc.Periods == nil {
		return video.DefaultPeriods(vc.Segments)
	}
	periods := slices.Clone(vc.Periods)
	periods[0] = 0
	return periods
}

// checkVideo validates a video index.
func (st *Station) checkVideo(video int) error {
	if video < 0 || video >= len(st.videos) {
		return fmt.Errorf("%w: index %d outside 0..%d", errUnknownVideo, video, len(st.videos)-1)
	}
	return nil
}

// Admit synchronously admits one request for the video under the video's
// lock. Admissions for different videos run in parallel.
func (st *Station) Admit(video int, opts core.AdmitOptions) (core.AdmitResult, error) {
	if st.closed.Load() {
		return core.AdmitResult{}, errClosed
	}
	if err := st.checkVideo(video); err != nil {
		return core.AdmitResult{}, err
	}
	sv := &st.videos[video]
	// The instrumented path brackets the lock acquisition and the
	// scheduler service with clock reads; the disabled path pays one nil
	// check and no clock.
	var t0 time.Time
	if st.obs != nil {
		t0 = time.Now()
	}
	sv.mu.Lock()
	defer sv.mu.Unlock()
	var tLocked time.Time
	if st.obs != nil {
		tLocked = time.Now()
		st.obs.lockWait.Observe(tLocked.Sub(t0).Seconds())
	}
	if !sv.active {
		if err := st.activate(video, sv); err != nil {
			return core.AdmitResult{}, err
		}
	}
	res, err := sv.sched.AdmitRequest(opts)
	if st.obs != nil {
		st.obs.admit.Observe(time.Since(tLocked).Seconds())
	}
	return res, err
}

// activate puts an idle video (sv.mu held) back on the slot grid and has it
// join its span's list, building its scheduler first on the video's first
// admission. Reading the slot and joining are one step under the list's lock,
// as bumping it and taking the joiners in are in advanceSpan, so a cold
// admission racing a tick lands wholly before or wholly after it.
func (st *Station) activate(video int, sv *stationVideo) error {
	if sv.sched == nil {
		sched, err := core.New(sv.cfg.core())
		if err != nil {
			return fmt.Errorf("station: video %d (%q): %w", video, sv.cfg.Name, err)
		}
		sv.sched = sched
	}
	l := sv.list
	l.mu.Lock()
	sv.sched.Skip(l.slot - sv.sched.CurrentSlot())
	l.joined = append(l.joined, video)
	l.mu.Unlock()
	sv.active = true
	st.active.Add(1)
	return nil
}

// slot reports the video's slot — its span's when idle; sv.mu is held.
func (sv *stationVideo) slot() int {
	if sv.active {
		return sv.sched.CurrentSlot()
	}
	sv.list.mu.Lock()
	defer sv.list.mu.Unlock()
	return sv.list.slot
}

// totals reports the video's admitted requests and scheduled instances, zero
// before its first admission; sv.mu is held.
func (sv *stationVideo) totals() (requests, instances int64) {
	if sv.sched == nil {
		return 0, 0
	}
	return sv.sched.Requests(), sv.sched.Instances()
}

// AdvanceSlot finishes the current slot of every video, span after span on
// the calling goroutine, and returns the reports of the slot that begins,
// indexed by video: final, since admissions place only after the current
// slot. The returned slice is owned by the caller, the Segments in it by the
// schedulers (read-only, unchanged until the next advance); steady-state
// drivers reuse one slice via AdvanceSlotInto.
func (st *Station) AdvanceSlot() []core.SlotReport {
	return st.AdvanceSlotInto(nil)
}

// AdvanceSlotInto is AdvanceSlot writing the reports into dst (grown when
// its capacity is below the catalogue size) so a steady-state driver advances
// without a per-tick allocation. Every entry is overwritten (an idle video
// reports the begun slot's number with no load). It returns dst resliced to
// the catalogue size.
func (st *Station) AdvanceSlotInto(dst []core.SlotReport) []core.SlotReport {
	if cap(dst) < len(st.videos) {
		dst = make([]core.SlotReport, len(st.videos))
	}
	dst = dst[:len(st.videos)]
	st.tickMu.Lock()
	defer st.tickMu.Unlock()
	st.reports = dst
	for i, sp := range st.spans {
		st.advanceSpan(i, sp[0], sp[1])
	}
	return dst
}

// advanceSpan retires the current slot of the span [lo, hi) and reports the
// slot it begins into st.reports: every entry gets the idle report and each
// active video, under its own lock, overwrites its own with its scheduler's
// new current slot, final because admissions place only after it. A video
// with nothing pending and no audience leaves the list instead; nothing
// pending includes the slot its last report carried, so every reader saw that
// report empty.
func (st *Station) advanceSpan(worker, lo, hi int) {
	l := &st.lists[worker]
	l.mu.Lock()
	l.slot++
	slot := l.slot
	l.active = append(l.active, l.joined...)
	l.joined = l.joined[:0]
	l.mu.Unlock()
	for v := lo; v < hi; v++ {
		st.reports[v] = core.SlotReport{Slot: slot}
	}
	keep := l.active[:0]
	for _, v := range l.active {
		sv := &st.videos[v]
		sv.mu.Lock()
		if !sv.audience && sv.sched.Pending() == 0 {
			sv.active = false
			st.active.Add(-1)
		} else {
			sv.sched.AdvanceSlot()
			st.reports[v] = sv.sched.Current()
			keep = append(keep, v)
		}
		sv.mu.Unlock()
	}
	l.active = keep
}

// NextLoads fills dst (grown as needed) with each video's scheduled
// instance count for its next transmission slot — the quantity admission
// control gates on. It returns dst.
func (st *Station) NextLoads(dst []int) []int {
	if cap(dst) < len(st.videos) {
		dst = make([]int, len(st.videos))
	}
	dst = dst[:len(st.videos)]
	for v := range st.videos {
		sv := &st.videos[v]
		sv.mu.Lock()
		dst[v] = 0
		if sv.sched != nil {
			dst[v] = sv.sched.LoadAt(sv.sched.CurrentSlot() + 1)
		}
		sv.mu.Unlock()
	}
	return dst
}

// Totals reports the station-wide admitted request and scheduled instance
// counts.
func (st *Station) Totals() (requests, instances int64) {
	for v := range st.videos {
		sv := &st.videos[v]
		sv.mu.Lock()
		r, i := sv.totals()
		sv.mu.Unlock()
		requests += r
		instances += i
	}
	return requests, instances
}

// StartClock launches the single clock goroutine, once per station. A tick,
// due at a grid point start + k·interval, runs before, if any, retires the
// current slot and begins the next (span by span, on the pool when there is
// more than one span) and hands the begun slot's reports to onTick, if any,
// on the clock goroutine. before runs while the current slot is still
// current: what it admits lands in that slot. It may admit but not advance.
// onTick may call EachActive but not Close, and must copy any reports it
// retains, as the clock reuses the slice and the segment lists are the
// schedulers'. Ticks an overrun made late run back to back; a wake
// maxCatchUp or more intervals late slips the grid instead, skipping every
// grid point passed, and the next tick reports its lag. The wall wait the
// clock opens is released by the clock goroutine on its way out, before
// Close returns.
func (st *Station) StartClock(interval time.Duration, before func(), onTick func([]core.SlotReport)) error {
	if interval <= 0 {
		return fmt.Errorf("%w: got %v", errBadSlotDuration, interval)
	}
	st.clockMu.Lock()
	defer st.clockMu.Unlock()
	if st.closed.Load() {
		return errClosed
	}
	if st.clock.Load() != nil {
		return errClockRunning
	}
	c := &slotClock{interval: interval, lag: obs.NewWindow(0)}
	st.clock.Store(c)
	if len(st.spans) > 1 {
		st.pool = startWorkers(st.spans)
	}
	wait, release := st.wait, func() {}
	if wait == nil {
		wait, release = wallWait()
	}
	st.clockWG.Add(1)
	go func() {
		defer st.clockWG.Done()
		defer release()
		// One report buffer serves every tick: onTick runs synchronously on
		// this goroutine, so it is never reused while borrowed.
		reports := make([]core.SlotReport, len(st.videos))
		start := st.now()
		var slipped time.Duration
		for k := 1; !st.closed.Load(); k++ {
			due := start.Add(time.Duration(k) * interval)
			lag := st.now().Sub(due)
			if lag < 0 {
				select {
				case <-st.done:
					return
				case <-wait(-lag):
				}
				lag = max(st.now().Sub(due), 0)
			}
			if lag >= maxCatchUp*interval {
				skip := int(lag / interval)
				k += skip // and k++: past every grid point <= now
				slipped = lag
				if st.obs != nil { // grid point k and the skip after it
					st.obs.clockSkipped.Add(float64(skip + 1))
				}
				continue
			}
			if slipped > 0 {
				lag, slipped = slipped, 0
			}
			c.lag.Observe(lag.Seconds())
			if st.obs != nil {
				st.obs.clockTicks.Inc()
			}
			if before != nil {
				before()
			}
			st.tickMu.Lock()
			st.reports = reports
			st.eachSpan(st.advanceFunc)
			st.tickMu.Unlock()
			if onTick != nil {
				onTick(reports)
			}
		}
	}()
	return nil
}

// timerWait is the clock's portable wall wait, on one reused time.Timer. An
// idle runtime wakes it only at the next whole millisecond of its poller's
// timeout, which is why Linux waits on a timerfd instead (wait_linux.go).
func timerWait() func(time.Duration) <-chan time.Time {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return func(d time.Duration) <-chan time.Time {
		t.Reset(d)
		return t.C
	}
}

// ClockStatus describes the clock goroutine's health.
type ClockStatus struct {
	// Running reports an active clock; IntervalSeconds its slot duration.
	Running         bool    `json:"running"`
	IntervalSeconds float64 `json:"interval_seconds"`
	// Ticks counts fanned-out slot ticks: Lag's lifetime Total.
	Ticks uint64 `json:"ticks"`
	// Lag is the rolling window over recent tick lags behind the slot grid.
	Lag obs.WindowSnapshot `json:"lag"`
}

// VideoStatus is one catalogue row of the operator snapshot: how far the
// video's schedule has advanced and its admission totals. The QoE pipeline
// joins client_miss_total{video} against these rows by name.
type VideoStatus struct {
	// Video is the station catalogue index; Name the configured name (the
	// wire-facing video ID for vodserver catalogues).
	Video int    `json:"video"`
	Name  string `json:"name"`
	// Slot is the video's current schedule slot; Requests and Instances are
	// its lifetime admission and transmission totals.
	Slot      int   `json:"slot"`
	Requests  int64 `json:"requests"`
	Instances int64 `json:"instances"`
}

// Status is one snapshot of the station for operators: the per-video rows,
// the per-stage rolling latency windows, and clock health.
type Status struct {
	Videos int `json:"videos"`
	// Active counts the videos a tick locks, advances and fans out.
	Active int `json:"active_videos"`
	// PerVideo lists every catalogue video; rows are in catalogue order.
	PerVideo []VideoStatus `json:"per_video"`
	// Stages maps the Stage* names to their rolling windows, in seconds
	// (empty when the station is uninstrumented).
	Stages map[string]obs.WindowSnapshot `json:"stages,omitempty"`
	Clock  ClockStatus                   `json:"clock"`
}

// Status assembles the operator snapshot behind /statusz. It takes each
// video's lock once (like Totals), so it never holds the clock up for longer
// than one video's row.
func (st *Station) Status() Status {
	s := Status{
		Videos:   len(st.videos),
		PerVideo: make([]VideoStatus, len(st.videos)),
	}
	for v := range st.videos {
		sv := &st.videos[v]
		sv.mu.Lock()
		row := VideoStatus{Video: v, Name: sv.cfg.Name, Slot: sv.slot()}
		row.Requests, row.Instances = sv.totals()
		sv.mu.Unlock()
		s.PerVideo[v] = row
	}
	s.Active = int(st.active.Load())
	if c := st.clock.Load(); c != nil {
		lag := c.lag.Snapshot()
		s.Clock = ClockStatus{
			Running:         !st.closed.Load(),
			IntervalSeconds: c.interval.Seconds(),
			Ticks:           lag.Total,
			Lag:             lag,
		}
	}
	if st.obs != nil {
		s.Stages = map[string]obs.WindowSnapshot{
			stageLockWait: st.obs.lockWait.Snapshot(),
			stageAdmit:    st.obs.admit.Snapshot(),
		}
	}
	return s
}

// Close marks the station closed — subsequent Admit and StartClock calls
// fail with errClosed — and stops the clock and its pool, waiting for them to
// exit (including any in-flight onTick). It is safe to call more than once.
func (st *Station) Close() {
	st.clockMu.Lock()
	defer st.clockMu.Unlock()
	if st.closed.Swap(true) {
		return
	}
	close(st.done)
	st.clockWG.Wait()
	if st.pool != nil {
		st.pool.close()
		st.pool = nil
	}
}

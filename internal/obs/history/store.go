// Package history is the retained-telemetry layer: a fixed-memory in-process
// time-series store that periodically scrapes an obs.Registry into per-series
// rings, and a flight recorder that dumps bounded diagnostic bundles when an
// alert fires.
//
// Every other observability surface in the repository (/metricsz, /statusz,
// /alertz, vodtop) is a live snapshot: by the time an operator looks, the
// history that explains a miss-rate alert is gone. The paper's evaluation is
// phrased entirely over time — bandwidth and waiting time as demand shifts —
// so the serving process itself retains the last stretch of every metric it
// exports and can answer range queries (/queryz) from memory.
//
// Memory is bounded by construction, not by luck: each series owns three
// fixed-capacity rings (raw scrape interval, 10s, 1m downsampling tiers),
// the per-series cost is known at registration, and a hard byte cap refuses
// new series rather than growing. Downsampling keeps the maximum of each
// bucket — spike-preserving for gauges and depths, and equal to "last value"
// for monotonic counters, so rates derived from downsampled counters stay
// correct.
//
// The package follows the obs idiom: stdlib-only imports (plus obs itself),
// nil-safe methods on every type, and zero-value configs selecting documented
// defaults.
package history

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"vodcast/internal/obs"
)

// Tier periods for the two downsampled rings. The raw tier runs at the
// configured scrape interval.
const (
	tier10Period = 10 * time.Second
	tier60Period = time.Minute
)

// pointsPerTier is each ring's fixed capacity. At the default 1s scrape
// interval the raw tier covers the last 6 minutes, the 10s tier the last
// hour, and the 1m tier the last 6 hours — enough to answer "what led up to
// this alert" without unbounded growth.
const pointsPerTier = 360

// Point is one retained sample: a unix timestamp in seconds and the value.
type Point struct {
	Unix  float64 `json:"unix"`
	Value float64 `json:"value"`
}

// Config parameterizes a Store. The zero value of every field selects a
// documented default.
type Config struct {
	// Samples is the scrape source, normally reg.Samples. Required.
	Samples func() []obs.Sample
	// Interval is the raw tier's period, the rate at which the owner calls
	// Scrape; <= 0 selects 1s.
	Interval time.Duration
	// MaxBytes caps resident ring memory. Once admitting another series
	// would exceed it, new series are refused (counted, not grown);
	// established series keep updating. Within one scrape families are
	// admitted smallest first, so a per-video family cannot starve the
	// server-wide totals or a small labelled family. <= 0 selects 8 MiB.
	MaxBytes int
	// Clock stamps scrapes; nil selects time.Now. Tests inject a manual
	// clock to make tier boundaries deterministic.
	Clock func() time.Time
}

// Store retains scraped metric history in fixed memory. All methods are safe
// for concurrent use; a nil *Store is valid and inert, so disabled history
// costs the caller one predictable branch.
type Store struct {
	samples  func() []obs.Sample
	interval time.Duration
	maxBytes int
	clock    func() time.Time

	mu            sync.Mutex
	series        map[string]*series
	bytes         int
	scrapes       uint64
	droppedSeries uint64
}

// series is one retained time series: three downsampling tiers keyed by the
// exposition identity Name+Labels.
type series struct {
	raw, t10, t60 ring
}

// ring is a fixed-capacity point ring with a pending downsample bucket.
// The raw tier has period == the scrape interval and no pending bucket
// (every scrape is pushed directly).
type ring struct {
	period time.Duration
	pts    []Point
	head   int // next write position
	n      int // live points

	// Pending bucket for downsampled tiers: the max seen in the bucket
	// that started at curStart, pushed when a scrape lands past its end.
	curStart time.Time
	curMax   float64
	curSet   bool
}

// SeriesCost is the resident-byte estimate charged per admitted series: three
// rings of pointsPerTier points (16 bytes each) plus map/key overhead.
// Exported so callers can size Config.MaxBytes in whole-series units.
const SeriesCost = 3*pointsPerTier*16 + 256

// New returns a store on cfg. It panics if cfg.Samples is nil: a store with
// no scrape source is a programming error, caught by the first test.
func New(cfg Config) *Store {
	if cfg.Samples == nil {
		panic("history: Config.Samples is required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 8 << 20
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Store{
		samples:  cfg.Samples,
		interval: cfg.Interval,
		maxBytes: cfg.MaxBytes,
		clock:    cfg.Clock,
		series:   make(map[string]*series),
	}
}

// Scrape performs one scrape pass: read every registry sample, then append
// each to its series rings. The server's telemetry loop calls it once per
// Config.Interval; tests call it directly after advancing their clock.
//
// The sample walk runs BEFORE the store lock is taken: GaugeFunc sources may
// read subsystems (alert state, QoE windows) whose own paths can reach back
// into the store via the flight recorder, and scraping outside the lock
// keeps that ordering acyclic.
func (s *Store) Scrape() {
	if s == nil {
		return
	}
	// Smallest families go first, ties by name. A family is every series
	// sharing a name, so one with a child per catalogue video is admitted
	// after every server-wide total and every small labelled family, and it
	// alone is cut short when the byte cap binds.
	families := make(map[string][]obs.Sample)
	var names []string
	for _, sm := range s.samples() {
		fam := families[sm.Name]
		if fam == nil {
			names = append(names, sm.Name)
		}
		families[sm.Name] = append(fam, sm)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := len(families[names[i]]), len(families[names[j]])
		return a < b || (a == b && names[i] < names[j])
	})
	now := s.clock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.scrapes++
	for _, name := range names {
		for _, sm := range families[name] {
			key := sm.Name + sm.Labels
			sr, ok := s.series[key]
			if !ok {
				if s.bytes+SeriesCost > s.maxBytes {
					s.droppedSeries++
					continue
				}
				sr = &series{
					raw: ring{period: s.interval},
					t10: ring{period: tier10Period},
					t60: ring{period: tier60Period},
				}
				s.series[key] = sr
				s.bytes += SeriesCost
			}
			sr.raw.push(Point{Unix: unix(now), Value: sm.Value})
			sr.t10.fold(now, sm.Value)
			sr.t60.fold(now, sm.Value)
		}
	}
}

// push appends a point, overwriting the oldest once the ring is full.
func (r *ring) push(p Point) {
	if r.pts == nil {
		r.pts = make([]Point, pointsPerTier)
	}
	r.pts[r.head] = p
	r.head = (r.head + 1) % len(r.pts)
	if r.n < len(r.pts) {
		r.n++
	}
}

// fold accumulates v into the bucket containing t, pushing the previous
// bucket's maximum once t crosses into a new one. Bucket points carry the
// bucket start time.
func (r *ring) fold(t time.Time, v float64) {
	start := t.Truncate(r.period)
	if r.curSet && start.After(r.curStart) {
		r.push(Point{Unix: unix(r.curStart), Value: r.curMax})
		r.curSet = false
	}
	if !r.curSet {
		r.curStart = start
		r.curMax = v
		r.curSet = true
		return
	}
	if v > r.curMax {
		r.curMax = v
	}
}

// points returns the ring's live points oldest-first, including the pending
// downsample bucket so a query sees data up to the latest scrape.
func (r *ring) points() []Point {
	out := make([]Point, 0, r.n+1)
	for i := 0; i < r.n; i++ {
		out = append(out, r.pts[(r.head-r.n+i+len(r.pts))%len(r.pts)])
	}
	if r.curSet {
		out = append(out, Point{Unix: unix(r.curStart), Value: r.curMax})
	}
	return out
}

// wrapped reports whether the ring has ever evicted a point.
func (r *ring) wrapped() bool {
	return r.pts != nil && r.n == len(r.pts)
}

// oldest returns the timestamp of the ring's oldest retained point and
// whether the ring holds any data.
func (r *ring) oldest() (float64, bool) {
	if r.n > 0 {
		return r.pts[(r.head-r.n+len(r.pts))%len(r.pts)].Unix, true
	}
	if r.curSet {
		return unix(r.curStart), true
	}
	return 0, false
}

// rawPoints returns what the raw ring of a listed series (series are never
// removed) retains, oldest first.
func (s *Store) rawPoints(name string) []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.series[name].raw.points()
}

// Query returns the series' points in [from, to], bucketed at step with the
// maximum per bucket and stamped with the bucket start. The tier is chosen
// automatically: the coarsest tier whose period does not exceed step, then
// escalated to a coarser one when the requested range starts before the
// finer tier's retention. A step below the scrape interval (or <= 0) reads
// the raw tier unbucketed. Unknown series return nil.
func (s *Store) Query(name string, from, to time.Time, step time.Duration) []Point {
	if s == nil || to.Before(from) {
		return nil
	}
	s.mu.Lock()
	sr, ok := s.series[name]
	if !ok {
		s.mu.Unlock()
		return nil
	}
	tiers := []*ring{&sr.raw, &sr.t10, &sr.t60}
	// Coarsest tier still at least as fine as the requested step.
	pick := 0
	for i, r := range tiers {
		if r.period <= step {
			pick = i
		}
	}
	// Escalate while the picked tier has evicted data the range needs and a
	// coarser tier reaches further back. A tier that never wrapped still
	// holds everything it ever saw, so there is nothing to escalate for.
	fromUnix := unix(from)
	for pick < len(tiers)-1 {
		if !tiers[pick].wrapped() {
			break
		}
		old, ok := tiers[pick].oldest()
		if ok && old <= fromUnix {
			break
		}
		coarserOld, coarserOK := tiers[pick+1].oldest()
		if !coarserOK || (ok && coarserOld >= old) {
			break
		}
		pick++
	}
	pts := tiers[pick].points()
	s.mu.Unlock()

	toUnix := unix(to)
	out := make([]Point, 0, len(pts))
	if step <= 0 || step <= s.interval {
		for _, p := range pts {
			if p.Unix >= fromUnix && p.Unix <= toUnix {
				out = append(out, p)
			}
		}
		return out
	}
	stepSec := step.Seconds()
	haveBucket := false
	var bucketStart, bucketMax float64
	for _, p := range pts {
		if p.Unix < fromUnix || p.Unix > toUnix {
			continue
		}
		start := fromUnix + float64(int((p.Unix-fromUnix)/stepSec))*stepSec
		if haveBucket && start > bucketStart {
			out = append(out, Point{Unix: bucketStart, Value: bucketMax})
			haveBucket = false
		}
		if !haveBucket {
			bucketStart, bucketMax, haveBucket = start, p.Value, true
			continue
		}
		if p.Value > bucketMax {
			bucketMax = p.Value
		}
	}
	if haveBucket {
		out = append(out, Point{Unix: bucketStart, Value: bucketMax})
	}
	return out
}

// Series returns every retained series identity (Name+Labels) in sorted
// order — the /queryz discovery listing.
func (s *Store) Series() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := make([]string, 0, len(s.series))
	for k := range s.series {
		out = append(out, k)
	}
	s.mu.Unlock()
	sort.Strings(out)
	return out
}

// Stats is the store's own health surface, rendered into /statusz and
// bundle metadata.
type Stats struct {
	Series        int    `json:"series"`
	Bytes         int    `json:"bytes"`
	MaxBytes      int    `json:"max_bytes"`
	Scrapes       uint64 `json:"scrapes"`
	DroppedSeries uint64 `json:"dropped_series"`
	IntervalMS    int64  `json:"interval_ms"`
}

// Stats reports retention counters. Nil-safe.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Series:        len(s.series),
		Bytes:         s.bytes,
		MaxBytes:      s.maxBytes,
		Scrapes:       s.scrapes,
		DroppedSeries: s.droppedSeries,
		IntervalMS:    s.interval.Milliseconds(),
	}
}

// unix converts a time to float seconds, the wire format of Point.
func unix(t time.Time) float64 {
	return float64(t.UnixNano()) / float64(time.Second)
}

// String implements fmt.Stringer for quick debugging.
func (s *Store) String() string {
	st := s.Stats()
	return fmt.Sprintf("history.Store{series=%d bytes=%d/%d scrapes=%d dropped=%d}",
		st.Series, st.Bytes, st.MaxBytes, st.Scrapes, st.DroppedSeries)
}

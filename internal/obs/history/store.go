// Package history is the retained-telemetry layer: a fixed-memory in-process
// time-series store that periodically scrapes an obs.Registry into per-series
// rings, and a flight recorder that dumps bounded diagnostic bundles when an
// alert fires.
//
// Every other observability surface in the repository (/metricsz, /statusz,
// vodtop) is a live snapshot: by the time an operator looks, the history that
// explains a miss-rate alert is gone. The paper's evaluation is
// phrased entirely over time — bandwidth and waiting time as demand shifts —
// so the serving process itself retains the last stretch of every metric it
// exports and can answer range queries (/queryz) from memory.
//
// Memory is bounded by construction, not by luck: each series owns one
// fixed-capacity ring of its last 360 scrapes, the per-series cost is known
// at registration, and a hard 8 MiB cap refuses new series rather than
// growing. A query coarser than the scrape interval buckets the raw points on
// read, keeping the maximum of each bucket — spike-preserving for gauges and
// depths, and equal to "last value" for monotonic counters, so rates derived
// from bucketed counters stay correct.
//
// The package follows the obs idiom: stdlib-only imports (plus obs itself)
// and zero-value configs selecting documented defaults.
package history

import (
	"sort"
	"sync"
	"time"

	"vodcast/internal/obs"
)

// ringPoints is each series' ring capacity: at the default 1s scrape interval
// the last 6 minutes, enough to answer "what led up to this alert" without
// unbounded growth.
const ringPoints = 360

// maxBytes caps resident ring memory. Once admitting another series would
// exceed it, new series are refused (counted, not grown); established series
// keep updating. Within one scrape families are admitted smallest first, so a
// per-video family cannot starve the server-wide totals or a small labelled
// family.
const maxBytes = 8 << 20

// seriesCost is the resident-byte estimate charged per admitted series: one
// ring of ringPoints points (16 bytes each) plus map/key overhead.
const seriesCost = ringPoints*16 + 256

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
	// Interval is the scrape period, the rate at which the owner calls
	// Scrape; <= 0 selects 1s.
	Interval time.Duration
	// Clock stamps scrapes; nil selects time.Now. Tests inject a manual
	// clock to make timestamps deterministic.
	Clock func() time.Time
}

// Store retains scraped metric history in fixed memory. All methods are safe
// for concurrent use.
type Store struct {
	samples  func() []obs.Sample
	interval time.Duration
	clock    func() time.Time

	mu            sync.Mutex
	series        map[string]*ring // keyed by the exposition identity Name+Labels
	bytes         int
	scrapes       uint64
	droppedSeries uint64
}

// ring is one retained time series: the last ringPoints scrapes.
type ring struct {
	pts  [ringPoints]Point
	head int // next write position
	n    int // live points
}

// New returns a store on cfg. It panics if cfg.Samples is nil: a store with
// no scrape source is a programming error, caught by the first test.
func New(cfg Config) *Store {
	if cfg.Samples == nil {
		panic("history: Config.Samples is required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Store{
		samples:  cfg.Samples,
		interval: cfg.Interval,
		clock:    cfg.Clock,
		series:   make(map[string]*ring),
	}
}

// Scrape performs one scrape pass: read every registry sample, then append
// each to its series ring. The server's telemetry loop calls it once per
// Config.Interval; tests call it directly after advancing their clock.
//
// The sample walk runs BEFORE the store lock is taken: GaugeFunc sources may
// read subsystems (alert state, QoE windows) whose own paths can reach back
// into the store via the flight recorder, and scraping outside the lock
// keeps that ordering acyclic.
func (s *Store) Scrape() {
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
	now := unix(s.clock())
	s.mu.Lock()
	defer s.mu.Unlock()
	s.scrapes++
	for _, name := range names {
		for _, sm := range families[name] {
			key := sm.Name + sm.Labels
			r, ok := s.series[key]
			if !ok {
				if s.bytes+seriesCost > maxBytes {
					s.droppedSeries++
					continue
				}
				r = new(ring)
				s.series[key] = r
				s.bytes += seriesCost
			}
			r.push(Point{Unix: now, Value: sm.Value})
		}
	}
}

// push appends a point, overwriting the oldest once the ring is full.
func (r *ring) push(p Point) {
	r.pts[r.head] = p
	r.head = (r.head + 1) % ringPoints
	if r.n < ringPoints {
		r.n++
	}
}

// points returns the ring's live points oldest-first.
func (r *ring) points() []Point {
	out := make([]Point, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.pts[(r.head-r.n+i+ringPoints)%ringPoints])
	}
	return out
}

// rawPoints returns what the ring of a listed series (series are never
// removed) retains, oldest first.
func (s *Store) rawPoints(name string) []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.series[name].points()
}

// Query returns the series' points in [from, to]. A step coarser than the
// scrape interval buckets them at step, anchored at from, keeping each
// bucket's maximum stamped with the bucket start: spike-preserving for gauges
// and depths, and equal to the last value for monotonic counters. A step at or
// below the interval (or <= 0) returns the points unbucketed. The ring holds
// the last ringPoints scrapes, so a range reaching further back returns what
// it retains. Unknown series return nil.
func (s *Store) Query(name string, from, to time.Time, step time.Duration) []Point {
	if to.Before(from) {
		return nil
	}
	s.mu.Lock()
	r, ok := s.series[name]
	if !ok {
		s.mu.Unlock()
		return nil
	}
	pts := r.points()
	s.mu.Unlock()

	fromUnix, toUnix := unix(from), unix(to)
	out := make([]Point, 0, len(pts))
	if step <= s.interval {
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

// Stats reports retention counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Series:        len(s.series),
		Bytes:         s.bytes,
		MaxBytes:      maxBytes,
		Scrapes:       s.scrapes,
		DroppedSeries: s.droppedSeries,
		IntervalMS:    s.interval.Milliseconds(),
	}
}

// unix converts a time to float seconds, the wire format of Point.
func unix(t time.Time) float64 {
	return float64(t.UnixNano()) / float64(time.Second)
}

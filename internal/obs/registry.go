// Package obs is the observability layer of the repository: a
// dependency-free metrics registry with Prometheus text exposition and a
// qlog-style structured event tracer for scheduler decisions.
//
// The paper's whole evaluation is phrased in observed quantities — per-slot
// bandwidth, peaks, waiting time — so every production-facing component
// (vodserver, the simulators) publishes those quantities through this
// package: counters and gauges for instantaneous state, rolling-window
// summaries for distributions, and a JSONL event stream that captures every
// heuristic decision of Figure 6 for offline replay and diffing.
//
// The package deliberately imports nothing beyond the standard library so
// that core scheduling code can feed it without dependency cycles.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// metricKind discriminates the exposition TYPE of a family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindSummary
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "summary"
	}
}

// Labels is one metric child's label set. Keys and values are exposed in
// sorted key order so exposition is deterministic.
type Labels map[string]string

// Registry holds metric families and renders them in the Prometheus text
// exposition format (version 0.0.4). All methods are safe for concurrent
// use. Metric registration panics on invalid or conflicting names: those are
// programming errors, caught by the first test that touches the registry.
type Registry struct {
	mu       sync.Mutex
	families []*family // registration order
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

type family struct {
	name string
	help string
	kind metricKind

	mu       sync.Mutex
	children []*child // creation order
	byKey    map[string]*child
}

type child struct {
	labels string // pre-rendered {k="v",...} or ""
	mu     sync.Mutex
	value  float64 // counter/gauge
	fn     func() float64
	win    *Window // summary
}

// ValidMetricName reports whether s is a legal Prometheus metric name. The
// registry enforces this at registration time (invalid names panic); the
// exported predicate lets lint checks and tests validate name inventories
// without re-implementing the charset.
func ValidMetricName(s string) bool { return validName(s, false) }

// validName matches the Prometheus metric and label name charset.
func validName(s string, label bool) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(!label && r == ':') || (i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// escapeLabelValue applies the exposition escaping rules for label values.
func escapeLabelValue(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp applies the exposition escaping rules for HELP text.
func escapeHelp(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// renderLabels serializes a label set as {k="v",...} in sorted key order,
// or "" for an empty set. Invalid label names panic.
func renderLabels(ls Labels) string {
	if len(ls) == 0 {
		return ""
	}
	keys := make([]string, 0, len(ls))
	for k := range ls {
		if !validName(k, true) {
			panic(fmt.Sprintf("obs: invalid label name %q", k))
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(ls[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// lookup returns the family with the given name, creating it on first use
// and panicking when a previous registration disagrees on kind.
func (r *Registry) lookup(name, help string, kind metricKind) *family {
	if !validName(name, false) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, kind, f.kind))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, byKey: make(map[string]*child)}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// childFor returns the child with the given label set, creating it on first
// use.
func (f *family) childFor(ls Labels) *child {
	key := renderLabels(ls)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.byKey[key]; ok {
		return c
	}
	c := &child{labels: key}
	f.children = append(f.children, c)
	f.byKey[key] = c
	return c
}

// Counter is a monotonically non-decreasing metric.
type Counter struct{ c *child }

// Counter returns the unlabelled counter with the given name, registering it
// on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterWith(name, help, nil)
}

// CounterWith returns the counter child with the given label set.
func (r *Registry) CounterWith(name, help string, ls Labels) *Counter {
	return &Counter{c: r.lookup(name, help, kindCounter).childFor(ls)}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter. Negative deltas panic: counters only go up.
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		panic("obs: counter decreased")
	}
	c.c.mu.Lock()
	c.c.value += delta
	c.c.mu.Unlock()
}

// Value reports the current total.
func (c *Counter) Value() float64 {
	c.c.mu.Lock()
	defer c.c.mu.Unlock()
	return c.c.value
}

// Gauge is a metric that can go up and down.
type Gauge struct{ c *child }

// GaugeWith returns the gauge child with the given label set (nil for the
// unlabelled gauge), registering its family on first use.
func (r *Registry) GaugeWith(name, help string, ls Labels) *Gauge {
	return &Gauge{c: r.lookup(name, help, kindGauge).childFor(ls)}
}

// GaugeFunc registers a gauge whose value is read from fn at exposition
// time, for quantities the owner already tracks (uptime, live subscriber
// counts).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	c := r.lookup(name, help, kindGauge).childFor(nil)
	c.mu.Lock()
	c.fn = fn
	c.mu.Unlock()
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	g.c.mu.Lock()
	g.c.value = v
	g.c.mu.Unlock()
}

// Value reports the current gauge value.
func (g *Gauge) Value() float64 {
	g.c.mu.Lock()
	defer g.c.mu.Unlock()
	if g.c.fn != nil {
		return g.c.fn()
	}
	return g.c.value
}

// Window returns the unlabelled summary with the given name, registering it
// on first use: a rolling window over the last size observations (size <= 0
// selects defaultWindowSize) that exposes its p50/p95/p99 and its lifetime
// _sum and _count. A re-registration returns the existing window.
func (r *Registry) Window(name, help string, size int) *Window {
	return r.WindowWith(name, help, size, nil)
}

// WindowWith returns the summary child with the given label set.
func (r *Registry) WindowWith(name, help string, size int, ls Labels) *Window {
	c := r.lookup(name, help, kindSummary).childFor(ls)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.win == nil {
		c.win = NewWindow(size)
	}
	return c.win
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return fmt.Sprintf("%g", v)
}

// Names returns every registered family name in sorted order, the inventory
// the metric-name lint check walks.
func (r *Registry) Names() []string {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for _, f := range r.families {
		names = append(names, f.name)
	}
	r.mu.Unlock()
	sort.Strings(names)
	return names
}

// Sample is one scalar series value from a structured registry walk: the
// series name, the pre-rendered label set and the current value. It is the
// scrape unit of the history store — a name+labels pair identifies one
// time series.
type Sample struct {
	// Name is the series name: the family name for counters, gauges and a
	// summary's quantile series, or the family name suffixed _sum / _count
	// for a summary's lifetime totals.
	Name string
	// Labels is the pre-rendered {k="v",...} label set, or "" for the
	// unlabelled child — exactly the byte string the text exposition uses,
	// so Name+Labels is a stable series identity across both surfaces. A
	// summary's quantile series carry quantile="0.5|0.95|0.99" last.
	Labels string
	// Value is the current sample value (GaugeFunc sources are read here).
	Value float64
}

// Samples walks every registered family and returns one Sample per scalar
// series, families in sorted name order and children in sorted label order —
// the order and values the text exposition renders, line for line. It is the
// structured counterpart of WritePrometheus for scrapers that retain values
// (the history store) instead of re-parsing the text format.
func (r *Registry) Samples() []Sample {
	families := r.sortedFamilies()
	out := make([]Sample, 0, len(families))
	for _, f := range families {
		for _, c := range f.sortedChildren() {
			out = f.appendSamples(out, c)
		}
	}
	return out
}

// appendSamples appends one child's series: its value for a counter or gauge;
// for a summary the three quantiles over its window, then the lifetime sum and
// count of every observation it ever took.
func (f *family) appendSamples(out []Sample, c *child) []Sample {
	c.mu.Lock()
	value, win := c.value, c.win
	if c.fn != nil {
		value = c.fn()
	}
	c.mu.Unlock()
	if f.kind != kindSummary {
		return append(out, Sample{Name: f.name, Labels: c.labels, Value: value})
	}
	snap := win.Snapshot()
	quantile := func(q string) string {
		if c.labels == "" {
			return `{quantile="` + q + `"}`
		}
		return c.labels[:len(c.labels)-1] + `,quantile="` + q + `"}`
	}
	return append(out,
		Sample{Name: f.name, Labels: quantile("0.5"), Value: snap.P50},
		Sample{Name: f.name, Labels: quantile("0.95"), Value: snap.P95},
		Sample{Name: f.name, Labels: quantile("0.99"), Value: snap.P99},
		Sample{Name: f.name + "_sum", Labels: c.labels, Value: snap.sum},
		Sample{Name: f.name + "_count", Labels: c.labels, Value: float64(snap.Total)})
}

// sortedFamilies snapshots the family list in sorted name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	families := make([]*family, len(r.families))
	copy(families, r.families)
	r.mu.Unlock()
	sort.Slice(families, func(i, j int) bool { return families[i].name < families[j].name })
	return families
}

// sortedChildren snapshots one family's children in sorted label order.
func (f *family) sortedChildren() []*child {
	f.mu.Lock()
	children := make([]*child, len(f.children))
	copy(children, f.children)
	f.mu.Unlock()
	sort.Slice(children, func(i, j int) bool { return children[i].labels < children[j].labels })
	return children
}

// WritePrometheusPrefix renders the registered families whose name starts
// with prefix ("" keeps everything) in the text exposition format: a HELP and
// TYPE line per family, then one sample line per child (summaries expand to
// three quantile lines plus _sum and _count). Families render in sorted name
// order and children in sorted label order, never in registration (or
// map-iteration) order, so two scrapes of identical state are byte-identical
// and diffs between deployments are meaningful. A scraper that wants one
// family subset — the vod_* serving counters, say, without the go_ runtime
// gauges — filters server-side instead of downloading and discarding the
// rest.
func (r *Registry) WritePrometheusPrefix(w io.Writer, prefix string) error {
	for _, f := range r.sortedFamilies() {
		if prefix != "" && !strings.HasPrefix(f.name, prefix) {
			continue
		}
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		var lines []Sample
		for _, c := range f.sortedChildren() {
			lines = f.appendSamples(lines, c)
		}
		for _, s := range lines {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", s.Name, s.Labels, formatValue(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

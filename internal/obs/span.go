package obs

import (
	"encoding/json"
	"io"
	"math/rand"
	"sync"
	"time"
)

// This file implements span-based pipeline tracing: where the qlog tracer
// (trace.go) records WHAT the scheduler decided, spans record WHERE an
// admission spent its time on the way to that decision — lock wait,
// scheduler service, fan-out. A span is a named interval with a parent, so
// one admitted request becomes a small tree from the server's admit handler
// down through the station to the first broadcast byte.
//
// Spans are sampled at the root: a sampler with a fixed seed keeps 1 in
// SampleEvery request trees (children inherit the decision), so tracing cost
// scales with the sample rate, not the request rate, and the same arrival
// sequence reproduces the same sampled set — traces stay diffable across
// runs the way the qlog stream is.

// SpanRecord is one finished span as exported to the JSONL sink and the
// /statusz ring.
type SpanRecord struct {
	// ID is unique within the tracer; Parent is 0 for roots.
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Name is the pipeline stage ("admit", "station_admit", "first_byte").
	Name string `json:"name"`
	// Start is the trace clock at span start (seconds since the tracer
	// started); Dur is the span length in seconds.
	Start float64 `json:"start"`
	Dur   float64 `json:"dur_s"`
	// Video attributes the span in multi-video deployments.
	Video uint32 `json:"video,omitempty"`
	// Attrs carries free-form context (reject reasons, batch sizes).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// SpanStats summarizes a tracer's lifetime activity.
type SpanStats struct {
	// Roots counts root spans offered to the sampler; Sampled counts those
	// kept. Finished counts recorded span ends across the whole tree.
	Roots    uint64 `json:"roots"`
	Sampled  uint64 `json:"sampled"`
	Finished uint64 `json:"finished"`
	// SampleEvery echoes the configured sampling period.
	SampleEvery int `json:"sample_every"`
}

// SpanTracer samples, records and exports spans. It is safe for concurrent
// use.
type SpanTracer struct {
	mu      sync.Mutex
	enc     *json.Encoder
	err     error
	ring    []SpanRecord
	next    int
	clock   func() float64
	started time.Time
	rng     *rand.Rand
	every   int
	nextID  uint64
	stats   SpanStats
}

// spanRingSize bounds the finished spans a SpanTracer keeps for /spanz.
const spanRingSize = 256

// NewSpanTracer returns a tracer keeping the most recent spanRingSize
// finished spans and streaming every finished span to w as JSONL when w is
// non-nil. sampleEvery keeps 1 in sampleEvery root spans (<= 1 keeps
// everything); the sampler's seed is fixed, so the same arrival sequence
// yields the same sampled set.
func NewSpanTracer(w io.Writer, sampleEvery int) *SpanTracer {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	t := &SpanTracer{
		ring:    make([]SpanRecord, 0, spanRingSize),
		started: time.Now(),
		rng:     rand.New(rand.NewSource(0)),
		every:   sampleEvery,
	}
	t.stats.SampleEvery = sampleEvery
	if w != nil {
		t.enc = json.NewEncoder(w)
	}
	return t
}

// setClock replaces the wall clock with fn (tests install simulated time so
// span timestamps are deterministic).
func (t *SpanTracer) setClock(fn func() float64) {
	t.mu.Lock()
	t.clock = fn
	t.mu.Unlock()
}

// now reads the trace clock. Caller holds t.mu.
func (t *SpanTracer) now() float64 {
	if t.clock != nil {
		return t.clock()
	}
	return time.Since(t.started).Seconds()
}

// Span is one in-flight interval of the admission pipeline. A nil *Span is
// valid: every method is a no-op, so unsampled trees cost nothing beyond the
// root's sampling decision.
type Span struct {
	t      *SpanTracer
	id     uint64
	parent uint64
	name   string
	start  float64
	video  uint32
	attrs  map[string]string
}

// StartSpan opens a root span, applying the sampling decision: an unsampled
// root returns nil and its whole tree vanishes.
func (t *SpanTracer) StartSpan(name string) *Span {
	t.mu.Lock()
	t.stats.Roots++
	if t.every > 1 && t.rng.Intn(t.every) != 0 {
		t.mu.Unlock()
		return nil
	}
	t.stats.Sampled++
	t.nextID++
	s := &Span{t: t, id: t.nextID, name: name, start: t.now()}
	t.mu.Unlock()
	return s
}

// Child opens a sub-span of s, inheriting its video attribution.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	t := s.t
	t.mu.Lock()
	t.nextID++
	c := &Span{t: t, id: t.nextID, parent: s.id, name: name, start: t.now(), video: s.video}
	t.mu.Unlock()
	return c
}

// ID returns the span's tracer-unique identifier, 0 for a nil (unsampled)
// span. Wire trace propagation carries this across the connection so the
// client's side of the session can be recorded as children of the server's
// admit span.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Now reads the trace clock (seconds since the tracer started). Report
// ingest uses it to back-date client-side spans whose durations arrive after
// the fact.
func (t *SpanTracer) Now() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.now()
}

// RecordChild records an already-finished span under parent. It exists for
// the client QoE loop: the client measures its session and ships the numbers
// in a ClientReport, and the server synthesizes the corresponding spans here
// — same ring, same sink, same trace tree as locally-started spans. A parent
// of 0 records a root. Returns the new span's ID.
func (t *SpanTracer) RecordChild(parent uint64, name string, start, dur float64, video uint32, attrs map[string]string) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	rec := SpanRecord{
		ID: t.nextID, Parent: parent, Name: name,
		Start: start, Dur: dur, Video: video, Attrs: attrs,
	}
	t.stats.Finished++
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, rec)
	} else {
		t.ring[t.next] = rec
		t.next = (t.next + 1) % cap(t.ring)
	}
	if t.enc != nil && t.err == nil {
		t.err = t.enc.Encode(rec)
	}
	return rec.ID
}

// SetVideo attributes the span to a catalogue video.
func (s *Span) SetVideo(video uint32) {
	if s != nil {
		s.video = video
	}
}

// SetAttr attaches free-form context to the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]string, 2)
	}
	s.attrs[key] = value
}

// End closes the span and records it. End is idempotent; a second call is a
// no-op.
func (s *Span) End() {
	if s == nil || s.t == nil {
		return
	}
	t := s.t
	s.t = nil
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := SpanRecord{
		ID: s.id, Parent: s.parent, Name: s.name,
		Start: s.start, Dur: t.now() - s.start,
		Video: s.video, Attrs: s.attrs,
	}
	t.stats.Finished++
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, rec)
	} else {
		t.ring[t.next] = rec
		t.next = (t.next + 1) % cap(t.ring)
	}
	if t.enc != nil && t.err == nil {
		t.err = t.enc.Encode(rec)
	}
}

// Recent returns up to n of the most recently finished spans, oldest first.
// n <= 0 means everything the ring holds.
func (t *SpanTracer) Recent(n int) []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	size := len(t.ring)
	if n <= 0 || n > size {
		n = size
	}
	out := make([]SpanRecord, 0, n)
	start := 0
	if size == cap(t.ring) {
		start = t.next
	}
	for i := size - n; i < size; i++ {
		out = append(out, t.ring[(start+i)%size])
	}
	return out
}

// Stats reports the tracer's lifetime sampling and completion counts.
func (t *SpanTracer) Stats() SpanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

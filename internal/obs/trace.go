package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// This file implements the qlog-style event tracer: a structured, replayable
// record of every scheduling decision, in the spirit of the qlog drafts for
// QUIC and the qlogABR cross-layer work — one JSON object per line, stamped
// with a monotonic trace clock, buffered in a bounded ring (Recent) and
// optionally streamed to a JSONL sink for offline analysis and diffing.

// Event types. Every event carries the slot it refers to; decision events
// additionally carry the segment, its feasible window and the load of the
// chosen slot, so a trace alone reconstructs the Figure 6 heuristic's view.
const (
	// EventAdmit records one admitted request (From == 1).
	EventAdmit = "admit"
	// EventResume records one admitted interactive resume (From > 1).
	EventResume = "resume"
	// EventSlotDecision records one per-segment placement decision: the
	// chosen serving slot, the feasible window [WindowLo, WindowHi], the
	// chosen slot's resulting load, and whether an existing instance was
	// shared.
	EventSlotDecision = "slot_decision"
	// EventInstanceStart records a newly scheduled segment instance.
	EventInstanceStart = "instance_start"
	// EventInstanceStop records a scheduled instance leaving the schedule:
	// its slot finished transmitting.
	EventInstanceStop = "instance_stop"
	// EventSlotRetire records a finished slot with its final load, the
	// per-slot bandwidth series of Figures 7-8.
	EventSlotRetire = "slot_retire"
)

// Event is one trace record. The zero value of every optional field is
// omitted from the JSONL encoding to keep traces diffable and compact.
type Event struct {
	// T is the trace clock: seconds since the trace started (wall time), or
	// simulated seconds when the owner installed a simulation clock.
	T float64 `json:"t"`
	// Type is one of the Event* constants.
	Type string `json:"type"`
	// Video identifies the video in multi-video deployments.
	Video uint32 `json:"video,omitempty"`
	// Slot is the slot the event refers to: the admission slot for
	// admit/resume, the chosen serving slot for decisions and instances,
	// the retired slot for stops and retires.
	Slot int `json:"slot,omitempty"`
	// Segment is the 1-based segment id for per-segment events.
	Segment int `json:"segment,omitempty"`
	// Load is the instance count of the slot after the event.
	Load int `json:"load,omitempty"`
	// From is the first consumed segment of an admit/resume (1 = full
	// viewing).
	From int `json:"from,omitempty"`
	// WindowLo and WindowHi bound the feasible window of a decision.
	WindowLo int `json:"window_lo,omitempty"`
	WindowHi int `json:"window_hi,omitempty"`
	// Shared reports that a decision reused an already-scheduled instance.
	Shared bool `json:"shared,omitempty"`
	// Placed is the number of new instances an admit/resume scheduled.
	Placed int `json:"placed,omitempty"`
}

// Tracer records events into a bounded ring buffer and, when constructed
// with a sink, streams them as JSONL. It is safe for concurrent use.
type Tracer struct {
	mu      sync.Mutex
	enc     *json.Encoder
	err     error
	ring    []Event
	next    int
	total   uint64
	clock   func() float64
	started time.Time
}

// DefaultRingSize bounds the live event buffer when the owner does not
// choose one.
const DefaultRingSize = 256

// NewTracer returns a tracer keeping the most recent ringSize events
// (ringSize <= 0 selects DefaultRingSize) and streaming every event to w as
// JSONL when w is non-nil. The trace clock starts at zero.
func NewTracer(w io.Writer, ringSize int) *Tracer {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	t := &Tracer{ring: make([]Event, 0, ringSize), started: time.Now()}
	if w != nil {
		t.enc = json.NewEncoder(w)
	}
	return t
}

// SetClock replaces the wall clock with fn (simulations install their
// simulated time so traces are deterministic and diffable across runs).
func (t *Tracer) SetClock(fn func() float64) {
	t.mu.Lock()
	t.clock = fn
	t.mu.Unlock()
}

// emit stamps ev with the trace clock and records it. Encoding errors are
// latched in Err rather than returned: tracing must never fail the traced
// system.
func (t *Tracer) emit(ev Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.clock != nil {
		ev.T = t.clock()
	} else {
		ev.T = time.Since(t.started).Seconds()
	}
	t.total++
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, ev)
	} else {
		t.ring[t.next] = ev
		t.next = (t.next + 1) % cap(t.ring)
	}
	if t.enc != nil && t.err == nil {
		t.err = t.enc.Encode(ev)
	}
}

// Recent returns up to n of the most recent events, oldest first. n <= 0
// means everything the ring holds.
func (t *Tracer) Recent(n int) []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	size := len(t.ring)
	if n <= 0 || n > size {
		n = size
	}
	out := make([]Event, 0, n)
	// The ring is ordered oldest-first starting at next when full, at 0
	// while still filling.
	start := 0
	if size == cap(t.ring) {
		start = t.next
	}
	for i := size - n; i < size; i++ {
		out = append(out, t.ring[(start+i)%size])
	}
	return out
}

// Total reports how many events were emitted over the tracer's lifetime
// (including those the ring has since evicted).
func (t *Tracer) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Err reports the first sink encoding error, if any.
func (t *Tracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// SchedObserver adapts a Tracer to the scheduler's Observer hook. Its method
// set matches vodcast/internal/core.Observer structurally, so this package
// stays free of scheduler dependencies while core stays free of encoding
// dependencies.
type SchedObserver struct {
	// Video stamps every event in multi-video deployments.
	Video uint32
	// T receives the events.
	T *Tracer
}

// ObserveAdmit emits an admit (or resume, when from > 1) event.
func (o SchedObserver) ObserveAdmit(slot, from, placed int) {
	typ := EventAdmit
	if from > 1 {
		typ = EventResume
	}
	o.T.emit(Event{Type: typ, Video: o.Video, Slot: slot, From: from, Placed: placed})
}

// ObserveDecision emits a slot_decision event and, for decisions that
// scheduled a new instance, the matching instance_start.
func (o SchedObserver) ObserveDecision(reqSlot, segment, slot, windowLo, windowHi, load int, shared bool) {
	o.T.emit(Event{
		Type: EventSlotDecision, Video: o.Video, Slot: slot, Segment: segment,
		Load: load, WindowLo: windowLo, WindowHi: windowHi, Shared: shared,
	})
	if !shared {
		o.T.emit(Event{Type: EventInstanceStart, Video: o.Video, Slot: slot, Segment: segment, Load: load})
	}
}

// ObserveRetire emits instance_stop events for every transmitted segment
// (when the scheduler tracks them) followed by the slot_retire carrying the
// slot's final load.
func (o SchedObserver) ObserveRetire(slot, load int, segments []int) {
	for _, seg := range segments {
		o.T.emit(Event{Type: EventInstanceStop, Video: o.Video, Slot: slot, Segment: seg})
	}
	o.T.emit(Event{Type: EventSlotRetire, Video: o.Video, Slot: slot, Load: load})
}

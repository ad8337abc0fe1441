// Package fanout is the zero-copy broadcast data plane: each (video, slot)
// pair is serialized exactly once into a shared, immutable, ref-counted
// Frame, and every subscriber sharing the slot receives a reference to the
// same bytes through its per-connection write Ring. The package exists so
// the server's per-slot cost scales with the schedule (DHB's defining
// property) instead of the audience: encoding is O(instances), delivery is
// O(subscribers) pointer pushes, and the steady state allocates nothing.
//
// Lifecycle contract: Encoder.EncodeSlot returns a Frame holding one
// reference owned by the caller. The caller Retains before every Ring.Push
// and Releases when a push fails; connection writers Release after the
// frame's bytes have been written (never before — the backing array returns
// to a sync.Pool and would be scribbled over mid-write), and so does the
// ring after a frame it wrote itself for a parked consumer. When the count
// reaches zero the frame recycles. The original bytes.Buffer encoding is
// kept in reference_test.go as the executable spec; the differential test
// pins the two paths to byte-identical wire output.
package fanout

import (
	"sync"
	"sync/atomic"
)

// Frame is one encoded broadcast slot: every Segment frame of the slot
// followed by its SlotEnd, ready to be written to any subscriber verbatim.
// The bytes are immutable once EncodeSlot returns; sharing is managed by
// the reference count.
type Frame struct {
	data         []byte
	slot         int
	payloadBytes int64
	refs         atomic.Int64
	pool         *Pool
}

// Slot returns the absolute slot index the frame carries.
func (f *Frame) Slot() int { return f.slot }

// Bytes returns the encoded wire bytes. Callers must treat the slice as
// read-only and must hold a reference for as long as they use it.
func (f *Frame) Bytes() []byte { return f.data }

// PayloadBytes returns the total segment payload size carried by the frame,
// excluding wire framing — the quantity the broadcast-bytes counters track.
func (f *Frame) PayloadBytes() int64 { return f.payloadBytes }

// Retain adds a reference. Call it before handing the frame to another
// owner (a ring push); every Retain must be paired with exactly one Release.
func (f *Frame) Retain() { f.refs.Add(1) }

// Release drops one reference; the last release returns the frame to its
// pool for reuse. Releasing more times than retained is a bug and panics
// rather than silently corrupting a recycled buffer.
func (f *Frame) Release() {
	switch n := f.refs.Add(-1); {
	case n == 0:
		if f.pool != nil {
			f.pool.put(f)
		}
	case n < 0:
		panic("fanout: Release of already-freed frame")
	}
}

// refsForTest exposes the live count to the package tests.
func (f *Frame) refsForTest() int64 { return f.refs.Load() }

// Pool recycles frames so the steady-state broadcast path allocates
// nothing: after warm-up every EncodeSlot reuses a frame whose backing
// array already fits the slot. It counts the frames it has handed out and
// not got back, so a reference never released shows as a leak.
type Pool struct {
	p   sync.Pool
	out atomic.Int64
}

// NewPool returns an empty frame pool.
func NewPool() *Pool { return &Pool{} }

// get returns a frame holding one reference, with an empty (but
// capacity-preserving) byte slice.
func (p *Pool) get(slot int) *Frame {
	f, _ := p.p.Get().(*Frame)
	if f == nil {
		f = &Frame{pool: p}
	}
	f.slot = slot
	f.data = f.data[:0]
	f.payloadBytes = 0
	f.refs.Store(1)
	p.out.Add(1)
	return f
}

func (p *Pool) put(f *Frame) {
	p.out.Add(-1)
	f.data = f.data[:0]
	p.p.Put(f)
}

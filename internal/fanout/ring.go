package fanout

import "sync"

// Ring is one subscriber's write queue: a FIFO of frame references pushed by
// the broadcast clock and batch-drained by the connection's writer
// goroutine. Pushes never block and never fail for lack of room — the
// queue grows by append, and what bounds it is the subscription: the
// producer closes the ring at the subscriber's last slot, and the writer's
// own deadline ends a reader that falls behind. The drain side blocks until
// at least one frame or closure arrives and takes everything available in
// one call, which is what lets the writer coalesce frames into a single
// vectored write.
//
// Reference ownership: a successful Push transfers one reference to the
// ring; PopAll transfers the queued references to the consumer, which must
// Release each frame after writing it. Close and Drop may race with a
// concurrent PopAll; Drop releases whatever is still queued.
type Ring struct {
	mu     sync.Mutex
	ready  sync.Cond
	buf    []*Frame
	closed bool
}

// NewRing returns an empty ring; capacity is a hint sizing its initial
// backing array (the most frames the caller expects to queue at once).
func NewRing(capacity int) *Ring {
	r := &Ring{buf: make([]*Frame, 0, max(capacity, 1))}
	r.ready.L = &r.mu
	return r
}

// Push enqueues one frame reference without blocking and returns the
// post-push queue depth. It returns ok=false — and takes no ownership, so
// the caller must Release — only when the ring is already closed. The
// depth rides along so the fan-out's ring-depth watermark costs no second
// lock acquisition per subscriber per tick.
func (r *Ring) Push(f *Frame) (depth int, ok bool) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return 0, false
	}
	r.buf = append(r.buf, f)
	depth = len(r.buf)
	if depth == 1 {
		r.ready.Signal()
	}
	r.mu.Unlock()
	return depth, true
}

// PopAll blocks until the ring has frames or is closed, then appends every
// queued frame to dst (reusing its capacity) and returns the extended slice
// plus ok=false once the ring is closed. A single call can deliver the
// final frames and report closure together; after ok=false no further
// frames will ever arrive. The consumer owns the returned references.
func (r *Ring) PopAll(dst []*Frame) ([]*Frame, bool) {
	r.mu.Lock()
	for len(r.buf) == 0 && !r.closed {
		r.ready.Wait()
	}
	dst = append(dst, r.buf...)
	clear(r.buf)
	r.buf = r.buf[:0]
	ok := !r.closed
	r.mu.Unlock()
	return dst, ok
}

// Close marks the ring finished from the producer side: queued frames are
// still delivered, subsequent pushes fail, and the consumer's next PopAll
// observes closure. Idempotent.
func (r *Ring) Close() {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		r.ready.Signal()
	}
	r.mu.Unlock()
}

// Drop closes the ring because its consumer is gone: every queued frame is
// released (it will never be written). Idempotent, and safe alongside a
// concurrent PopAll or after a Close.
func (r *Ring) Drop() {
	r.mu.Lock()
	r.closed = true
	for _, f := range r.buf {
		f.Release()
	}
	clear(r.buf)
	r.buf = r.buf[:0]
	r.ready.Signal()
	r.mu.Unlock()
}

// Depth returns the number of frames currently queued.
func (r *Ring) Depth() int {
	r.mu.Lock()
	n := len(r.buf)
	r.mu.Unlock()
	return n
}

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
// A consumer that drains with Park lends the producer its Writer while it
// waits with nothing queued: a Push then writes the frame itself, under the
// ring's lock, and the consumer is not woken at all. Only a frame the
// Writer could not finish is queued, with the prefix it did send, so the
// consumer wakes to finish it and to carry any backlog. Either way a frame
// is written only once nothing is queued ahead of it, so bytes leave in
// push order.
//
// Reference ownership: a successful Push transfers one reference to the
// ring; PopAll and Park transfer the queued references to the consumer,
// which must Release each frame after writing it, and a frame the Writer
// finished is released by the ring. Close and Drop may race with a
// concurrent PopAll or Park; Drop releases whatever is still queued.
type Ring struct {
	mu    sync.Mutex
	ready sync.Cond
	buf   []*Frame
	// sent is how many bytes of buf[0] a Writer already wrote.
	sent int
	// parked is the Writer of a consumer blocked in Park with nothing
	// queued, nil otherwise.
	parked Writer
	closed bool
}

// Writer is a consumer's direct path to its connection, lent to the producer
// while the consumer is parked (see Park). WriteDirect runs under the ring's
// lock on the producer's goroutine and must not block: it writes what it can
// of f without waiting and reports how many bytes went out and whether f is
// done with — written whole, or not to be written at all. A frame it did not
// finish is queued with those bytes recorded as sent.
type Writer interface {
	WriteDirect(f *Frame) (sent int, done bool)
}

// NewRing returns an empty ring; capacity is a hint sizing its initial
// backing array (the most frames the caller expects to queue at once).
func NewRing(capacity int) *Ring {
	r := &Ring{buf: make([]*Frame, 0, max(capacity, 1))}
	r.ready.L = &r.mu
	return r
}

// Push hands one frame reference to the ring without blocking and returns
// the post-push queue depth. When the consumer is parked with nothing
// queued, the frame goes to its Writer first: a finished frame is released
// and the depth is 0; an unfinished one is queued and wakes the consumer.
// Push returns ok=false — and takes no ownership, so the caller must
// Release — only when the ring is already closed. The depth rides along so
// the fan-out's ring-depth watermark costs no second lock acquisition per
// subscriber per tick.
func (r *Ring) Push(f *Frame) (depth int, ok bool) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return 0, false
	}
	if r.parked != nil && len(r.buf) == 0 {
		sent, done := r.parked.WriteDirect(f)
		if done {
			r.mu.Unlock()
			f.Release()
			return 0, true
		}
		r.sent = sent
		r.parked = nil
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
	dst, _, ok := r.Park(dst, nil)
	return dst, ok
}

// Park is PopAll for a consumer that lets the producer write for it: while
// it blocks with nothing queued, w (when non-nil) is lent to Push. It also
// returns how many leading bytes of the first returned frame w already
// wrote, which the consumer must skip. w is never called once Park returns,
// until the next Park.
func (r *Ring) Park(dst []*Frame, w Writer) (frames []*Frame, sent int, ok bool) {
	r.mu.Lock()
	for len(r.buf) == 0 && !r.closed {
		r.parked = w
		r.ready.Wait()
	}
	r.parked = nil
	dst = append(dst, r.buf...)
	sent, r.sent = r.sent, 0
	clear(r.buf)
	r.buf = r.buf[:0]
	ok = !r.closed
	r.mu.Unlock()
	return dst, sent, ok
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
	r.sent = 0
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

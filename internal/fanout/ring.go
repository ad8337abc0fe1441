package fanout

import "sync"

// Ring is one subscriber's write queue: a FIFO of frame references handed
// over by the broadcast clock and batch-drained by the connection's writer
// goroutine. Handing over never blocks and never fails for lack of room —
// the queue grows by append, and what bounds it is the subscription: the
// producer closes the ring at the subscriber's last slot, and the writer's
// own deadline ends a reader that falls behind. The drain side blocks until
// a frame is due or the ring closes and then takes everything queued in one
// call, which is what lets the writer coalesce frames into a single
// vectored write.
//
// A frame is queued in one of two ways. Push makes it due, and with it
// every frame queued ahead. Hold queues it without making it due, for a
// frame whose deadline leaves room to wait: it leaves with the next Push,
// or when Flush makes the held frames due without adding one. A consumer
// that keeps up therefore gets one write per Push or Flush, however many
// frames were held in between.
//
// A consumer that drains with Park lends the producer its Writer while it
// waits with nothing due: a Push or Flush then writes the held frames and
// the pushed one itself, under the ring's lock, in one call to the Writer,
// and the consumer is not woken at all. Only frames the Writer could not
// finish stay queued, the first with the prefix it did send, so the
// consumer wakes to finish them and to carry any backlog. Either way a
// frame is written only once nothing is queued ahead of it unwritten, so
// bytes leave in the order frames were handed over. Hold never calls the
// Writer and never wakes the consumer.
//
// Reference ownership: a successful Push or Hold transfers one reference to
// the ring; PopAll and Park transfer the queued references to the consumer,
// which must Release each frame after writing it, and a frame the Writer
// finished is released by the ring. Close and Drop may race with a
// concurrent PopAll or Park; Drop releases whatever is still queued, held
// frames included.
type Ring struct {
	mu    sync.Mutex
	ready sync.Cond
	buf   []*Frame
	// held is how many frames at the tail of buf Hold queued since the last
	// Push or Flush: the consumer is not woken for them, and buf is due
	// only when len(buf) > held.
	held int
	// sent is how many bytes of buf[0] a Writer already wrote.
	sent int
	// parked is the Writer of a consumer blocked in Park with nothing due,
	// nil otherwise.
	parked Writer
	closed bool
}

// Writer is a consumer's direct path to its connection, lent to the producer
// while the consumer is parked (see Park). WriteDirect runs under the ring's
// lock on the producer's goroutine and must not block: it writes what it can
// of frames, in order, without waiting, and reports how many leading frames
// are done with — written whole, or not to be written at all — and how many
// bytes of the next one went out. The frames it did not finish stay queued,
// with those bytes recorded as sent.
type Writer interface {
	WriteDirect(frames []*Frame) (done, sent int)
}

// NewRing returns an empty ring; capacity is a hint sizing its initial
// backing array (the most frames the caller expects to queue at once).
func NewRing(capacity int) *Ring {
	r := &Ring{buf: make([]*Frame, 0, max(capacity, 1))}
	r.ready.L = &r.mu
	return r
}

// Push hands one frame reference to the ring without blocking and makes it
// due, with every frame held ahead of it (see Flush for the depth and the
// write). Push returns ok=false — and takes no ownership, so the caller must
// Release — only when the ring is already closed. The depth rides along so
// the fan-out's ring-depth watermark costs no second lock acquisition per
// subscriber per tick.
func (r *Ring) Push(f *Frame) (depth int, ok bool) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return 0, false
	}
	r.buf = append(r.buf, f)
	r.held++
	depth = r.flush()
	r.mu.Unlock()
	return depth, true
}

// Hold hands one frame reference to the ring without making it due: the
// consumer is not woken and its Writer is not called, so the frame waits
// for the next Push or Flush. It returns false — taking no ownership —
// only when the ring is already closed.
func (r *Ring) Hold(f *Frame) bool {
	r.mu.Lock()
	ok := !r.closed
	if ok {
		r.buf = append(r.buf, f)
		r.held++
	}
	r.mu.Unlock()
	return ok
}

// Flush makes every held frame due without handing over a new one, and
// returns the depth: how many due writes the consumer has not taken, the
// held batch counting as one. A consumer that keeps up reads 1, or 0 when
// its Writer finished the batch. When the consumer is parked with nothing
// due, the held frames go to its Writer first (see Writer); whatever it
// leaves unfinished — or everything, when the consumer is not parked or a
// wake it has not yet taken is pending — wakes the consumer. With nothing
// held, or on a closed ring, Flush does nothing and returns 0.
func (r *Ring) Flush() (depth int) {
	r.mu.Lock()
	if r.held > 0 && !r.closed {
		depth = r.flush()
	}
	r.mu.Unlock()
	return depth
}

// flush is Flush with r.mu held and at least one frame held.
func (r *Ring) flush() int {
	depth := len(r.buf) - r.held + 1
	r.held = 0
	if depth == 1 && r.parked != nil {
		// Nothing was due, so no frame is partly sent.
		done, sent := r.parked.WriteDirect(r.buf)
		for _, f := range r.buf[:done] {
			f.Release()
		}
		n := copy(r.buf, r.buf[done:])
		clear(r.buf[n:])
		r.buf = r.buf[:n]
		if n == 0 {
			return 0
		}
		r.sent = sent
		r.parked = nil
	}
	r.ready.Signal()
	return depth
}

// PopAll blocks until a frame is due or the ring is closed, then appends
// every queued frame, held ones included, to dst (reusing its capacity) and
// returns the extended slice plus ok=false once the ring is closed. A single
// call can deliver the final frames and report closure together; after
// ok=false no further frames will ever arrive. The consumer owns the
// returned references.
func (r *Ring) PopAll(dst []*Frame) ([]*Frame, bool) {
	dst, _, ok := r.Park(dst, nil)
	return dst, ok
}

// Park is PopAll for a consumer that lets the producer write for it: while
// it blocks with nothing due, w (when non-nil) is lent to Push and Flush;
// held frames do not end the wait, but once it ends they are returned with
// the due ones, in the order they were handed over. Park also returns how
// many leading bytes of the first returned frame w already wrote, which the
// consumer must skip. w is never called once Park returns, until the next
// Park.
func (r *Ring) Park(dst []*Frame, w Writer) (frames []*Frame, sent int, ok bool) {
	r.mu.Lock()
	for len(r.buf) == r.held && !r.closed {
		r.parked = w
		r.ready.Wait()
	}
	r.parked = nil
	dst = append(dst, r.buf...)
	sent, r.sent, r.held = r.sent, 0, 0
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

// Drop closes the ring because its consumer is gone: every queued frame,
// held or due, is released (it will never be written). Idempotent, and safe
// alongside a concurrent PopAll or after a Close.
func (r *Ring) Drop() {
	r.mu.Lock()
	r.closed = true
	for _, f := range r.buf {
		f.Release()
	}
	clear(r.buf)
	r.buf = r.buf[:0]
	r.sent, r.held = 0, 0
	r.ready.Signal()
	r.mu.Unlock()
}

// Depth returns the number of frames currently queued, held ones included.
func (r *Ring) Depth() int {
	r.mu.Lock()
	n := len(r.buf)
	r.mu.Unlock()
	return n
}

package fanout

import "sync"

// Ring is one subscriber's write queue: a FIFO of frame references handed
// over by the broadcast clock. Handing over never blocks and never fails for
// lack of room — the queue grows by append, and what bounds it is the
// subscription: the producer closes the ring at the subscriber's last slot,
// and the session's own deadline ends a reader that falls behind.
//
// A frame is queued in one of two ways. Push makes it due, and with it
// every frame queued ahead. Hold queues it without making it due, for a
// frame whose deadline leaves room to wait: it leaves with the next Push,
// or when Flush makes the held frames due without adding one. A connection
// that keeps up therefore gets one write per Push or Flush, however many
// frames were held in between.
//
// The frames are written by a Writer the owner lends the ring (Write): from
// then on every Push and Flush hands the due frames to it at once, under the
// ring's lock, in one call, and Write hands them over again to retry what a
// short write left. The frames the Writer did not finish stay queued, the
// first with the prefix it did send, so bytes leave in the order frames were
// handed over. Until a Writer is lent, due frames simply queue. A ring
// without a Writer is drained instead with PopAll.
//
// Reference ownership: a successful Push or Hold transfers one reference to
// the ring; PopAll transfers the queued references to the caller, which must
// Release each frame after writing it, and a frame the Writer finished is
// released by the ring. Drop releases whatever is still queued, held frames
// included.
type Ring struct {
	mu  sync.Mutex
	buf []*Frame
	// held is how many frames at the tail of buf Hold queued since the last
	// Push or Flush: buf[:len(buf)-held] is due.
	held int
	// sent is how many bytes of buf[0] the Writer already wrote.
	sent   int
	w      Writer
	closed bool
}

// Writer is a ring owner's path to its connection (see Ring.Write).
// WriteDirect runs under the ring's lock and must not block: it writes what
// it can of frames, never empty, in order, without waiting, starting skip bytes into the
// first (the prefix an earlier call sent), and reports how many leading
// frames are done with — written whole, or not to be written at all — and
// how many bytes of the next one have gone out, skip included. The frames it
// did not finish stay queued, with those bytes recorded as sent.
type Writer interface {
	WriteDirect(frames []*Frame, skip int) (done, sent int)
}

// NewRing returns an empty ring; capacity is a hint sizing its initial
// backing array (the most frames the caller expects to queue at once).
func NewRing(capacity int) *Ring {
	return &Ring{buf: make([]*Frame, 0, max(capacity, 1))}
}

// Push hands one frame reference to the ring without blocking and makes it
// due, with every frame held ahead of it, and returns the depth: the frames
// left queued, none once the Writer took them all. Push returns ok=false —
// and takes no ownership, so the caller must Release — only when the ring is
// already closed. The depth rides along so the fan-out's ring-depth
// watermark costs no second lock acquisition per subscriber per tick.
func (r *Ring) Push(f *Frame) (depth int, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, false
	}
	r.buf = append(r.buf, f)
	r.held = 0
	return r.write(), true
}

// Hold hands one frame reference to the ring without making it due: the
// Writer is not called, so the frame waits for the next Push or Flush. It
// returns false — taking no ownership — only when the ring is already
// closed.
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

// Flush makes every held frame due without handing over a new one, writes
// the due frames through the Writer, and returns the depth as Push does.
// With nothing held, or on a closed ring, Flush does nothing and returns 0.
func (r *Ring) Flush() (depth int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.held == 0 || r.closed {
		return 0
	}
	r.held = 0
	return r.write()
}

// Write lends w to the ring, which from then on writes the due frames
// through it, and hands it what is due now, if anything: the frames queued
// before w was lent, or what an earlier write left unfinished. It returns
// the depth as Push does, and writes on a closed ring too, which only
// refuses new frames.
func (r *Ring) Write(w Writer) (depth int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.w = w
	return r.write()
}

// write hands the due frames, if any, to the Writer, if one is lent, with
// r.mu held, releases those it finished and returns how many frames stay
// queued.
func (r *Ring) write() int {
	if r.w == nil || len(r.buf) == r.held {
		return len(r.buf)
	}
	done, sent := r.w.WriteDirect(r.buf[:len(r.buf)-r.held], r.sent)
	for _, f := range r.buf[:done] {
		f.Release()
	}
	n := copy(r.buf, r.buf[done:])
	clear(r.buf[n:])
	r.buf, r.sent = r.buf[:n], sent
	return n
}

// PopAll appends every queued frame, held ones included, to dst (reusing
// its capacity) and returns the extended slice, plus ok=false once the ring
// is closed. It does not wait: a ring with nothing queued returns dst as it
// is. A single call can deliver the final frames and report closure
// together. The caller owns the returned references.
func (r *Ring) PopAll(dst []*Frame) ([]*Frame, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	dst = append(dst, r.buf...)
	clear(r.buf)
	r.buf, r.held, r.sent = r.buf[:0], 0, 0
	return dst, !r.closed
}

// Close marks the ring finished from the producer side: queued frames are
// still written or popped, and subsequent pushes fail. Idempotent.
func (r *Ring) Close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
}

// Drop closes the ring because its connection is gone: every queued frame,
// held or due, is released (it will never be written), and the Writer is
// never called again. Idempotent, and safe after a Close.
func (r *Ring) Drop() {
	r.mu.Lock()
	r.closed, r.w = true, nil
	for _, f := range r.buf {
		f.Release()
	}
	clear(r.buf)
	r.buf, r.sent, r.held = r.buf[:0], 0, 0
	r.mu.Unlock()
}

// Depth returns the number of frames currently queued, held ones included.
func (r *Ring) Depth() int {
	r.mu.Lock()
	n := len(r.buf)
	r.mu.Unlock()
	return n
}

package station

import "sync"

// workers is the clock's span pool: a fixed set of persistent goroutines,
// one per catalogue span, that the clock goroutine wakes for each piece of
// per-slot work. Each worker runs the tick's span function over its
// half-open index range [lo, hi) and tick returns only when every span has
// finished — the clock dispatches and joins, nothing more, so the work's
// service time becomes the slowest span instead of the whole catalogue.
//
// The pool is allocation-free per tick (one channel send per worker plus a
// WaitGroup join) and the goroutines are reused across ticks. tick must
// only be called from one goroutine at a time (the station clock), and
// never after or concurrently with close.
type workers struct {
	// run is the current tick's span function; the wake sends and the join
	// order every access to it.
	run  func(worker, lo, hi int)
	wake []chan struct{}
	wg   sync.WaitGroup // the spans of the tick in flight
	exit sync.WaitGroup // the worker goroutines themselves
}

// startWorkers starts one persistent goroutine per span; spans are
// half-open [lo, hi) index ranges. No spans yields a pool whose tick is a
// no-op.
func startWorkers(spans [][2]int) *workers {
	w := &workers{wake: make([]chan struct{}, len(spans))}
	for i, span := range spans {
		ch := make(chan struct{}, 1)
		w.wake[i] = ch
		w.exit.Add(1)
		go func(worker, lo, hi int) {
			defer w.exit.Done()
			for range ch {
				w.run(worker, lo, hi)
				w.wg.Done()
			}
		}(i, span[0], span[1])
	}
	return w
}

// tick runs run(worker, lo, hi) on every worker's goroutine and blocks until
// all spans complete; run must confine itself to its span so workers never
// contend. It performs no allocations.
func (w *workers) tick(run func(worker, lo, hi int)) {
	w.run = run
	w.wg.Add(len(w.wake))
	for _, ch := range w.wake {
		ch <- struct{}{}
	}
	w.wg.Wait()
}

// close terminates the worker goroutines and waits for them to exit. It
// must not race a tick.
func (w *workers) close() {
	for _, ch := range w.wake {
		close(ch)
	}
	w.exit.Wait()
}

package sim

import "container/heap"

// Event is a callback scheduled to run at a simulated instant. The loop passes
// the event's firing time back to the callback.
type Event func(now float64)

type scheduledEvent struct {
	at  float64
	seq uint64 // FIFO tie-break for events at the same instant
	fn  Event
}

type eventHeap []scheduledEvent

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(scheduledEvent)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Loop is a single-threaded discrete-event loop. Events fire in timestamp
// order; ties fire in scheduling order. The zero value is not usable; call
// NewLoop.
type Loop struct {
	events eventHeap
	now    float64
	seq    uint64
}

// NewLoop returns an empty event loop whose clock starts at zero.
func NewLoop() *Loop {
	return &Loop{}
}

// At schedules fn to run at absolute time at. Scheduling in the past is a
// programming error and panics, since it would silently corrupt the causal
// order of the simulation.
func (l *Loop) At(at float64, fn Event) {
	if at < l.now {
		panic("sim: event scheduled in the past")
	}
	l.seq++
	heap.Push(&l.events, scheduledEvent{at: at, seq: l.seq, fn: fn})
}

// Run fires events in order until the queue is empty or the next event is
// after horizon. The clock is left at the last fired event (or at horizon if
// no event at or before it remained). It returns the number of events fired.
func (l *Loop) Run(horizon float64) int {
	fired := 0
	for len(l.events) > 0 {
		next := l.events[0]
		if next.at > horizon {
			break
		}
		heap.Pop(&l.events)
		l.now = next.at
		next.fn(next.at)
		fired++
	}
	if l.now < horizon {
		l.now = horizon
	}
	return fired
}

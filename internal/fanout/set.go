package fanout

import (
	"sync"
	"sync/atomic"
)

// Set is a copy-on-write subscriber set: the broadcast hot loop reads an
// immutable snapshot slice through one atomic pointer load — no lock, no map
// iteration — while the admin operations (subscribe, unsubscribe, retire)
// build a fresh slice under a small mutex and publish it atomically. The
// type replaces the per-video `mu + map[*subscriber]struct{}` pair the
// fan-out tick used to take once per video per slot: with N subscribers the
// tick's read side is now exactly one atomic load and N pointer pushes, and
// a slow admit or teardown can never stall the clock.
//
// Semantics:
//
//   - Snapshot returns the current element slice. It is immutable — every
//     mutation replaces the whole slice — so holders may iterate it without
//     synchronization for as long as they like; they only see membership as
//     of the load.
//   - Add appends one element (callers add each element at most once; the
//     set does not deduplicate). It fails once the set is closed, which is
//     how the server refuses registrations during shutdown.
//   - Remove deletes the first matching element and reports whether it was
//     present. Exactly one of several racing removers wins, which is what
//     makes teardown single-shot: whoever gets true owns closing the
//     element's delivery primitive.
//   - Close marks the set closed and hands the final membership to the
//     caller (subsequent Snapshots see an empty set).
//
// The publication order gives the server its delivery guarantee: Add stores
// the new snapshot before the subscriber's admission reaches the scheduler,
// so any tick that begins the slot after the admit slot — ordered after the
// admission by the video's lock in the station — observes the subscriber in
// its snapshot.
type Set[T comparable] struct {
	mu     sync.Mutex
	snap   atomic.Pointer[[]T]
	closed bool
}

// NewSet returns an empty, open set.
func NewSet[T comparable]() *Set[T] { return &Set[T]{} }

// Snapshot returns the current membership as an immutable slice. Callers
// must not modify it.
func (s *Set[T]) Snapshot() []T {
	p := s.snap.Load()
	if p == nil {
		return nil
	}
	return *p
}

// Len reports the current membership size.
func (s *Set[T]) Len() int { return len(s.Snapshot()) }

// Add appends x to the set. It reports false — and does not add — when the
// set has been closed.
func (s *Set[T]) Add(x T) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	cur := s.Snapshot()
	next := make([]T, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = x
	s.snap.Store(&next)
	return true
}

// Remove deletes the first occurrence of x and reports whether it was
// present. Concurrent removers of the same element race safely: exactly one
// observes true.
func (s *Set[T]) Remove(x T) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.Snapshot()
	for i, e := range cur {
		if e == x {
			next := make([]T, len(cur)-1)
			copy(next, cur[:i])
			copy(next[i:], cur[i+1:])
			s.snap.Store(&next)
			return true
		}
	}
	return false
}

// Close marks the set closed — further Adds fail, Snapshot reads empty —
// and returns the final membership so the caller can finish each element
// exactly once. Elements concurrently won by Remove are not returned.
// Idempotent: a second Close returns nil.
func (s *Set[T]) Close() []T {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	final := s.Snapshot()
	var empty []T
	s.snap.Store(&empty)
	return final
}

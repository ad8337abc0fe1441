package fanout

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSetDifferentialVsMap drives the copy-on-write set and a plain
// map-based reference through the same randomized op sequence and holds the
// two to identical membership after every step — the same executable-spec
// discipline the encoder's differential test uses.
func TestSetDifferentialVsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	set := NewSet[int]()
	ref := make(map[int]bool)
	live := make([]int, 0, 64)
	next := 0
	for op := 0; op < 4000; op++ {
		switch {
		case len(live) == 0 || rng.Intn(3) != 0:
			x := next
			next++
			if !set.Add(x) {
				t.Fatalf("op %d: Add(%d) failed on open set", op, x)
			}
			ref[x] = true
			live = append(live, x)
		default:
			i := rng.Intn(len(live))
			x := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if !set.Remove(x) {
				t.Fatalf("op %d: Remove(%d) missed a present element", op, x)
			}
			delete(ref, x)
			// A second remove of the same element must miss.
			if set.Remove(x) {
				t.Fatalf("op %d: Remove(%d) succeeded twice", op, x)
			}
		}
		snap := set.Snapshot()
		if len(snap) != len(ref) {
			t.Fatalf("op %d: snapshot has %d elements, reference %d", op, len(snap), len(ref))
		}
		for _, x := range snap {
			if !ref[x] {
				t.Fatalf("op %d: snapshot carries %d, absent from reference", op, x)
			}
		}
		if set.Len() != len(ref) {
			t.Fatalf("op %d: Len %d, want %d", op, set.Len(), len(ref))
		}
	}
}

// TestSetSnapshotIsolation pins the copy-on-write property the lock-free
// fan-out read side depends on: a snapshot taken before a mutation is
// never modified by it.
func TestSetSnapshotIsolation(t *testing.T) {
	set := NewSet[int]()
	for i := 0; i < 4; i++ {
		set.Add(i)
	}
	before := set.Snapshot()
	saved := append([]int(nil), before...)
	set.Add(99)
	set.Remove(1)
	set.Remove(2)
	if len(before) != len(saved) {
		t.Fatalf("held snapshot resized from %d to %d", len(saved), len(before))
	}
	for i := range saved {
		if before[i] != saved[i] {
			t.Fatalf("held snapshot element %d mutated: %d -> %d", i, saved[i], before[i])
		}
	}
	if got := set.Len(); got != 3 {
		t.Fatalf("post-mutation Len = %d, want 3", got)
	}
}

func TestSetCloseSemantics(t *testing.T) {
	set := NewSet[string]()
	set.Add("a")
	set.Add("b")
	final := set.Close()
	if len(final) != 2 {
		t.Fatalf("Close returned %d elements, want 2", len(final))
	}
	if set.Add("c") {
		t.Fatal("Add succeeded on closed set")
	}
	if set.Len() != 0 {
		t.Fatalf("closed set Len = %d, want 0", set.Len())
	}
	if set.Remove("a") {
		t.Fatal("Remove found an element after Close drained the set")
	}
	if again := set.Close(); again != nil {
		t.Fatalf("second Close returned %d elements, want none", len(again))
	}
}

// TestSetConcurrentChurn races adders, removers and lock-free snapshot
// readers — the shape of admits, disconnects and the parallel tick — and
// then proves exactly-once removal accounting: every element is won by
// exactly one remover or surfaced exactly once by Close.
func TestSetConcurrentChurn(t *testing.T) {
	const (
		adders   = 4
		perAdder = 300
	)
	set := NewSet[int]()
	var (
		wg      sync.WaitGroup // adders and removers
		readers sync.WaitGroup // snapshot spinners, stopped after the churn
		removed atomic.Int64
		stop    = make(chan struct{})
	)
	for a := 0; a < adders; a++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for i := 0; i < perAdder; i++ {
				x := base*perAdder + i
				if !set.Add(x) {
					return
				}
				// Half the elements get a racing remover: both it and the
				// final Close may try to win x, only one may.
				if i%2 == 0 {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if set.Remove(x) {
							removed.Add(1)
						}
					}()
				}
			}
		}(a)
	}
	// Snapshot readers spin lock-free against the churn; the race detector
	// is the real assertion here.
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, x := range set.Snapshot() {
					_ = x
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	final := set.Close()
	total := int64(len(final)) + removed.Load()
	if want := int64(adders * perAdder); total != want {
		t.Fatalf("accounting: %d closed + %d removed = %d, want %d",
			len(final), removed.Load(), total, want)
	}
	seen := make(map[int]bool, len(final))
	for _, x := range final {
		if seen[x] {
			t.Fatalf("element %d surfaced twice by Close", x)
		}
		seen[x] = true
	}
}

package slots

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRingBasics(t *testing.T) {
	r := NewRing(4, 0, false)
	if r.base != 0 || r.end() != 3 || r.horizon != 4 {
		t.Fatalf("window = [%d, %d] horizon %d", r.base, r.end(), r.horizon)
	}
	r.Add(1, 5)
	r.Add(1, 6)
	r.Add(3, 7)
	if got := r.Load(1); got != 2 {
		t.Fatalf("Load(1) = %d, want 2", got)
	}
	if got := r.Load(0); got != 0 {
		t.Fatalf("Load(0) = %d, want 0", got)
	}
}

func TestRingRetireAdvancesWindow(t *testing.T) {
	r := NewRing(3, 0, false)
	r.Add(0, 1)
	r.Add(2, 2)
	abs, load, _ := r.Retire()
	if abs != 0 || load != 1 {
		t.Fatalf("Retire = (%d, %d), want (0, 1)", abs, load)
	}
	if r.base != 1 || r.end() != 3 {
		t.Fatalf("window = [%d, %d], want [1, 3]", r.base, r.end())
	}
	// The freshly exposed slot 3 must start empty.
	if got := r.Load(3); got != 0 {
		t.Fatalf("Load(3) = %d, want 0 (recycled slot not cleared)", got)
	}
	if got := r.Load(2); got != 1 {
		t.Fatalf("Load(2) = %d, want 1 (existing load lost)", got)
	}
}

func TestRingSegmentTracking(t *testing.T) {
	r := NewRing(3, 10, true)
	r.Add(11, 4)
	r.Add(11, 9)
	got := r.Segments(11)
	if len(got) != 2 || got[0] != 4 || got[1] != 9 {
		t.Fatalf("Segments(11) = %v, want [4 9]", got)
	}
	// Mutating the returned slice must not affect the ring.
	got[0] = 99
	if r.Segments(11)[0] != 4 {
		t.Fatal("Segments exposed internal state")
	}
}

func TestRingSegmentsUntracked(t *testing.T) {
	r := NewRing(3, 0, false)
	r.Add(0, 1)
	if r.Segments(0) != nil {
		t.Fatal("untracked ring should return nil segments")
	}
}

func TestRingRetireReturnsSegments(t *testing.T) {
	r := NewRing(2, 0, true)
	r.Add(0, 7)
	r.Add(0, 8)
	_, _, segs := r.Retire()
	if len(segs) != 2 || segs[0] != 7 || segs[1] != 8 {
		t.Fatalf("retired segs = %v, want [7 8]", segs)
	}
	// Slot 2 (recycled position) must be empty.
	if got := r.Segments(2); len(got) != 0 {
		t.Fatalf("recycled slot has stale segments %v", got)
	}
}

func TestRingOutOfWindowPanics(t *testing.T) {
	r := NewRing(3, 5, false)
	for _, abs := range []int{4, 8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("access to slot %d outside [5,7] did not panic", abs)
				}
			}()
			r.Load(abs)
		}()
	}
}

func TestRingBadHorizonPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero horizon did not panic")
		}
	}()
	NewRing(0, 0, false)
}

func TestMinLoadLatestPrefersLatestTie(t *testing.T) {
	r := NewRing(6, 0, false)
	// loads: slot0=1 slot1=0 slot2=2 slot3=0 slot4=3
	r.Add(0, 1)
	r.Add(2, 1)
	r.Add(2, 2)
	r.Add(4, 1)
	r.Add(4, 2)
	r.Add(4, 3)
	slot, load := r.MinLoadLatest(0, 4)
	if slot != 3 || load != 0 {
		t.Fatalf("MinLoadLatest = (%d, %d), want (3, 0): ties must pick the latest slot", slot, load)
	}
}

func TestMinLoadLatestSingleSlot(t *testing.T) {
	r := NewRing(3, 0, false)
	r.Add(1, 9)
	slot, load := r.MinLoadLatest(1, 1)
	if slot != 1 || load != 1 {
		t.Fatalf("MinLoadLatest = (%d, %d), want (1, 1)", slot, load)
	}
}

func TestMinLoadLatestEmptyRangePanics(t *testing.T) {
	r := NewRing(3, 0, false)
	defer func() {
		if recover() == nil {
			t.Fatal("empty scan range did not panic")
		}
	}()
	r.MinLoadLatest(2, 1)
}

func TestRingLongRunConsistency(t *testing.T) {
	// Drive the ring through many retire cycles and verify conservation:
	// everything added is eventually retired exactly once.
	r := NewRing(5, 0, false)
	added, retired := 0, 0
	for step := 0; step < 1000; step++ {
		slot := r.base + 1 + step%4
		if slot <= r.end() {
			r.Add(slot, step)
			added++
		}
		_, load, _ := r.Retire()
		retired += load
	}
	for i := 0; i < 5; i++ {
		_, load, _ := r.Retire()
		retired += load
	}
	if added != retired {
		t.Fatalf("added %d instances but retired %d", added, retired)
	}
}

func TestRingConservationProperty(t *testing.T) {
	f := func(offsets []uint8) bool {
		r := NewRing(8, 0, false)
		added, retired := 0, 0
		for _, o := range offsets {
			slot := r.base + int(o)%8
			r.Add(slot, 1)
			added++
			_, load, _ := r.Retire()
			retired += load
		}
		for i := 0; i < 8; i++ {
			_, load, _ := r.Retire()
			retired += load
		}
		return added == retired
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMinLoadEarliestPrefersEarliestTie(t *testing.T) {
	r := NewRing(6, 0, false)
	r.Add(0, 1)
	r.Add(2, 1)
	r.Add(4, 1)
	slot, load := r.MinLoadEarliest(0, 4)
	if slot != 1 || load != 0 {
		t.Fatalf("MinLoadEarliest = (%d, %d), want (1, 0)", slot, load)
	}
	slot, load = r.MinLoadEarliest(4, 4)
	if slot != 4 || load != 1 {
		t.Fatalf("single-slot MinLoadEarliest = (%d, %d), want (4, 1)", slot, load)
	}
}

func TestMinLoadEarliestEmptyRangePanics(t *testing.T) {
	r := NewRing(3, 0, false)
	defer func() {
		if recover() == nil {
			t.Fatal("empty scan range did not panic")
		}
	}()
	r.MinLoadEarliest(2, 1)
}

// TestRMQTieBreakAcrossWrap pins the tie-direction semantics on a window
// whose position range wraps: all loads equal, so MinLoadLatest must return
// the last slot of the range (which lives in the wrapped-around low
// positions) and MinLoadEarliest the first.
func TestRMQTieBreakAcrossWrap(t *testing.T) {
	r := NewRing(5, 0, false)
	for i := 0; i < 3; i++ {
		r.Retire() // base = 3, window [3, 7]: positions 3 4 0 1 2
	}
	if slot, load := r.MinLoadLatest(3, 7); slot != 7 || load != 0 {
		t.Fatalf("MinLoadLatest(3, 7) = (%d, %d), want (7, 0)", slot, load)
	}
	if slot, load := r.MinLoadEarliest(3, 7); slot != 3 || load != 0 {
		t.Fatalf("MinLoadEarliest(3, 7) = (%d, %d), want (3, 0)", slot, load)
	}
	// Tilt the wrapped half: the unique minimum must win in both directions.
	r.Add(3, 1)
	r.Add(4, 1)
	r.Add(6, 1)
	r.Add(7, 1)
	if slot, load := r.MinLoadLatest(3, 7); slot != 5 || load != 0 {
		t.Fatalf("unique min: MinLoadLatest(3, 7) = (%d, %d), want (5, 0)", slot, load)
	}
	if slot, load := r.MinLoadEarliest(3, 7); slot != 5 || load != 0 {
		t.Fatalf("unique min: MinLoadEarliest(3, 7) = (%d, %d), want (5, 0)", slot, load)
	}
}

// TestRMQSingleSlotRange: degenerate one-slot windows (segment 1's window
// is always a single slot) behave under both rules.
func TestRMQSingleSlotRange(t *testing.T) {
	r := NewRing(4, 10, false)
	r.Add(11, 1)
	if slot, load := r.MinLoadLatest(11, 11); slot != 11 || load != 1 {
		t.Fatalf("MinLoadLatest(11, 11) = (%d, %d), want (11, 1)", slot, load)
	}
	if slot, load := r.MinLoadEarliest(11, 11); slot != 11 || load != 1 {
		t.Fatalf("MinLoadEarliest(11, 11) = (%d, %d), want (11, 1)", slot, load)
	}
}

// TestRingSkipEqualsRepeatedRetire: on an empty window Skip(k) leaves the
// ring exactly where k Retires do — the same loads, tracked segments and
// tie-broken minima for everything scheduled afterwards — and Total follows
// every Add and Retire.
func TestRingSkipEqualsRepeatedRetire(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const horizon = 13
	skipped, stepped := NewRing(horizon, 4, true), NewRing(horizon, 4, true)
	for round := 0; round < 200; round++ {
		for adds := rng.Intn(8); adds > 0; adds-- {
			abs, seg := skipped.base+rng.Intn(horizon), 1+rng.Intn(9)
			skipped.Add(abs, seg)
			stepped.Add(abs, seg)
		}
		for skipped.Total() > 0 {
			from := skipped.base + rng.Intn(horizon)
			to := from + rng.Intn(skipped.end()-from+1)
			s1, l1 := skipped.MinLoadLatest(from, to)
			s2, l2 := stepped.MinLoadLatest(from, to)
			e1, m1 := skipped.MinLoadEarliest(from, to)
			e2, m2 := stepped.MinLoadEarliest(from, to)
			if s1 != s2 || l1 != l2 || e1 != e2 || m1 != m2 {
				t.Fatalf("round %d: minima over [%d, %d] diverged: (%d,%d,%d,%d) / (%d,%d,%d,%d)",
					round, from, to, s1, l1, e1, m1, s2, l2, e2, m2)
			}
			a1, ld1, sg1 := skipped.Retire()
			a2, ld2, sg2 := stepped.Retire()
			if a1 != a2 || ld1 != ld2 || !reflect.DeepEqual(sg1, sg2) {
				t.Fatalf("round %d: retired (%d,%d,%v) / (%d,%d,%v)", round, a1, ld1, sg1, a2, ld2, sg2)
			}
		}
		if stepped.Total() != 0 {
			t.Fatalf("round %d: totals diverged: 0 / %d", round, stepped.Total())
		}
		k := rng.Intn(3 * horizon)
		skipped.Skip(k)
		for i := 0; i < k; i++ {
			stepped.Retire()
		}
		if skipped.base != stepped.base {
			t.Fatalf("round %d: base %d after Skip(%d), %d after %d Retires", round, skipped.base, k, stepped.base, k)
		}
	}
}

func TestRingSkipLoadedPanics(t *testing.T) {
	r := NewRing(4, 0, false)
	r.Add(2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Skip over a scheduled instance did not panic")
		}
		if r.base != 0 || r.Total() != 1 {
			t.Fatalf("refused Skip left base %d, total %d", r.base, r.Total())
		}
	}()
	r.Skip(1)
}

// TestEachSegmentMatchesSegments: the no-copy iterator yields exactly the
// Segments slice, in order, and is a no-op without tracking.
func TestEachSegmentMatchesSegments(t *testing.T) {
	r := NewRing(8, 0, true)
	r.Add(3, 7)
	r.Add(3, 2)
	r.Add(3, 9)
	var got []int
	r.EachSegment(3, func(seg int) { got = append(got, seg) })
	want := r.Segments(3)
	if len(got) != len(want) {
		t.Fatalf("EachSegment yielded %v, Segments %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("EachSegment yielded %v, Segments %v", got, want)
		}
	}
	untracked := NewRing(8, 0, false)
	untracked.Add(3, 7)
	untracked.EachSegment(3, func(int) { t.Fatal("EachSegment fired on an untracked ring") })
}

// TestEachSegmentEmptySlot: iterating an empty slot calls fn zero times.
func TestEachSegmentEmptySlot(t *testing.T) {
	r := NewRing(8, 0, true)
	r.EachSegment(5, func(int) { t.Fatal("EachSegment fired on an empty slot") })
}

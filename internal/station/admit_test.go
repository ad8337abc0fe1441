package station

import (
	"testing"

	"vodcast/internal/core"
)

// TestAdmitScratchAssignment: the station keeps no assignment scratch of its
// own. WantAssignment without a caller buffer returns a slice the caller
// owns — a later admission never overwrites it — and a caller-supplied
// buffer is the one that comes back.
func TestAdmitScratchAssignment(t *testing.T) {
	st, err := New(Config{Videos: testCatalogue(1, 10), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := st.Admit(0, core.AdmitOptions{WantAssignment: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.Admit(0, core.AdmitOptions{WantAssignment: true})
	if err != nil {
		t.Fatal(err)
	}
	if &a.Assignment[0] == &b.Assignment[0] {
		t.Fatal("two admissions returned the same backing array: the first result was overwritten")
	}
	own := make([]int, 11)
	c, err := st.Admit(0, core.AdmitOptions{Assignment: own})
	if err != nil {
		t.Fatal(err)
	}
	if &c.Assignment[0] != &own[0] {
		t.Fatal("caller-supplied buffer was not used")
	}
}

// TestStationSteadyStateZeroAlloc: the uninstrumented synchronous admit
// path — with the assignment written into a caller buffer — and the
// reusable-buffer slot advance allocate nothing per operation in steady
// state.
func TestStationSteadyStateZeroAlloc(t *testing.T) {
	st, err := New(Config{Videos: testCatalogue(4, 50), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	var reports []core.SlotReport
	assignment := make([]int, 51)
	step := func() {
		for v := 0; v < 4; v++ {
			if _, err := st.Admit(v, core.AdmitOptions{}); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Admit(v, core.AdmitOptions{Assignment: assignment}); err != nil {
				t.Fatal(err)
			}
		}
		reports = st.AdvanceSlotInto(reports)
	}
	for k := 0; k < 100; k++ { // reach steady state
		step()
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("steady-state station path allocates %.1f/run, want 0", allocs)
	}
}

// TestAdvanceSlotIntoMatchesAdvanceSlot: the reusable-buffer variant
// produces the same reports and reslices correctly.
func TestAdvanceSlotIntoMatchesAdvanceSlot(t *testing.T) {
	st, err := New(Config{Videos: testCatalogue(3, 8), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 3; v++ {
		if _, err := st.Admit(v, core.AdmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]core.SlotReport, 1) // undersized: must be grown
	dst = st.AdvanceSlotInto(dst)
	if len(dst) != 3 {
		t.Fatalf("reports length %d, want 3", len(dst))
	}
	for v := 0; v < 3; v++ {
		// Slot-0 admissions are served starting at slot 1, so the retired
		// slot 0 is empty.
		if dst[v].Slot != 0 || dst[v].Load != 0 {
			t.Fatalf("video %d retired %+v, want slot 0 load 0", v, dst[v])
		}
	}
	// Oversized buffers are resliced down and every entry overwritten; the
	// retired slot 1 carries each video's segment 1 (deadline T[1] = 1).
	big := make([]core.SlotReport, 10)
	for i := range big {
		big[i] = core.SlotReport{Slot: -99, Load: -99}
	}
	big = st.AdvanceSlotInto(big)
	if len(big) != 3 {
		t.Fatalf("reports length %d, want 3", len(big))
	}
	for v := 0; v < 3; v++ {
		if big[v].Slot != 1 || big[v].Load < 1 {
			t.Fatalf("video %d stale report %+v, want slot 1 with load >= 1", v, big[v])
		}
	}
}

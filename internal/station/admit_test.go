package station

import (
	"slices"
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
// reports what AdvanceSlot reports, reslicing the buffer to the catalogue and
// overwriting every entry, and both report the slot each advance begins: the
// bare scheduler's report for that slot, which it returns one advance later,
// when the slot retires.
func TestAdvanceSlotIntoMatchesAdvanceSlot(t *testing.T) {
	const videos, segments = 3, 8
	cat := testCatalogue(videos, segments)
	for v := range cat {
		cat[v].TrackSegments = true
	}
	admitted := func() *Station {
		st, err := New(Config{Videos: cat, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < videos; v++ {
			if _, err := st.Admit(v, core.AdmitOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	into, plain := admitted(), admitted()
	refs := make([]*core.Scheduler, videos)
	for v := range refs {
		var err error
		if refs[v], err = core.New(core.Config{Segments: segments, TrackSegments: true}); err != nil {
			t.Fatal(err)
		}
		refs[v].AdmitRequest(core.AdmitOptions{})
		// Slot 0, the admissions' own, is never reported: the stations
		// begin in it.
		if rep := refs[v].AdvanceSlot(); rep.Load != 0 {
			t.Fatalf("video %d: admit slot 0 carried %+v", v, rep)
		}
	}
	big := make([]core.SlotReport, 10)
	for i := range big {
		big[i] = core.SlotReport{Slot: -99, Load: -99}
	}
	// The first buffer is undersized and must be grown; the second is
	// oversized and must be resliced down.
	for i, buf := range [][]core.SlotReport{make([]core.SlotReport, 1), big} {
		slot := i + 1
		got, want := into.AdvanceSlotInto(buf), plain.AdvanceSlot()
		if len(got) != videos || len(want) != videos {
			t.Fatalf("slot %d: reports length %d and %d, want %d", slot, len(got), len(want), videos)
		}
		for v := 0; v < videos; v++ {
			bare := refs[v].AdvanceSlot()
			// Segment 1 is due in slot 1 (T[1] = 1), segment 2 in slot 2.
			if bare.Slot != slot || bare.Load < 1 {
				t.Fatalf("video %d: bare scheduler retired %+v, want slot %d with load >= 1", v, bare, slot)
			}
			for _, rep := range []core.SlotReport{got[v], want[v]} {
				if rep.Slot != bare.Slot || rep.Load != bare.Load || !slices.Equal(rep.Segments, bare.Segments) {
					t.Fatalf("video %d: station reported %+v, bare scheduler retired %+v", v, rep, bare)
				}
			}
		}
	}
}

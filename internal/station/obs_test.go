package station

import (
	"testing"
	"time"

	"vodcast/internal/core"
	"vodcast/internal/obs"
)

// TestStationStatusAndStages drives an instrumented station through
// admissions and a clock on the fake source, then checks the Status
// snapshot: stage windows populated, per-video rows consistent with the
// admissions, and the clock's tick count and lag window exact.
func TestStationStatusAndStages(t *testing.T) {
	reg := obs.NewRegistry()
	st, err := New(Config{
		Videos:   testCatalogue(4, 10),
		Shards:   2,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	for i := 0; i < 12; i++ {
		if _, err := st.Admit(i%4, core.AdmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	st.AdvanceSlot()

	s := st.Status()
	if s.Videos != 4 {
		t.Fatalf("videos=%d", s.Videos)
	}
	if requests, _ := st.Totals(); requests != 12 {
		t.Fatalf("requests = %d, want 12", requests)
	}
	// The per-video table carries one row per catalogue entry, in catalogue
	// order, with live scheduler counters.
	if len(s.PerVideo) != 4 {
		t.Fatalf("per-video rows = %d, want 4", len(s.PerVideo))
	}
	for v, row := range s.PerVideo {
		if row.Video != v {
			t.Fatalf("per-video rows out of catalogue order: %+v", s.PerVideo)
		}
		if row.Requests != 3 {
			t.Fatalf("video %d requests = %d, want 3", v, row.Requests)
		}
		if row.Slot < 1 || row.Instances == 0 {
			t.Fatalf("video %d row %+v: slot/instances not advanced", v, row)
		}
	}
	if len(s.Stages) != 2 {
		t.Fatalf("stages = %v, want exactly %q and %q", s.Stages, stageLockWait, stageAdmit)
	}
	for _, name := range []string{stageLockWait, stageAdmit} {
		snap, ok := s.Stages[name]
		if !ok || snap.Count == 0 {
			t.Fatalf("stage %q missing or empty: %+v", name, snap)
		}
		if snap.P50 > snap.P99 || snap.P99 > snap.Max {
			t.Fatalf("stage %q quantiles unordered: %+v", name, snap)
		}
	}

	if s.Clock.Running || s.Clock.Ticks != 0 {
		t.Fatalf("clock should be idle: %+v", s.Clock)
	}
	f := installFakeClock(st)
	if err := st.StartClock(time.Millisecond, nil); err != nil {
		t.Fatal(err)
	}
	f.runFor(3 * time.Millisecond)
	s = st.Status()
	if !s.Clock.Running || s.Clock.IntervalSeconds != 0.001 {
		t.Fatalf("clock status %+v", s.Clock)
	}
	// Three ticks, each on its grid point: three zero lags in the window.
	if s.Clock.Ticks != 3 || s.Clock.Lag.Count != 3 || s.Clock.Lag.Max != 0 {
		t.Fatalf("clock after three intervals: %+v", s.Clock)
	}
	// The tick counter reached the registry too.
	if got := reg.CounterWith("station_clock_ticks_total", "", nil).Value(); got != 3 {
		t.Fatalf("clock ticks counter = %v", got)
	}
	st.Close()
	if s := st.Status(); s.Clock.Running || s.Clock.Ticks != 3 {
		t.Fatalf("clock after Close: %+v", s.Clock)
	}
}

// TestStatusUninstrumented: without a Registry the snapshot still works and
// simply carries no stage windows.
func TestStatusUninstrumented(t *testing.T) {
	st, err := New(Config{Videos: testCatalogue(2, 6)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Admit(0, core.AdmitOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Admit(1, core.AdmitOptions{From: 1}); err != nil {
		t.Fatal(err)
	}
	st.AdvanceSlot()
	s := st.Status()
	if s.Stages != nil {
		t.Fatalf("uninstrumented station grew stages: %v", s.Stages)
	}
	if requests, _ := st.Totals(); requests != 2 || s.Videos != 2 {
		t.Fatalf("requests = %d, snapshot %+v", requests, s)
	}
}

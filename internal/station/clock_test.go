package station

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"vodcast/internal/core"
	"vodcast/internal/obs"
)

// fakeClock is a hand-driven time source for the station clock. Time moves
// only when the test fires the wait the clock goroutine armed, or when a tick
// callback stalls it, so every tick lands at an exact instant.
type fakeClock struct {
	mu    sync.Mutex
	t     time.Time
	armed chan time.Duration // the wait the clock goroutine is parked in
	fire  chan time.Time
}

// installFakeClock makes a fake the time source of st's clock; call it
// before StartClock.
func installFakeClock(st *Station) *fakeClock {
	f := &fakeClock{
		t:     time.Unix(1_000_000, 0),
		armed: make(chan time.Duration, 1),
		fire:  make(chan time.Time),
	}
	st.now, st.wait = f.now, f.arm
	return f
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

// stall moves time forward by d, as a tick that overran would.
func (f *fakeClock) stall(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

func (f *fakeClock) arm(d time.Duration) <-chan time.Time {
	f.armed <- d
	return f.fire
}

// runFor fires the clock's waits until d has passed and returns with the
// clock goroutine parked in its next wait, so every tick due by then has run
// and its callback returned.
func (f *fakeClock) runFor(d time.Duration) {
	until := f.now().Add(d)
	for {
		w := <-f.armed
		if f.now().Add(w).After(until) {
			f.armed <- w // still pending: Close finds the clock in its wait
			return
		}
		f.stall(w)
		f.fire <- f.now()
	}
}

// startFakeClock starts a clock on the fake source over a two-video station
// and records, per tick, how far past the clock's start it ran. The callback
// of tick stallAt stalls the clock for stall intervals.
func startFakeClock(t *testing.T, interval time.Duration, stallAt, stall int) (*Station, *obs.Registry, *fakeClock, *[]time.Duration) {
	t.Helper()
	reg := obs.NewRegistry()
	st, err := New(Config{Videos: testCatalogue(2, 5), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	f := installFakeClock(st)
	start := f.now()
	var at []time.Duration
	if err := st.StartClock(interval, nil, func([]core.SlotReport) {
		at = append(at, f.now().Sub(start))
		if len(at) == stallAt {
			f.stall(time.Duration(stall) * interval)
		}
	}); err != nil {
		t.Fatal(err)
	}
	return st, reg, f, &at
}

// checkClock compares the tick instants, in intervals since the clock's
// start, and the clock's one copy of each value: the tick count (the lag
// window's Total, also the registry's counter) and the lag window's max.
func checkClock(t *testing.T, st *Station, reg *obs.Registry, at []time.Duration, want []int, interval, lagMax time.Duration) {
	t.Helper()
	if len(at) != len(want) {
		t.Fatalf("%d ticks at %v, want %d at %v intervals", len(at), at, len(want), want)
	}
	for i, w := range want {
		if at[i] != time.Duration(w)*interval {
			t.Fatalf("tick %d ran at %v, want %d intervals (all ticks: %v)", i+1, at[i], w, at)
		}
	}
	c := st.Status().Clock
	if !c.Running || c.Ticks != uint64(len(want)) || c.Lag.Total != c.Ticks {
		t.Fatalf("clock status %+v, want %d ticks", c, len(want))
	}
	if got := reg.CounterWith("station_clock_ticks_total", "", nil).Value(); got != float64(c.Ticks) {
		t.Fatalf("station_clock_ticks_total = %v, status ticks %d", got, c.Ticks)
	}
	if c.Lag.Max != lagMax.Seconds() {
		t.Fatalf("lag max %vs, want %v", c.Lag.Max, lagMax)
	}
}

// TestClockCatchUp: a tick callback that stalls s intervals, s up to
// maxCatchUp, is followed by exactly s ticks back to back at the stall's end,
// and then the clock is on its grid again: 20 intervals in it has ticked 20
// times, and its lag max is the first catch-up tick's s−1 intervals.
func TestClockCatchUp(t *testing.T) {
	const interval, stallAt, horizon = time.Millisecond, 5, 20
	for _, s := range []int{1, 3, maxCatchUp} {
		t.Run(fmt.Sprintf("stall=%d", s), func(t *testing.T) {
			st, reg, f, at := startFakeClock(t, interval, stallAt, s)
			f.runFor(horizon * interval)
			var want []int
			for k := 1; k <= horizon; k++ {
				if k > stallAt {
					want = append(want, max(k, stallAt+s))
				} else {
					want = append(want, k)
				}
			}
			checkClock(t, st, reg, *at, want, interval, time.Duration(s-1)*interval)
		})
	}
}

// TestClockSlip: a stall that leaves the clock maxCatchUp or more intervals
// behind its next grid point is not caught up. The clock skips exactly the
// grid points the stall passed over and keeps its phase: the next tick lands
// on the first grid point after the stall and reports the slip's lag, and the
// ticks fall short of the elapsed intervals by the skipped points alone.
func TestClockSlip(t *testing.T) {
	const interval, stallAt, horizon = time.Millisecond, 5, 30
	for _, s := range []int{maxCatchUp + 1, maxCatchUp + 5} {
		t.Run(fmt.Sprintf("stall=%d", s), func(t *testing.T) {
			st, reg, f, at := startFakeClock(t, interval, stallAt, s)
			f.runFor(horizon * interval)
			var want []int
			for k := 1; k <= horizon; k++ {
				if k <= stallAt || k > stallAt+s {
					want = append(want, k)
				}
			}
			checkClock(t, st, reg, *at, want, interval, time.Duration(s-1)*interval)
			if got := reg.CounterWith("station_clock_skipped_ticks_total", "", nil).Value(); got != float64(s) {
				t.Fatalf("station_clock_skipped_ticks_total = %v, want the %d skipped grid points", got, s)
			}
		})
	}
}

// TestClockSendsBegunSlot: the clock hands onTick, and EachActive, the slot
// its tick begins. An admission made while slot i is current has segment 1
// due in slot i+1 (T[1] = 1), so the very next tick's report carries it as
// slot i+1; an idle video's report is the same slot with no load.
func TestClockSendsBegunSlot(t *testing.T) {
	const interval, before = time.Millisecond, 3
	st, err := New(Config{Videos: []VideoConfig{
		{Segments: 5, TrackSegments: true},
		{Segments: 5, TrackSegments: true},
	}, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	f := installFakeClock(st)
	var ticks, walked [][]core.SlotReport // copies: the clock reuses its slice
	if err := st.StartClock(interval, nil, func(reports []core.SlotReport) {
		row := make([]core.SlotReport, len(reports))
		for v, rep := range reports {
			row[v] = core.SlotReport{Slot: rep.Slot, Load: rep.Load, Segments: slices.Clone(rep.Segments)}
		}
		ticks = append(ticks, row)
		seen := make([]core.SlotReport, len(reports))
		st.EachActive(func(_, v int, rep core.SlotReport) bool {
			seen[v] = core.SlotReport{Slot: rep.Slot, Load: rep.Load, Segments: slices.Clone(rep.Segments)}
			return false
		})
		walked = append(walked, seen)
	}); err != nil {
		t.Fatal(err)
	}
	f.runFor(before * interval)
	i := st.Status().PerVideo[1].Slot
	res, err := st.Admit(1, core.AdmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if i != before || res.Slot != i {
		t.Fatalf("admitted in slot %d after %d ticks (status slot %d)", res.Slot, before, i)
	}
	f.runFor(interval)
	if len(ticks) != before+1 {
		t.Fatalf("%d ticks, want %d", len(ticks), before+1)
	}
	for k, row := range ticks[:before] {
		for v, rep := range row {
			if rep.Slot != k+1 || rep.Load != 0 {
				t.Fatalf("tick %d video %d: idle report %+v, want slot %d", k+1, v, rep, k+1)
			}
		}
	}
	next, seen := ticks[before], walked[before]
	if next[0].Slot != i+1 || next[0].Load != 0 {
		t.Fatalf("idle video at the next tick: %+v, want slot %d with no load", next[0], i+1)
	}
	for _, rep := range []core.SlotReport{next[1], seen[1]} {
		if rep.Slot != i+1 || rep.Load != 1 || !slices.Equal(rep.Segments, []int{1}) {
			t.Fatalf("admitted video at the next tick: %+v, want slot %d carrying segment 1", rep, i+1)
		}
	}
}

// TestClockBeforeHookAdmitsIntoCurrentSlot: the hook StartClock runs before
// each advance sees the slot that is still current, so an admission it makes
// at the k-th tick lands in slot k-1, and that very tick's report carries the
// customer's first segment as slot k.
func TestClockBeforeHookAdmitsIntoCurrentSlot(t *testing.T) {
	const interval, k = time.Millisecond, 4
	st, err := New(Config{Videos: []VideoConfig{{Segments: 5, TrackSegments: true}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	f := installFakeClock(st)
	var (
		hooks int
		res   core.AdmitResult
		ticks []core.SlotReport
	)
	before := func() {
		if hooks++; hooks == k {
			if res, err = st.Admit(0, core.AdmitOptions{}); err != nil {
				panic(err)
			}
		}
	}
	if err := st.StartClock(interval, before, func(reports []core.SlotReport) {
		ticks = append(ticks, core.SlotReport{Slot: reports[0].Slot, Load: reports[0].Load,
			Segments: slices.Clone(reports[0].Segments)})
	}); err != nil {
		t.Fatal(err)
	}
	f.runFor(k * interval)
	if hooks != k || len(ticks) != k {
		t.Fatalf("%d hook runs and %d ticks, want %d of each", hooks, len(ticks), k)
	}
	if res.Slot != k-1 {
		t.Fatalf("the hook at tick %d admitted into slot %d, want %d", k, res.Slot, k-1)
	}
	if rep := ticks[k-1]; rep.Slot != k || rep.Load != 1 || !slices.Equal(rep.Segments, []int{1}) {
		t.Fatalf("tick %d reports %+v, want slot %d carrying segment 1", k, rep, k)
	}
}

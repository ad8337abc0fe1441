package station

import (
	"errors"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"vodcast/internal/core"
	"vodcast/internal/obs"
)

// wallClockLag runs a clock on the wall wait over an idle two-video station
// for ticks 5 ms ticks and returns its lag window.
func wallClockLag(t *testing.T, ticks int) obs.WindowSnapshot {
	t.Helper()
	const interval = 5 * time.Millisecond
	st, err := New(Config{Videos: testCatalogue(2, 5)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	done := make(chan struct{})
	n := 0
	if err := st.StartClock(interval, func([]core.SlotReport) {
		if n++; n == ticks {
			close(done)
		}
	}); err != nil {
		t.Fatal(err)
	}
	limit := 100 * time.Duration(ticks) * interval
	select {
	case <-done:
	case <-time.After(limit):
		t.Fatalf("%d ticks did not run in %v", ticks, limit)
	}
	lag := st.Status().Clock.Lag
	t.Logf("clock lag over %d ticks: p50 %.0fµs, p99 %.0fµs", lag.Count, lag.P50*1e6, lag.P99*1e6)
	return lag
}

// TestWallClockWakesOnGrid: an idle station's clock, on the wall wait, ticks
// within 250 µs of its grid points at the median. A time.Timer misses that by
// about half a millisecond: an idle runtime sleeps in epoll_wait with its
// timers' timeout cut to whole milliseconds, so the wake lands on the next
// millisecond past the grid point.
func TestWallClockWakesOnGrid(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the wall wait is a timerfd on Linux only; elsewhere it is a time.Timer, which an idle runtime wakes up to a millisecond late")
	}
	if limit, lag := 250*time.Microsecond, wallClockLag(t, 200); lag.P50 >= limit.Seconds() {
		t.Fatalf("idle clock lag p50 %.0fµs, want under %v", lag.P50*1e6, limit)
	}
}

// TestWallClockWakesOnGridWhenBusy: with its one P kept busy by goroutines
// that yield but never leave the run queue empty, the runtime polls the
// timerfd only from sysmon, up to 10 ms late, and the clock is woken by the
// read deadline backstop instead: at the median, under 2.5 ms past its grid
// point, where the timerfd alone reads about 5 ms.
func TestWallClockWakesOnGridWhenBusy(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the backstop is part of the Linux timerfd wait")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for end := time.Now().Add(20 * time.Microsecond); time.Now().Before(end); {
				}
				runtime.Gosched()
			}
		}()
	}
	defer wg.Wait()
	defer close(stop)
	if limit, lag := 2500*time.Microsecond, wallClockLag(t, 200); lag.P50 >= limit.Seconds() {
		t.Fatalf("busy clock lag p50 %.0fµs, want under %v", lag.P50*1e6, limit)
	}
}

// TestWallWaitFDLifecycle: the timerfd is the clock's, not the station's.
// New opens nothing, StartClock opens one fd, Close closes it, and a
// StartClock refused by a closed station opens nothing.
func TestWallWaitFDLifecycle(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the wall wait holds an fd on Linux only")
	}
	openFDs := func() int {
		t.Helper()
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(fds)
	}
	newStation := func() *Station {
		t.Helper()
		st, err := New(Config{Videos: testCatalogue(2, 5)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(st.Close)
		return st
	}
	// The runtime poller's own fds open on its first use and stay: one
	// clock run first, so they are in the baseline.
	warm := newStation()
	if err := warm.StartClock(time.Hour, nil); err != nil {
		t.Fatal(err)
	}
	warm.Close()
	base := openFDs()

	idle := newStation()
	if n := openFDs(); n != base {
		t.Fatalf("New: %d fds open, %d before", n, base)
	}
	idle.Close()
	if n := openFDs(); n != base {
		t.Fatalf("Close without a clock: %d fds open, %d before", n, base)
	}

	st := newStation()
	if err := st.StartClock(time.Hour, nil); err != nil {
		t.Fatal(err)
	}
	if n := openFDs(); n != base+1 {
		t.Fatalf("StartClock: %d fds open, want %d", n, base+1)
	}
	st.Close()
	if n := openFDs(); n != base {
		t.Fatalf("Close: %d fds open, want %d", n, base)
	}
	if err := st.StartClock(time.Hour, nil); !errors.Is(err, errClosed) {
		t.Fatalf("StartClock after Close: %v", err)
	}
	if n := openFDs(); n != base {
		t.Fatalf("refused StartClock: %d fds open, want %d", n, base)
	}
}

// TestWallWaitZeroAlloc: an armed wall wait, and the portable timer it falls
// back to, allocate nothing per tick.
func TestWallWaitZeroAlloc(t *testing.T) {
	waits := map[string]func() (func(time.Duration) <-chan time.Time, func()){
		"wall":  wallWait,
		"timer": func() (func(time.Duration) <-chan time.Time, func()) { return timerWait(), func() {} },
	}
	for name, open := range waits {
		t.Run(name, func(t *testing.T) {
			wait, release := open()
			defer release()
			tick := func() { <-wait(20 * time.Microsecond) }
			tick()
			if allocs := testing.AllocsPerRun(100, tick); allocs != 0 {
				t.Fatalf("an armed wait allocates %.1f/tick, want 0", allocs)
			}
		})
	}
}

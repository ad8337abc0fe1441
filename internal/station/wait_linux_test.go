package station

import (
	"sync/atomic"
	"testing"
)

// TestWallWaitReadsOncePerTick: a wait reads the timerfd once, on the
// poller's wake, and never before it parks. Over 200 ticks of an idle
// station the clock makes at most 1.1 timerfd reads a tick, where reading
// before each wait as well made two: the first nearly always found nothing
// due.
func TestWallWaitReadsOncePerTick(t *testing.T) {
	const ticks = 200
	var reads atomic.Int64
	defer func(read func(int, []byte) (int, error)) { timerRead = read }(timerRead)
	read := timerRead
	timerRead = func(fd int, b []byte) (int, error) {
		reads.Add(1)
		return read(fd, b)
	}
	lag := wallClockLag(t, ticks)
	perTick := float64(reads.Load()) / float64(lag.Total)
	t.Logf("%d timerfd reads over %d ticks: %.2f a tick", reads.Load(), lag.Total, perTick)
	if perTick > 1.1 {
		t.Fatalf("%d timerfd reads over %d ticks: %.2f a tick, want at most 1.1", reads.Load(), lag.Total, perTick)
	}
}

//go:build !linux

package station

import "time"

// wallWait is the clock's wait on platforms without timerfd: the portable
// timerWait, which holds nothing to release.
func wallWait() (wait func(time.Duration) <-chan time.Time, release func()) {
	return timerWait(), func() {}
}

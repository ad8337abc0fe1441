//go:build linux

package station

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// clockMonotonic is CLOCK_MONOTONIC, which the syscall package does not name.
const clockMonotonic = 1

// itimerspec mirrors the kernel's struct itimerspec: a zero interval makes
// the timer one-shot.
type itimerspec struct {
	interval, value syscall.Timespec
}

// backstop is how long past its grid point a wait falls back on a runtime
// timer. The timerfd's wake is an fd event, and a P busy with runnable
// goroutines polls for one only once its run queue drains, or when sysmon
// does, up to 10 ms later; a runtime timer runs at the P's next scheduling
// point. At one millisecond, the poller's rounding unit, an idle runtime's
// epoll timeout for the backstop never ends before the timerfd fires, so the
// backstop costs an idle clock no extra wake-up.
const backstop = time.Millisecond

// wallWait opens the clock's wait on a one-shot CLOCK_MONOTONIC timerfd. The
// fd is non-blocking and wrapped by os.NewFile, so its reader goroutine parks
// in the runtime poller and wakes on the fd event at the kernel's hrtimer
// precision: an idle runtime sleeps in epoll_wait with its own timers'
// timeout cut to whole milliseconds, so a time.Timer wakes up to a
// millisecond past its grid point. The reader owns the timerfd and its read
// deadline, so no expiry of one wait can leak into the next: wait hands it d
// on arm, and it hands back one wake per wait on fired, which the clock
// drains before it waits again. release closes the fd and joins the reader.
// A kernel without timerfd, or an fd the poller refuses, falls back to
// timerWait.
//
// A wait makes one read(2), on the poller's wake. The raw read's callback
// runs once before the reader parks, after the poller has forgotten the fd's
// earlier readiness, and that first call arms the timer instead of reading:
// a read there would nearly always find nothing due, and an expiry that
// lands at once is an edge the parked reader still sees.
func wallWait() (wait func(time.Duration) <-chan time.Time, release func()) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return timerWait(), func() {}
	}
	f := os.NewFile(fd, "timerfd")
	raw, err := f.SyscallConn()
	// Only a pollable file takes a deadline: a blocking read could not be
	// interrupted by release.
	if err != nil || f.SetReadDeadline(time.Time{}) != nil {
		f.Close()
		return timerWait(), func() {}
	}
	arm := make(chan time.Duration, 1)
	fired := make(chan time.Time, 1)
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		var (
			spec  itimerspec
			armed bool
		)
		expirations := make([]byte, 8)
		wake := func(fd uintptr) bool {
			if !armed {
				// A zero it_value disarms the timer: the shortest wait is
				// 1ns. Arming also drops an expiry left unread when the
				// backstop woke first. The call cannot fail while the fd
				// is open, and only release closes it.
				armed = true
				syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0,
					uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
				return false
			}
			_, err := timerRead(int(fd), expirations)
			return err != syscall.EAGAIN
		}
		for d := range arm {
			spec.value = syscall.NsecToTimespec(max(int64(d), 1))
			armed = false
			f.SetReadDeadline(time.Now().Add(d + backstop))
			// The read ends on the expiry, on the backstop's deadline, or
			// because release closed arm and then the fd. Each is a wake,
			// and fired is empty for it: the clock drains fired before it
			// arms again, and arms nothing once release has begun.
			raw.Read(wake)
			fired <- time.Now()
		}
	}()
	wait = func(d time.Duration) <-chan time.Time {
		arm <- d
		return fired
	}
	release = func() {
		close(arm)
		f.Close()
		<-exited
	}
	return wait, release
}

// timerRead reads the timerfd's expiry count: syscall.Read, which a test
// may wrap to count the clock's reads.
var timerRead = syscall.Read

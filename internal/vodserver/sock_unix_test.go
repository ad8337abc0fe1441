//go:build linux || darwin

package vodserver

import (
	"syscall"
	"testing"
)

// setSendBuffer sets the send buffer of socket fd to n bytes.
func setSendBuffer(t *testing.T, fd, n int) {
	t.Helper()
	if err := syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_SNDBUF, n); err != nil {
		t.Fatal(err)
	}
}

// fullPipe returns the write end of a non-blocking pipe filled to the brim,
// on which every write fails with EAGAIN, as on a full socket. Both ends are
// closed when the test ends.
func fullPipe(t *testing.T) int {
	t.Helper()
	var p [2]int
	if err := syscall.Pipe(p[:]); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(p[0]); syscall.Close(p[1]) })
	if err := syscall.SetNonblock(p[1], true); err != nil {
		t.Fatal(err)
	}
	fill := make([]byte, 64<<10)
	for {
		if _, err := syscall.Write(p[1], fill); err == syscall.EAGAIN {
			return p[1]
		} else if err != nil {
			t.Fatal(err)
		}
	}
}

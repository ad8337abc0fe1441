//go:build linux || darwin

package vodserver

import (
	"syscall"
	"unsafe"
)

// rawWrites reports whether the tick may write a parked handler's frames
// itself, through the connection's raw access (subscriber.WriteDirect).
const rawWrites = true

// iovec is one buffer of a vectored write.
type iovec = syscall.Iovec

// makeIovec points an iovec at b, which must not be empty.
func makeIovec(b []byte) iovec {
	v := iovec{Base: &b[0]}
	v.SetLen(len(b))
	return v
}

// writev makes one writev(2) of iov on fd and returns the bytes written, 0
// on any error.
func writev(fd uintptr, iov []iovec) int {
	n, _, errno := syscall.Syscall(syscall.SYS_WRITEV, fd, uintptr(unsafe.Pointer(&iov[0])), uintptr(len(iov)))
	if errno != 0 {
		return 0
	}
	return int(n)
}

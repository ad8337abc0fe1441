//go:build linux || darwin

package vodserver

import (
	"syscall"
	"unsafe"
)

// iovec is one buffer of a vectored write.
type iovec = syscall.Iovec

// makeIovec points an iovec at b, which must not be empty.
func makeIovec(b []byte) iovec {
	v := iovec{Base: &b[0]}
	v.SetLen(len(b))
	return v
}

// writev makes one writev(2) of iov on fd and returns the bytes written.
func writev(fd int, iov []iovec) (int, error) {
	n, _, errno := syscall.Syscall(syscall.SYS_WRITEV, uintptr(fd), uintptr(unsafe.Pointer(&iov[0])), uintptr(len(iov)))
	if errno != 0 {
		return 0, errno
	}
	return int(n), nil
}

// readFD makes one read(2) into b on fd; n is 0 on an error.
func readFD(fd int, b []byte) (int, error) {
	n, err := syscall.Read(fd, b)
	return max(n, 0), err
}

// writeFD makes one best-effort write(2) of b on fd: its caller closes the
// socket next, whatever the write did.
func writeFD(fd int, b []byte) {
	syscall.Write(fd, b)
}

// closeFD closes fd; a socket's close error leaves nothing to do.
func closeFD(fd int) {
	syscall.Close(fd)
}

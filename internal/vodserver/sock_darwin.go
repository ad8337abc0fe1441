package vodserver

import (
	"syscall"
	"time"
)

// deferAccept is 0: darwin has no TCP_DEFER_ACCEPT, so a connection is
// accepted before its request arrives, and the clock's retry reads it.
const deferAccept time.Duration = 0

// listenOptions sets TCP_NODELAY, which every accepted socket inherits: each
// write leaves at once.
func listenOptions(fd int) error {
	return syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1)
}

// acceptConn takes one connection off listening socket fd, non-blocking and
// close-on-exec.
func acceptConn(fd int) (int, syscall.Sockaddr, error) {
	syscall.ForkLock.RLock()
	nfd, sa, err := syscall.Accept(fd)
	if err == nil {
		syscall.CloseOnExec(nfd)
	}
	syscall.ForkLock.RUnlock()
	if err != nil {
		return -1, nil, err
	}
	if err := syscall.SetNonblock(nfd, true); err != nil {
		syscall.Close(nfd)
		return -1, nil, err
	}
	return nfd, sa, nil
}

package vodserver

import (
	"syscall"
	"time"
)

// deferAccept is how long the kernel holds a connection that has sent
// nothing before accept returns it anyway (TCP_DEFER_ACCEPT): a request
// that arrives with the handshake is accepted with the request queued, so
// one read serves it. A silent connection is cut this much later than the
// read bound alone would cut it.
const deferAccept = time.Second

// listenOptions sets TCP_DEFER_ACCEPT, and TCP_NODELAY, which every accepted
// socket inherits: each write leaves at once.
func listenOptions(fd int) error {
	if err := syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_DEFER_ACCEPT, int(deferAccept/time.Second)); err != nil {
		return err
	}
	return syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1)
}

// acceptConn takes one connection off listening socket fd, non-blocking and
// close-on-exec.
func acceptConn(fd int) (int, syscall.Sockaddr, error) {
	return syscall.Accept4(fd, syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC)
}

package vodserver

import (
	"context"
	"net"
	"syscall"
)

// listener is the session listener: a raw non-blocking listening socket
// outside the runtime poller. Nothing waits on it: the slot clock accepts
// what has queued on it once a slot, and the connections it accepts stay
// outside the poller too.
type listener struct {
	fd   int
	addr *net.TCPAddr
	// accept takes one connection off the listening socket fd: acceptConn,
	// which a test may wrap to inject failures.
	accept func(fd int) (int, syscall.Sockaddr, error)
}

// listen binds a listener on address, as net.Listen does, with
// listenOptions set, and takes its socket out of the net package: a
// duplicate descriptor, non-blocking like the original, which the poller
// does not watch. Every error path closes what it opened.
func listen(address string) (*listener, error) {
	lc := net.ListenConfig{Control: func(_, _ string, c syscall.RawConn) error {
		var err error
		if cerr := c.Control(func(fd uintptr) { err = listenOptions(int(fd)) }); cerr != nil {
			return cerr
		}
		return err
	}}
	nl, err := lc.Listen(context.Background(), "tcp", address)
	if err != nil {
		return nil, err
	}
	defer nl.Close() // the duplicate keeps the socket listening
	raw, err := nl.(*net.TCPListener).SyscallConn()
	if err != nil {
		return nil, err
	}
	fd := -1
	if cerr := raw.Control(func(lfd uintptr) { fd, err = dupFD(int(lfd)) }); cerr != nil {
		return nil, cerr
	}
	if err != nil {
		return nil, err
	}
	return &listener{fd: fd, addr: nl.Addr().(*net.TCPAddr), accept: acceptConn}, nil
}

// tcpAddr converts a socket address to the net package's.
func tcpAddr(sa syscall.Sockaddr) *net.TCPAddr {
	switch a := sa.(type) {
	case *syscall.SockaddrInet4:
		return &net.TCPAddr{IP: net.IPv4(a.Addr[0], a.Addr[1], a.Addr[2], a.Addr[3]), Port: a.Port}
	case *syscall.SockaddrInet6:
		return &net.TCPAddr{IP: append(net.IP(nil), a.Addr[:]...), Port: a.Port}
	}
	return &net.TCPAddr{}
}

// Close closes the listening socket. Its caller makes sure no accept is
// running on it: a descriptor closed under a running accept may already
// name another file by the time the accept starts.
func (ln *listener) Close() { closeFD(ln.fd) }

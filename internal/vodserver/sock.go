package vodserver

import (
	"context"
	"net"
	"os"
	"syscall"
)

// listener is the session listener: a raw non-blocking socket whose own
// readiness is all the runtime poller watches. The connections it accepts
// never enter the poller: the tick writes and reads them directly.
type listener struct {
	f    *os.File
	raw  syscall.RawConn
	addr *net.TCPAddr
	// accept takes one connection off the listening socket fd: acceptConn,
	// which a test may wrap to inject failures.
	accept func(fd int) (int, syscall.Sockaddr, error)
}

// listen binds a listener on address, as net.Listen does, with
// listenOptions set, and takes its socket out of the net package: a
// duplicate descriptor, non-blocking like the original, in an *os.File the
// poller watches. Every error path closes what it opened.
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
	f, err := nl.(*net.TCPListener).File()
	if err != nil {
		return nil, err
	}
	raw, err := f.SyscallConn()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &listener{f: f, raw: raw, addr: nl.Addr().(*net.TCPAddr), accept: acceptConn}, nil
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

// next waits for a connection and takes it off the listener: a raw
// non-blocking descriptor and its peer. The error is accept's, or
// net.ErrClosed once Close closed the listener.
func (ln *listener) next() (fd int, peer syscall.Sockaddr, err error) {
	werr := ln.raw.Read(func(lfd uintptr) bool {
		fd, peer, err = ln.accept(int(lfd))
		return err != syscall.EAGAIN
	})
	if werr != nil {
		return -1, nil, net.ErrClosed
	}
	return fd, peer, err
}

// Close closes the listening socket, waking a next that waits.
func (ln *listener) Close() error { return ln.f.Close() }

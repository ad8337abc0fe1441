//go:build !(linux || darwin)

package vodserver

import (
	"errors"
	"syscall"
	"time"
)

// Sessions are served on raw non-blocking sockets, which this platform's
// socket handles are not: the package builds, and listen, so Start, fails.
var errUnsupported = errors.New("vodserver: sessions are served on Linux and darwin only")

const deferAccept time.Duration = 0

func listenOptions(int) error { return errUnsupported }

func acceptConn(int) (int, syscall.Sockaddr, error) { return -1, nil, errUnsupported }

type iovec struct{}

func makeIovec([]byte) iovec { return iovec{} }

func writev(int, []iovec) (int, error) { return 0, errUnsupported }

func readFD(int, []byte) (int, error) { return 0, errUnsupported }

func writeFD(int, []byte) {}

func closeFD(int) {}

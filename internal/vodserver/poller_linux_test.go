package vodserver

import (
	"net"
	"os"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"vodcast/internal/wire"
)

// pollerFDs returns the descriptors registered in the process's runtime
// poller: the tfd of every registration /proc/self/fdinfo lists for its
// anon_inode:[eventpoll] descriptor.
func pollerFDs(t *testing.T) map[int]bool {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list fds: %v", err)
	}
	for _, e := range ents {
		if link, err := os.Readlink("/proc/self/fd/" + e.Name()); err != nil || link != "anon_inode:[eventpoll]" {
			continue
		}
		info, err := os.ReadFile("/proc/self/fdinfo/" + e.Name())
		if err != nil {
			t.Fatal(err)
		}
		fds := map[int]bool{}
		for _, line := range strings.Split(string(info), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "tfd:" {
				fd, err := strconv.Atoi(f[1])
				if err != nil {
					t.Fatalf("fdinfo line %q: %v", line, err)
				}
				fds[fd] = true
			}
		}
		return fds
	}
	t.Fatal("no eventpoll descriptor in the process")
	return nil
}

// controlFD returns the descriptor behind a raw connection.
func controlFD(t *testing.T, raw syscall.RawConn) int {
	t.Helper()
	fd := -1
	if err := raw.Control(func(f uintptr) { fd = int(f) }); err != nil {
		t.Fatal(err)
	}
	return fd
}

// TestSessionSocketsStayOutOfThePoller pins what a session's single wake-up
// rests on: while sessions stream, the runtime poller watches the session
// listener and the stats listener, and none of the session sockets. A
// session socket in the poller would cost a registration and a wake-up per
// readiness change even if nothing ever waited on it.
func TestSessionSocketsStayOutOfThePoller(t *testing.T) {
	const sessions = 4
	s, err := Start(Config{
		Addr:         "127.0.0.1:0",
		StatsAddr:    "127.0.0.1:0",
		Videos:       []VideoConfig{{ID: 1, Segments: 200, SegmentBytes: 64}},
		SlotDuration: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNoFrameLeak(t, s)
	for range sessions {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(conn, wire.Request{VideoID: 1, Version: wire.ProtoV2, Flags: wire.FlagNoReport}); err != nil {
			t.Fatal(err)
		}
		if _, err := wire.ReadFrame(conn); err != nil {
			t.Fatal(err)
		}
	}
	subs := s.videos[1].rec.Load().subs.Snapshot()
	if len(subs) != sessions {
		t.Fatalf("%d live sessions, want %d", len(subs), sessions)
	}
	registered := pollerFDs(t)
	statsRaw, err := s.statsLn.(*net.TCPListener).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	for name, fd := range map[string]int{"session": controlFD(t, s.ln.raw), "stats": controlFD(t, statsRaw)} {
		if !registered[fd] {
			t.Fatalf("the %s listener (fd %d) is not in the poller: registrations %v", name, fd, registered)
		}
	}
	for _, sub := range subs {
		if registered[sub.fd] {
			t.Fatalf("session socket fd %d is registered in the poller", sub.fd)
		}
	}
}

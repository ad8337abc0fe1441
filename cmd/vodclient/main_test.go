package main

import (
	"strings"
	"testing"
	"time"

	"vodcast/internal/vodclient"
	"vodcast/internal/vodserver"
)

// TestRunStrictFleet: `vodclient -count N -strict` is the documented probe of
// a running server. A healthy server passes the whole fleet through the exact
// STB oracle and counts every customer; one that withholds a scheduled
// instance makes the probe fail.
func TestRunStrictFleet(t *testing.T) {
	const fleet = 24
	opts := vodclient.FetchOptions{VideoID: 1, Timeout: 10 * time.Second, StrictDeadlines: true}
	start := func(drop func(video uint32, segment, slot int) bool) *vodserver.Server {
		t.Helper()
		srv, err := vodserver.Start(vodserver.Config{
			Addr:         "127.0.0.1:0",
			Videos:       []vodserver.VideoConfig{{ID: 1, Segments: 6, SegmentBytes: 64}},
			SlotDuration: 5 * time.Millisecond,
			DropInstance: drop,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv
	}

	healthy := start(nil)
	if err := run(healthy.Addr(), opts, fleet); err != nil {
		t.Fatalf("healthy server failed the probe: %v", err)
	}
	if got := healthy.Stats().Requests; got != fleet {
		t.Fatalf("Stats().Requests = %d, want %d", got, fleet)
	}

	faulty := start(func(video uint32, segment, slot int) bool { return segment == 1 })
	if err := run(faulty.Addr(), opts, fleet); err == nil {
		t.Fatal("probe passed against a server that never transmits segment 1")
	}
}

// TestParseFlagsRejectsWrappingIDs: video ids and segment numbers are 32-bit
// on the wire, so a flag value above math.MaxUint32 is refused instead of
// wrapping (-from 4294967297 would otherwise request segment 1).
func TestParseFlagsRejectsWrappingIDs(t *testing.T) {
	addr, opts, count, err := parseFlags([]string{
		"-addr", "10.0.0.1:1", "-video", "4294967295", "-from", "7", "-count", "3", "-strict"})
	if err != nil {
		t.Fatal(err)
	}
	if addr != "10.0.0.1:1" || count != 3 || opts.VideoID != 4294967295 || opts.From != 7 ||
		!opts.StrictDeadlines || opts.Timeout != 5*time.Minute {
		t.Fatalf("parseFlags = %q %+v %d", addr, opts, count)
	}
	for _, args := range [][]string{{"-from", "4294967297"}, {"-video", "4294967296"}} {
		if _, _, _, err := parseFlags(args); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("parseFlags(%q) error = %v, want out of range", args, err)
		}
	}
}

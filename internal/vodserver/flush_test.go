package vodserver

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"slices"
	"strconv"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"vodcast/internal/client"
	"vodcast/internal/conntrack"
	"vodcast/internal/core"
	"vodcast/internal/wire"
)

// The flush rule: the tick writes a session only when a deadline forces it.
// Each test plays the handler's steps by hand on a built server and drives
// every tick itself, as in direct_test.go, so the outcome depends on no
// wall clock.

// flushGroups is the flush rule worked by hand for one admission: the
// slots a session's writes carry, one group per write. Walking the
// subscription slot by slot, a needed slot is held; at the last slot, or at
// the deadline admitSlot + T[j-from+1] of any held segment j, every held
// slot leaves in one write, the last slot's frame always among them.
func flushGroups(res core.AdmitResult, from int, periods []int) [][]int {
	n := len(periods) - 1
	last := res.Slot + slices.Max(periods[1:n-from+2])
	var (
		groups    [][]int
		held      []int
		deadlines []int
	)
	for k := res.Slot + 1; k <= last; k++ {
		for j := from; j <= n; j++ {
			if res.Assignment[j] == k {
				deadlines = append(deadlines, res.Slot+periods[j-from+1])
				if !slices.Contains(held, k) {
					held = append(held, k)
				}
			}
		}
		if k == last && !slices.Contains(held, k) {
			held = append(held, k)
		}
		if (k == last || slices.Contains(deadlines, k)) && len(held) > 0 {
			groups = append(groups, held)
			held, deadlines = nil, nil
		}
	}
	return groups
}

// boundaryRaw logs how many bytes each of the tick's direct writes to one
// session put on the wire.
type boundaryRaw struct {
	syscall.RawConn
	sub *subscriber
	log *[]int
}

func (r boundaryRaw) Write(f func(fd uintptr) bool) error {
	err := r.RawConn.Write(f)
	*r.log = append(*r.log, r.sub.n)
	return err
}

// splitWrites cuts a session's stream, past its ScheduleInfo, at the given
// write lengths and returns the slots each write closed with a SlotEnd. It
// fails unless every write holds whole frames and the writes cover the
// stream exactly.
func splitWrites(t *testing.T, stream []byte, writes []int) [][]int {
	t.Helper()
	rd := bytes.NewReader(stream)
	if msg, err := wire.ReadFrame(rd); err != nil {
		t.Fatal(err)
	} else if _, ok := msg.(wire.ScheduleInfo); !ok {
		t.Fatalf("first frame is %T, want the ScheduleInfo", msg)
	}
	rest := stream[len(stream)-rd.Len():]
	var groups [][]int
	for _, n := range writes {
		if n > len(rest) {
			t.Fatalf("writes of %v bytes overrun the %d-byte stream", writes, len(stream))
		}
		br := bufio.NewReader(bytes.NewReader(rest[:n]))
		var slots []int
		for {
			msg, err := wire.ReadFrame(br)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("a %d-byte write does not hold whole frames: %v", n, err)
			}
			if end, ok := msg.(wire.SlotEnd); ok {
				slots = append(slots, int(end.Slot))
			}
		}
		groups = append(groups, slots)
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes of the stream were not written by the tick", len(rest))
	}
	return groups
}

// TestWriteBoundariesAreFlushSlots: five sessions on one video, full
// viewings and resumes, some admitted in the same slot, each parked before
// its first tick. The tick writes every byte of each, one write per flush:
// the write boundaries are the flush rule's groups for the admission
// recomputed on a twin scheduler fed the same admissions, some write
// carries more than one slot, and no write is late.
func TestWriteBoundariesAreFlushSlots(t *testing.T) {
	const segments = 12
	s := startManualServer(t, VideoConfig{ID: 1, Segments: segments, SegmentBytes: 64})
	periods := cbrPeriods(segments)
	type run struct {
		ss     *session
		cli    *net.TCPConn
		srv    *net.TCPConn
		writes *[]int
		want   [][]int
	}
	var (
		runs []run
		twin *core.Scheduler
		last int
	)
	for _, a := range []struct{ gap, from int }{{0, 1}, {5, 1}, {0, 7}, {2, 1}, {3, 4}} {
		for range a.gap {
			tick(s)
		}
		srv, cli := loopback(t)
		sub, info, _, err := s.admit(1, uint32(a.from), srv, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.unsubscribe(sub) })
		writes := new([]int)
		sub.raw = boundaryRaw{RawConn: sub.raw, sub: sub, log: writes}
		ss := &session{sub: sub, info: info, done: make(chan bool, 1)}
		ss.serve(t, s, srv)
		ss.waitParked(t, s)
		if twin == nil {
			if twin, err = core.New(core.Config{Segments: segments, StartSlot: int(info.AdmitSlot)}); err != nil {
				t.Fatal(err)
			}
		}
		for twin.CurrentSlot() < int(info.AdmitSlot) {
			twin.AdvanceSlot()
		}
		res, err := twin.AdmitRequest(core.AdmitOptions{From: a.from, WantAssignment: true})
		if err != nil {
			t.Fatal(err)
		}
		want := flushGroups(res, a.from, periods)
		last = max(last, slices.Max(want[len(want)-1]))
		runs = append(runs, run{ss: ss, cli: cli, srv: srv, writes: writes, want: want})
	}
	for s.station.Status().PerVideo[0].Slot < last {
		tick(s)
	}
	coalesced := false
	for i, r := range runs {
		if !<-r.ss.done {
			t.Fatalf("session %d: drain reported a failed write", i)
		}
		s.unsubscribe(r.ss.sub)
		r.srv.Close()
		stream, err := io.ReadAll(r.cli)
		if err != nil {
			t.Fatal(err)
		}
		got := splitWrites(t, stream, *r.writes)
		if !slices.EqualFunc(got, r.want, slices.Equal[[]int]) {
			t.Fatalf("session %d (admit %d): writes carry slots %v, want the flush groups %v",
				i, r.ss.info.AdmitSlot, got, r.want)
		}
		if got[0][0] != int(r.ss.info.AdmitSlot)+1 {
			t.Fatalf("session %d: first write carries %v, want slot admit+1 = %d first",
				i, got[0], r.ss.info.AdmitSlot+1)
		}
		for _, g := range got {
			coalesced = coalesced || len(g) > 1
		}
	}
	if !coalesced {
		t.Fatal("no write carried more than one slot: the admissions share nothing")
	}
	if n := lateWrites(s); n != 0 {
		t.Fatalf("%d late writes on sessions the tick wrote on time", n)
	}
}

// lateWrites sums vod_late_writes_total over its paths.
func lateWrites(s *Server) int64 {
	var n int64
	for _, c := range s.mLateWrites {
		n += int64(c.Value())
	}
	return n
}

// TestLateWritesCountStrictMisses: a session's handler starts draining
// only once the tick has begun the slot after its first deadline, so its
// first write carries a segment past that deadline; a second session on
// the same video is served on time. vod_late_writes_total equals the misses
// a strict set-top box counts when it takes each slot's segments at the
// slot their write completed in, and only the late session's conntrack
// record and span tree carry the mark.
func TestLateWritesCountStrictMisses(t *testing.T) {
	const segments = 8
	s := buildServer(t, Config{Videos: []VideoConfig{{ID: 1, Segments: segments, SegmentBytes: 64}},
		SlotDuration: time.Second, SpanSampleEvery: 1})
	periods := cbrPeriods(segments)

	type viewer struct {
		ss       *session
		srv, cli *net.TCPConn
		stb      *client.STB
		br       *bufio.Reader
	}
	open := func() *viewer {
		srv, cli := loopback(t)
		ss := admitSession(t, s, srv, 1)
		stb, err := client.NewFrom(int(ss.info.AdmitSlot), periods, 1)
		if err != nil {
			t.Fatal(err)
		}
		return &viewer{ss: ss, srv: srv, cli: cli, stb: stb, br: bufio.NewReader(cli)}
	}
	// serve starts v's drain under a sampled admit root, as handleConn does.
	serve := func(v *viewer) {
		root := s.spans.StartSpan("admit")
		if err := wire.WriteFrame(v.srv, v.ss.info); err != nil {
			t.Fatal(err)
		}
		go func() {
			v.ss.done <- s.drainRing(v.srv, v.ss.sub, int(v.ss.info.AdmitSlot), root.Child("first_byte_wait"), root)
		}()
		if msg, err := wire.ReadFrame(v.br); err != nil {
			t.Fatal(err)
		} else if _, ok := msg.(wire.ScheduleInfo); !ok {
			t.Fatalf("first frame is %T, want the ScheduleInfo", msg)
		}
	}
	// take reads v's stream through the SlotEnd of slot and feeds the STB
	// every segment read as arriving in slot now, the slot whose tick the
	// write completed after.
	take := func(v *viewer, slot, now int) {
		var segs []int
		for {
			msg, err := wire.ReadFrame(v.br)
			if err != nil {
				t.Fatalf("reading through slot %d: %v", slot, err)
			}
			switch m := msg.(type) {
			case wire.Segment:
				segs = append(segs, int(m.Segment))
			case wire.SlotEnd:
				if int(m.Slot) < slot {
					continue
				}
				if err := v.stb.ObserveSlot(now, segs); err != nil && !errors.Is(err, client.ErrMissedDeadline) {
					t.Fatal(err)
				}
				return
			}
		}
	}

	late, onTime := open(), open()
	serve(onTime)
	onTime.ss.waitParked(t, s)
	admit := int(late.ss.info.AdmitSlot)
	// Alone on the video, both are written every slot: no slot is held.
	// The late handler is not draining through two ticks, so slot admit+1
	// — the deadline of segment 1 — is still queued when admit+2 begins.
	for now := admit + 1; now <= admit+2; now++ {
		tick(s)
		take(onTime, now, now)
	}
	serve(late)
	take(late, admit+2, admit+2)
	late.ss.waitParked(t, s)
	for now := admit + 3; now <= admit+segments; now++ {
		tick(s)
		take(late, now, now)
		take(onTime, now, now)
	}
	for _, v := range []*viewer{late, onTime} {
		if !<-v.ss.done {
			t.Fatal("drain reported a failed write")
		}
	}
	for _, v := range []*viewer{late, onTime} {
		if !v.stb.Complete() {
			t.Fatal("a session's set-top box is missing segments")
		}
	}
	misses := late.stb.QoE().Misses + onTime.stb.QoE().Misses
	if misses != 1 {
		t.Fatalf("the strict set-top boxes counted %d misses, want 1", misses)
	}
	if n := lateWrites(s); n != int64(misses) {
		t.Fatalf("vod_late_writes_total = %d, want the %d misses the set-top boxes counted", n, misses)
	}
	if n := s.mLateWrites[lateByHandler].Value(); n != 1 {
		t.Fatalf("vod_late_writes_total{path=\"handler\"} = %v, want 1", n)
	}
	if !late.ss.sub.late.Load() || onTime.ss.sub.late.Load() {
		t.Fatalf("late marks: late session %v, on-time session %v", late.ss.sub.late.Load(), onTime.ss.sub.late.Load())
	}
	s.ct.Sweep()
	for _, row := range s.ct.Snapshot().Conns {
		if want := row.Remote == late.srv.RemoteAddr().String(); row.LateWrite != want {
			t.Fatalf("/connz row %s: late_write %v, want %v", row.Remote, row.LateWrite, want)
		}
	}
	var marks int
	for _, r := range s.spans.Recent() {
		if r.Name == "late_write" {
			marks++
			if r.Attrs["path"] != "handler" || r.Attrs["deadline"] != strconv.Itoa(admit+1) || r.Attrs["slot"] != strconv.Itoa(admit+2) {
				t.Fatalf("late_write span attrs %v, want path handler, deadline %d, slot %d", r.Attrs, admit+1, admit+2)
			}
		}
	}
	if marks != 1 {
		t.Fatalf("%d late_write spans, want 1", marks)
	}
}

// TestHeldFramesClassifyHealthy: a session that keeps up but holds frames
// — its ring is not empty, nothing is due and nothing was written since
// the last sweep — is not a backlog. Across two sweeps it classifies
// healthy with a ring depth of 0, where counting held frames would read it
// stalled.
func TestHeldFramesClassifyHealthy(t *testing.T) {
	const segments = 12
	s := startManualServer(t, VideoConfig{ID: 1, Segments: segments, SegmentBytes: 64})
	first := admitSession(t, s, nil, 1) // gives the video instances to share
	for range 3 {
		tick(s)
	}
	srv, _ := loopback(t)
	ss := admitSession(t, s, srv, 1)
	var writes atomic.Int64
	ss.serve(t, s, countConn{Conn: srv, writes: &writes})
	ss.waitParked(t, s)
	for ss.sub.ring.Depth() == 0 {
		if int64(s.station.Status().PerVideo[0].Slot) >= ss.sub.lastSlot.Load() {
			t.Fatal("the session never held a frame")
		}
		tick(s)
	}
	s.ct.Sweep() // the baseline
	s.ct.Sweep()
	s.ct.Sweep()
	rows := s.ct.Snapshot().Conns
	i := slices.IndexFunc(rows, func(r conntrack.ConnSnapshot) bool { return r.Remote == srv.RemoteAddr().String() })
	if i < 0 {
		t.Fatal("no /connz row for the session")
	}
	if row := rows[i]; row.State != "healthy" || row.RingDepth != 0 {
		t.Fatalf("a session holding %d frames reads %s at ring depth %d, want healthy at 0",
			ss.sub.ring.Depth(), row.State, row.RingDepth)
	}
	s.unsubscribe(first.sub)
}

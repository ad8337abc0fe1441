package vodserver

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"slices"
	"strconv"
	"testing"
	"time"

	"vodcast/internal/client"
	"vodcast/internal/conntrack"
	"vodcast/internal/core"
	"vodcast/internal/fanout"
	"vodcast/internal/wire"
)

// The flush rule: the tick writes a session only when a deadline forces it.
// Each test admits and hands over its sessions by hand on a manual server
// and drives every tick itself, as in direct_test.go, so the outcome depends
// on no wall clock.

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

// boundaryWriter lends a session's ring its own WriteDirect and logs how
// many bytes each of the tick's writes to it put on the wire.
type boundaryWriter struct {
	t   *testing.T
	sub *subscriber
	log *[]int
}

func (w boundaryWriter) WriteDirect(frames []*fanout.Frame, skip int) (done, sent int) {
	done, sent = w.sub.WriteDirect(frames, skip)
	if skip != 0 || sent != 0 {
		w.t.Errorf("a short write (skip %d, sent %d) on a socket that takes everything", skip, sent)
	}
	n := 0
	for _, f := range frames[:done] {
		n += len(f.Bytes())
	}
	if n > 0 {
		*w.log = append(*w.log, n)
	}
	return done, sent
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
// viewings and resumes, some admitted in the same slot, each handed over
// before its first tick. The tick writes every byte of each, one write per flush:
// the write boundaries are the flush rule's groups for the admission
// recomputed on a twin scheduler fed the same admissions, some write
// carries more than one slot, and no write is late.
func TestWriteBoundariesAreFlushSlots(t *testing.T) {
	const segments = 12
	s := startManualServer(t, VideoConfig{ID: 1, Segments: segments, SegmentBytes: 64})
	periods := cbrPeriods(segments)
	type run struct {
		ss     *session
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
		ss := resumeSession(t, s, 1, uint32(a.from))
		info := ss.info
		ss.handOver(t, s)
		writes := new([]int)
		ss.sub.ring.Write(boundaryWriter{t: t, sub: ss.sub, log: writes})
		if twin == nil {
			var err error
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
		runs = append(runs, run{ss: ss, writes: writes, want: want})
	}
	for s.station.Status().PerVideo[0].Slot < last {
		tick(s)
	}
	coalesced := false
	for i, r := range runs {
		if r.ss.sub.fd != -1 {
			t.Fatalf("session %d: still open after its last slot", i)
		}
		stream, err := io.ReadAll(r.ss.cli)
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

// TestLateWritesCountStrictMisses: a session's socket is full through the
// tick of its first deadline, slot admit+1, so that tick's write and the
// service pass's retry both come up short, and the next tick's write
// finishes the frame — a retry — past that deadline; a second session on
// the same video is served on time. vod_late_writes_total equals the misses
// a strict set-top box counts when it takes each slot's segments at the
// slot their write completed in, and only the late session's conntrack
// record and span tree carry the mark.
func TestLateWritesCountStrictMisses(t *testing.T) {
	const segments = 8
	s := manualServer(t, Config{Videos: []VideoConfig{{ID: 1, Segments: segments, SegmentBytes: 64}},
		SlotDuration: time.Second, SpanSampleEvery: 1})
	periods := cbrPeriods(segments)

	type viewer struct {
		ss  *session
		stb *client.STB
		br  *bufio.Reader
	}
	// open admits a viewer and hands it over under a sampled admit root, as
	// serveRequest does.
	open := func() *viewer {
		ss := admitSession(t, s, 1)
		stb, err := client.NewFrom(int(ss.info.AdmitSlot), periods, 1)
		if err != nil {
			t.Fatal(err)
		}
		s.handOver(ss.sub, ss.info, wire.FlagNoReport, s.spans.StartSpan("admit"))
		return &viewer{ss: ss, stb: stb, br: bufio.NewReader(ss.cli)}
	}
	// take reads v's stream, the ScheduleInfo first, through the SlotEnd of
	// slot and feeds the STB every segment read as arriving in slot now, the
	// slot whose tick the write completed after.
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
	admit := int(late.ss.info.AdmitSlot)
	// Alone on the video, both are written every slot: no slot is held.
	// Through the tick of slot admit+1 — the deadline of segment 1 — the
	// late session's writes go to a full pipe, so that slot's frame is
	// still queued when admit+2 begins.
	fd := late.ss.sub.fd
	late.ss.sub.fd = fullPipe(t)
	tick(s)
	if !late.ss.sub.backlog || !listed(s, late.ss.sub) {
		t.Fatal("a write to a full socket left no listed backlog")
	}
	take(onTime, admit+1, admit+1)
	late.ss.sub.fd = fd
	for now := admit + 2; now <= admit+segments; now++ {
		tick(s)
		take(late, now, now)
		take(onTime, now, now)
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
	if n := s.mLateWrites[lateByRetry].Value(); n != 1 {
		t.Fatalf("vod_late_writes_total{path=\"retry\"} = %v, want 1", n)
	}
	if !late.ss.sub.late || onTime.ss.sub.late {
		t.Fatalf("late marks: late session %v, on-time session %v", late.ss.sub.late, onTime.ss.sub.late)
	}
	s.ct.Sweep()
	for _, row := range s.ct.Snapshot().Conns {
		if want := row.Remote == late.ss.cli.LocalAddr().String(); row.LateWrite != want {
			t.Fatalf("/connz row %s: late_write %v, want %v", row.Remote, row.LateWrite, want)
		}
	}
	var marks int
	for _, r := range s.spans.Recent() {
		if r.Name == "late_write" {
			marks++
			if r.Attrs["path"] != "retry" || r.Attrs["deadline"] != strconv.Itoa(admit+1) || r.Attrs["slot"] != strconv.Itoa(admit+2) {
				t.Fatalf("late_write span attrs %v, want path retry, deadline %d, slot %d", r.Attrs, admit+1, admit+2)
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
	admitBare(t, s, 1) // gives the video instances to share
	for range 3 {
		tick(s)
	}
	ss := admitSession(t, s, 1)
	ss.handOver(t, s)
	for ss.sub.ring.Depth() == 0 {
		if s.station.Status().PerVideo[0].Slot >= ss.sub.lastSlot {
			t.Fatal("the session never held a frame")
		}
		tick(s)
	}
	s.ct.Sweep() // the baseline
	s.ct.Sweep()
	s.ct.Sweep()
	rows := s.ct.Snapshot().Conns
	i := slices.IndexFunc(rows, func(r conntrack.ConnSnapshot) bool { return r.Remote == ss.cli.LocalAddr().String() })
	if i < 0 {
		t.Fatal("no /connz row for the session")
	}
	if row := rows[i]; row.State != "healthy" || row.RingDepth != 0 {
		t.Fatalf("a session holding %d frames reads %s at ring depth %d, want healthy at 0",
			ss.sub.ring.Depth(), row.State, row.RingDepth)
	}
}

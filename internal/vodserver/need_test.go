package vodserver

import (
	"bufio"
	"errors"
	"io"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"vodcast/internal/client"
	"vodcast/internal/core"
	"vodcast/internal/fanout"
	"vodcast/internal/wire"
)

// The tick writes a subscriber only the slots that carry its instances and
// its last slot. Each test plays the accept goroutine's steps by hand on a
// built server and drives every tick itself, as in direct_test.go.

// assignedPlusLast is the set of slots a session with the given admission
// is written, in order: the serving slot of each of its segments and its
// last slot, admitSlot plus the largest period of the suffix it consumes.
func assignedPlusLast(res core.AdmitResult, from int, periods []int) []int {
	n := len(periods) - 1
	last := res.Slot + slices.Max(periods[1:n-from+2])
	want := append(slices.Clone(res.Assignment[from:]), last)
	slices.Sort(want)
	return slices.Compact(want)
}

// cbrPeriods is the CBR period vector T[j] = j the server schedules a video
// with when its config carries none (1-based, T[0] unused).
func cbrPeriods(n int) []int {
	t := make([]int, n+1)
	for j := range t {
		t[j] = j
	}
	return t
}

// readSlotEnds reads a session's stream to EOF and returns the slots it
// closed with a SlotEnd, in order, and the segments each carried.
func readSlotEnds(t *testing.T, r io.Reader) (ends []int, segs map[int][]int) {
	t.Helper()
	br := bufio.NewReader(r)
	if msg, err := wire.ReadFrame(br); err != nil {
		t.Fatal(err)
	} else if _, ok := msg.(wire.ScheduleInfo); !ok {
		t.Fatalf("first frame is %T, want the ScheduleInfo", msg)
	}
	segs = map[int][]int{}
	for {
		msg, err := wire.ReadFrame(br)
		if errors.Is(err, io.EOF) {
			return ends, segs
		}
		if err != nil {
			t.Fatal(err)
		}
		switch m := msg.(type) {
		case wire.Segment:
			segs[int(m.Slot)] = append(segs[int(m.Slot)], int(m.Segment))
		case wire.SlotEnd:
			ends = append(ends, int(m.Slot))
		}
	}
}

// TestWrittenSlotsAreAssignedPlusLast: five sessions on one video, full
// viewings and resumes, some admitted in the same slot so they share
// instances, each closed by the tick at its last slot. Every session is
// written exactly the slots its admission assigned its segments to, plus
// its last slot — the assignment recomputed on a twin scheduler fed the
// same admissions — and at least one slot is skipped. Its set-top box,
// settling each skipped slot as empty, verifies every deadline.
func TestWrittenSlotsAreAssignedPlusLast(t *testing.T) {
	const segments = 12
	s := startManualServer(t, VideoConfig{ID: 1, Segments: segments, SegmentBytes: 64})
	periods := cbrPeriods(segments)
	type run struct {
		ss   *session
		from int
		want []int
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
		want := assignedPlusLast(res, a.from, periods)
		last = max(last, want[len(want)-1])
		runs = append(runs, run{ss: ss, from: a.from, want: want})
	}
	for s.station.Status().PerVideo[0].Slot < last {
		tick(s)
	}
	skipped := 0
	for i, r := range runs {
		if r.ss.sub.fd != -1 {
			t.Fatalf("session %d: still open after its last slot", i)
		}
		ends, segs := readSlotEnds(t, r.ss.cli)
		if !slices.Equal(ends, r.want) {
			t.Fatalf("session %d (admit %d, from %d): written slots %v, want its assigned slots plus its last %v",
				i, r.ss.info.AdmitSlot, r.from, ends, r.want)
		}
		admit := int(r.ss.info.AdmitSlot)
		skipped += ends[len(ends)-1] - admit - len(ends)
		stb, err := client.NewFrom(admit, periods, r.from)
		if err != nil {
			t.Fatal(err)
		}
		for _, slot := range ends {
			if err := stb.ObserveSlot(slot, segs[slot]); err != nil {
				t.Fatalf("session %d: %v", i, err)
			}
		}
		if q := stb.QoE(); !stb.Complete() || q.Misses != 0 {
			t.Fatalf("session %d: complete %v, %d misses", i, stb.Complete(), q.Misses)
		}
	}
	if skipped == 0 {
		t.Fatal("no session skipped a slot: the admissions share nothing")
	}
	s.Close()
	assertNoFrameLeak(t, s)
}

// TestUnpublishedNeedSetGetsEverySlot: an admission descheduled between the
// scheduler call and the lastSlot store leaves its subscriber on the MaxInt64
// placeholder, with no need set the tick may read. Until the store, the
// tick hands it every slot's frame, needed or not; from the store on, only
// the slots its admission assigned and its last. An earlier full viewing
// gives the video instances to share, so both phases carry a slot the
// subscriber does not need.
func TestUnpublishedNeedSetGetsEverySlot(t *testing.T) {
	const segments = 8
	s := startManualServer(t, VideoConfig{ID: 1, Segments: segments, SegmentBytes: 64})
	v := s.videos[1]
	r, err := s.record(v)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.station.Admit(v.idx, core.AdmitOptions{}); err != nil {
		t.Fatal(err)
	}
	for range 5 {
		tick(s)
	}
	const slots = segments + 1
	sub := &subscriber{fd: -1, ring: fanout.NewRing(2 * slots), admitted: time.Now(), srv: s,
		rec: r, ct: s.ct.Register("", -1, 1, 2*slots)}
	sub.lastSlot.Store(math.MaxInt64)
	if !r.subs.Add(sub) {
		t.Fatal("subscriber set refused the registration")
	}
	t.Cleanup(func() { s.unsubscribe(sub) })
	res, err := s.station.Admit(v.idx, core.AdmitOptions{WantAssignment: true})
	if err != nil {
		t.Fatal(err)
	}
	need := assignedPlusLast(res, 1, cbrPeriods(segments))
	// The admission stalls until the last unneeded slot but one has passed.
	var unneeded []int
	for slot := res.Slot + 1; slot <= need[len(need)-1]; slot++ {
		if !slices.Contains(need, slot) {
			unneeded = append(unneeded, slot)
		}
	}
	if len(unneeded) < 2 {
		t.Fatalf("slots %v leave %d unneeded, want 2 or more", need, len(unneeded))
	}
	publish := unneeded[len(unneeded)-2]
	var want []int
	for slot := res.Slot + 1; slot <= need[len(need)-1]; slot++ {
		if slot <= publish || slices.Contains(need, slot) {
			want = append(want, slot)
		}
	}
	for s.station.Status().PerVideo[v.idx].Slot < publish {
		tick(s)
	}
	sub.need, sub.flush = needFlushSets(res.Assignment, 1, res.Slot, r.wirePeriods, make([]int, slots))
	sub.needFrom = res.Slot
	sub.lastSlot.Store(int64(need[len(need)-1]))
	for s.station.Status().PerVideo[v.idx].Slot < need[len(need)-1] {
		tick(s)
	}
	var got []int
	var frames []*fanout.Frame
	for open := true; open; {
		frames, open = sub.ring.PopAll(frames[:0])
		for _, f := range frames {
			got = append(got, f.Slot())
			f.Release()
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("frames for slots %v, want every slot through %d, then only %v", got, publish, need)
	}
	s.Close()
	assertNoFrameLeak(t, s)
}

// TestAdmitAllocatesNoAssignment: admit keeps each admission's serving
// slots, an (n+1)-int vector, only long enough to build the need and flush
// sets from it, in a pooled buffer. A resume of the last six segments of a
// 1000-segment video therefore allocates no more than a full viewing of a
// six-segment video, whose subscription spans as many slots: the one
// allocation the two sets share, 2⌈slots/64⌉ words, is the same for both.
func TestAdmitAllocatesNoAssignment(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const long, short = 1000, 6
	s := startManualServer(t,
		VideoConfig{ID: 1, Segments: long, SegmentBytes: 64},
		VideoConfig{ID: 2, Segments: short, SegmentBytes: 64})
	bytesPerAdmit := func(video, from uint32) uint64 {
		admit := func() {
			sub := &subscriber{fd: -1}
			if _, err := s.admit(sub, video, from, nil); err != nil {
				t.Fatal(err)
			}
			s.unsubscribe(sub)
		}
		admit() // builds the record and fills the pool
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			admit()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	resume := bytesPerAdmit(1, long-short+1)
	full := bytesPerAdmit(2, 1)
	if assignment := uint64(8 * (long + 1)); resume >= full+assignment/8 {
		t.Fatalf("a resume near the end of a %d-segment video allocates %d B per admission, a %d-segment full viewing %d B: "+
			"the %d B assignment vector is not pooled", long, resume, short, full, assignment)
	}
}

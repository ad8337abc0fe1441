package storage

import (
	"math"
	"testing"

	"vodcast/internal/core"
	"vodcast/internal/sim"
)

func TestDiskReadSeconds(t *testing.T) {
	d := Disk{OverheadSeconds: 0.01, TransferBytesPerSecond: 20e6}
	// 40 MB read: 10 ms + 2 s.
	if got := d.readSeconds(40e6); math.Abs(got-2.01) > 1e-12 {
		t.Fatalf("readSeconds = %v, want 2.01", got)
	}
	if got := d.readSeconds(0); got != 0.01 {
		t.Fatalf("zero-byte read = %v, want overhead only", got)
	}
}

func TestCommodityDisk(t *testing.T) {
	d := CommodityDisk2001()
	if d.OverheadSeconds != 0.010 || d.TransferBytesPerSecond != 20e6 {
		t.Fatalf("unexpected parameters %+v", d)
	}
}

func oneSlotSchedule(reads ...Read) Schedule {
	return Schedule{SlotSeconds: 10, Slots: [][]Read{reads}}
}

func TestEvaluateValidation(t *testing.T) {
	d := CommodityDisk2001()
	good := oneSlotSchedule(Read{Video: 0, Segment: 1, Bytes: 1e6})
	if _, err := Evaluate(Disk{TransferBytesPerSecond: 0}, good, 1); err == nil {
		t.Error("bad disk accepted")
	}
	if _, err := Evaluate(d, Schedule{SlotSeconds: 0, Slots: good.Slots}, 1); err == nil {
		t.Error("bad slot duration accepted")
	}
	if _, err := Evaluate(d, Schedule{SlotSeconds: 1}, 1); err == nil {
		t.Error("empty schedule accepted")
	}
	if _, err := Evaluate(d, oneSlotSchedule(Read{Segment: 0}), 1); err == nil {
		t.Error("invalid read accepted")
	}
	if _, err := Evaluate(d, good, 0); err == nil {
		t.Error("zero disks accepted")
	}
}

func TestEvaluateBusyFractions(t *testing.T) {
	d := Disk{OverheadSeconds: 0, TransferBytesPerSecond: 1e6}
	// Two 5 MB reads in a 10 s slot: 5 s each.
	sched := oneSlotSchedule(
		Read{Video: 0, Segment: 1, Bytes: 5e6},
		Read{Video: 0, Segment: 2, Bytes: 5e6},
	)
	one, err := Evaluate(d, sched, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(one.MaxBusyFraction-1.0) > 1e-12 {
		t.Fatalf("one disk busy = %v, want 1.0", one.MaxBusyFraction)
	}
	two, err := Evaluate(d, sched, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Segments 1 and 2 stripe to different drives.
	if math.Abs(two.MaxBusyFraction-0.5) > 1e-12 {
		t.Fatalf("two disks busy = %v, want 0.5", two.MaxBusyFraction)
	}
	if two.PeakSlotReads != 2 {
		t.Fatalf("peak reads = %d, want 2", two.PeakSlotReads)
	}
}

func TestDisksNeeded(t *testing.T) {
	d := Disk{OverheadSeconds: 0, TransferBytesPerSecond: 1e6}
	// Four 6 MB reads in a 10 s slot: 24 s of disk time needs 3 drives,
	// and segments 1..4 stripe evenly.
	sched := oneSlotSchedule(
		Read{Segment: 1, Bytes: 6e6},
		Read{Segment: 2, Bytes: 6e6},
		Read{Segment: 3, Bytes: 6e6},
		Read{Segment: 4, Bytes: 6e6},
	)
	got, err := DisksNeeded(d, sched, 16)
	if err != nil {
		t.Fatal(err)
	}
	// 2 disks: two reads each = 12 s > 10 s. 4 disks: one read each.
	// 3 disks: segments {1,4} share a drive = 12 s, so 4 are needed.
	if got != 4 {
		t.Fatalf("DisksNeeded = %d, want 4", got)
	}
	bound, err := MinDiskBound(d, sched)
	if err != nil {
		t.Fatal(err)
	}
	if bound != 3 {
		t.Fatalf("MinDiskBound = %d, want 3", bound)
	}
	if _, err := DisksNeeded(d, sched, 1); err == nil {
		t.Error("infeasible cap accepted")
	}
	if _, err := DisksNeeded(d, sched, 0); err == nil {
		t.Error("zero cap accepted")
	}
}

// recordSchedule runs a DHB policy under saturation and records the reads.
func recordSchedule(t *testing.T, policy core.Policy, segments, horizon int, segBytes float64) Schedule {
	t.Helper()
	s, err := core.New(core.Config{Segments: segments, Policy: policy, TrackSegments: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(55)
	sched := Schedule{SlotSeconds: 7200.0 / float64(segments)}
	for slot := 0; slot < horizon; slot++ {
		for a := 0; a < rng.Poisson(1.5); a++ {
			s.AdmitRequest(core.AdmitOptions{})
		}
		rep := s.AdvanceSlot()
		reads := make([]Read, 0, len(rep.Segments))
		for _, seg := range rep.Segments {
			reads = append(reads, Read{Video: 0, Segment: seg, Bytes: segBytes})
		}
		sched.Slots = append(sched.Slots, reads)
	}
	return sched
}

// TestHeuristicNeedsFewerDisksThanNaive ties storage provisioning back to
// Figure 8: flat bandwidth peaks are flat disk peaks.
func TestHeuristicNeedsFewerDisksThanNaive(t *testing.T) {
	// A 2-hour video at the trace's 636 KB/s mean: 46 MB per 73 s segment.
	const segBytes = 46e6
	// A slow drive makes each read a substantial share of the slot so that
	// peak differences matter: 5 MB/s -> 9.2 s per read.
	d := Disk{OverheadSeconds: 0.010, TransferBytesPerSecond: 5e6}
	naive := recordSchedule(t, core.PolicyNaive, 99, 6000, segBytes)
	heuristic := recordSchedule(t, core.PolicyHeuristic, 99, 6000, segBytes)
	nd, err := DisksNeeded(d, naive, 64)
	if err != nil {
		t.Fatal(err)
	}
	hd, err := DisksNeeded(d, heuristic, 64)
	if err != nil {
		t.Fatal(err)
	}
	if hd > nd {
		t.Fatalf("heuristic needs %d disks, naive %d: peak flattening should never cost drives", hd, nd)
	}
	if nd <= hd {
		// Both equal is possible on short runs; require the naive policy
		// to need strictly more at this horizon, where divisor peaks bite.
		if nd == hd {
			t.Fatalf("naive (%d) did not need more disks than heuristic (%d)", nd, hd)
		}
	}
	// Heuristic provisioning sits close to the information floor.
	bound, err := MinDiskBound(d, heuristic)
	if err != nil {
		t.Fatal(err)
	}
	if hd > 3*bound {
		t.Fatalf("heuristic needs %d disks, floor is %d", hd, bound)
	}
}

func TestMinDiskBoundValidation(t *testing.T) {
	if _, err := MinDiskBound(Disk{TransferBytesPerSecond: -1}, oneSlotSchedule()); err == nil {
		t.Error("bad disk accepted")
	}
}

// Package storage models the video server's disk subsystem — the "I/O
// traffic" cost the paper's introduction names alongside network bandwidth.
// Every segment instance a broadcasting protocol schedules must be read from
// disk within its slot, so a protocol's bandwidth peaks translate directly
// into disk provisioning: this package computes, for a striped disk array,
// how many drives a recorded transmission schedule needs and how busy they
// run.
package storage

import (
	"fmt"
	"math"
)

// Disk models one drive: a fixed per-request overhead (seek plus rotational
// latency) and a sustained transfer rate.
type Disk struct {
	// OverheadSeconds is paid once per segment read.
	OverheadSeconds float64
	// TransferBytesPerSecond is the sustained sequential rate.
	TransferBytesPerSecond float64
}

// CommodityDisk2001 returns drive parameters typical of the paper's era:
// 10 ms combined seek and rotational latency, 20 MB/s sustained transfer.
func CommodityDisk2001() Disk {
	return Disk{OverheadSeconds: 0.010, TransferBytesPerSecond: 20e6}
}

func (d Disk) validate() error {
	if d.OverheadSeconds < 0 {
		return fmt.Errorf("storage: negative overhead %v", d.OverheadSeconds)
	}
	if d.TransferBytesPerSecond <= 0 {
		return fmt.Errorf("storage: transfer rate %v must be positive", d.TransferBytesPerSecond)
	}
	return nil
}

// readSeconds reports the disk time one segment read of the given size
// occupies.
func (d Disk) readSeconds(bytes float64) float64 {
	return d.OverheadSeconds + bytes/d.TransferBytesPerSecond
}

// Read identifies one segment read: which video, which segment, how many
// bytes. Striping assigns it to drive (Segment-1 + Video) mod disks so
// consecutive segments of one video — which a schedule tends to read in
// nearby slots — spread across the array.
type Read struct {
	Video   int
	Segment int
	Bytes   float64
}

func (r Read) disk(disks int) int {
	return ((r.Segment - 1) + r.Video) % disks
}

// Schedule is the recorded transmission plan: Slots[t] lists the reads slot
// t performs.
type Schedule struct {
	SlotSeconds float64
	Slots       [][]Read
}

func (s Schedule) validate() error {
	if s.SlotSeconds <= 0 {
		return fmt.Errorf("storage: slot duration %v must be positive", s.SlotSeconds)
	}
	if len(s.Slots) == 0 {
		return fmt.Errorf("storage: empty schedule")
	}
	for t, reads := range s.Slots {
		for _, r := range reads {
			if r.Segment < 1 || r.Video < 0 || r.Bytes < 0 {
				return fmt.Errorf("storage: slot %d has invalid read %+v", t, r)
			}
		}
	}
	return nil
}

// Report describes how a schedule runs on a striped array.
type Report struct {
	// Disks is the array size evaluated.
	Disks int
	// MaxBusyFraction is the worst per-disk busy share of any slot; above
	// 1.0 the array cannot keep up.
	MaxBusyFraction float64
	// MeanBusyFraction is the average per-disk busy share.
	MeanBusyFraction float64
	// PeakSlotReads is the largest number of reads any single slot issued.
	PeakSlotReads int
}

// Evaluate runs the schedule on an array of the given size.
func Evaluate(d Disk, s Schedule, disks int) (Report, error) {
	if err := d.validate(); err != nil {
		return Report{}, err
	}
	if err := s.validate(); err != nil {
		return Report{}, err
	}
	if disks <= 0 {
		return Report{}, fmt.Errorf("storage: disk count %d must be positive", disks)
	}
	rep := Report{Disks: disks}
	busy := make([]float64, disks)
	var busySum float64
	var busySamples int
	for _, reads := range s.Slots {
		for i := range busy {
			busy[i] = 0
		}
		for _, r := range reads {
			busy[r.disk(disks)] += d.readSeconds(r.Bytes)
		}
		if len(reads) > rep.PeakSlotReads {
			rep.PeakSlotReads = len(reads)
		}
		for _, b := range busy {
			frac := b / s.SlotSeconds
			busySum += frac
			busySamples++
			if frac > rep.MaxBusyFraction {
				rep.MaxBusyFraction = frac
			}
		}
	}
	if busySamples > 0 {
		rep.MeanBusyFraction = busySum / float64(busySamples)
	}
	return rep, nil
}

// DisksNeeded reports the smallest striped array on which every slot's
// reads finish within the slot, searching up to maxDisks.
func DisksNeeded(d Disk, s Schedule, maxDisks int) (int, error) {
	if maxDisks <= 0 {
		return 0, fmt.Errorf("storage: max disks %d must be positive", maxDisks)
	}
	// Feasibility is NOT monotone in the array size — striping is modular,
	// so a pathological segment mix can load one drive of a larger array
	// harder — hence the linear scan.
	for k := 1; k <= maxDisks; k++ {
		rep, err := Evaluate(d, s, k)
		if err != nil {
			return 0, err
		}
		if rep.MaxBusyFraction <= 1.0 {
			return k, nil
		}
	}
	return 0, fmt.Errorf("storage: schedule infeasible even on %d disks", maxDisks)
}

// MinDiskBound is the information-theoretic floor: total read time across
// the whole schedule divided by the wall-clock time, rounded up.
func MinDiskBound(d Disk, s Schedule) (int, error) {
	if err := d.validate(); err != nil {
		return 0, err
	}
	if err := s.validate(); err != nil {
		return 0, err
	}
	total := 0.0
	for _, reads := range s.Slots {
		for _, r := range reads {
			total += d.readSeconds(r.Bytes)
		}
	}
	wall := float64(len(s.Slots)) * s.SlotSeconds
	return int(math.Ceil(total / wall)), nil
}

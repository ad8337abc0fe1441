package main

import "fmt"

// placement says which CPUs the server child and the driver run on. The
// two never share a CPU when the run is pinned: the figure of merit is the
// server's own CPU time, and an unpinned 2-vCPU run moves it by tens of
// percent as the scheduler migrates the two processes.
type placement struct {
	Pinned     bool
	ServerCPUs []int
	DriverCPUs []int
	// ServerProcs is the child's GOMAXPROCS: max(1, nproc-1) capped at 4.
	ServerProcs int
	Note        string
}

const maxServerProcs = 4

// planPlacement splits the allowed CPUs: the first min(4, n-1) to the
// server, the last one to the driver. With fewer than two CPUs, or when the
// affinity could not be read, nothing is pinned.
func planPlacement(allowed []int, err error) placement {
	if err != nil {
		return placement{ServerProcs: 1, Note: err.Error()}
	}
	if len(allowed) < 2 {
		return placement{ServerProcs: 1, Note: fmt.Sprintf("%d CPU allowed, server and driver share it", len(allowed))}
	}
	procs := min(len(allowed)-1, maxServerProcs)
	return placement{
		Pinned:      true,
		ServerCPUs:  allowed[:procs],
		DriverCPUs:  allowed[len(allowed)-1:],
		ServerProcs: procs,
	}
}

// Driver-health limits: beyond them the driver, not the server, shapes the
// numbers, and the run may not be compared with another.
const (
	maxDriverCPUUtil = 0.7
	// maxGenLateSlots bounds the p99 lateness of the arrival generator, in
	// slots: later than one slot and the offered schedule is not the one
	// the seed describes.
	maxGenLateSlots = 1.0
)

// health is what the validity verdict is computed from.
type health struct {
	Pinned        bool
	DriverCPUUtil float64
	GenLateP99Ms  float64
	SlotMillis    int
}

// verdict reports whether a run may be compared with other runs, and if not,
// every reason why.
func (h health) verdict() (valid bool, reasons []string) {
	if !h.Pinned {
		reasons = append(reasons, "pinned=false")
	}
	if h.DriverCPUUtil > maxDriverCPUUtil {
		reasons = append(reasons, fmt.Sprintf("driver.cpu_util %.2f > %.2f", h.DriverCPUUtil, maxDriverCPUUtil))
	}
	if limit := maxGenLateSlots * float64(h.SlotMillis); h.GenLateP99Ms > limit {
		reasons = append(reasons, fmt.Sprintf("driver.gen_late_p99_ms %.2f > one slot (%.0f ms)", h.GenLateP99Ms, limit))
	}
	return len(reasons) == 0, reasons
}

package core

import "fmt"

// This file is the scheduler's unified admission entry point. The historical
// surface grew one method per variant — Admit, AdmitTraced, AdmitFrom,
// AdmitFromTraced — which forced every new option into a combinatorial
// method family. AdmitRequest collapses them into one options/result pair;
// the old wrapper methods are gone (see DESIGN.md's API-compatibility note).

// AdmitOptions selects what one admission should do.
type AdmitOptions struct {
	// From is the first segment the customer consumes: 0 and 1 both mean a
	// full viewing; 2..n resumes interactive playback there.
	From int
	// WantAssignment requests the per-segment serving slots in
	// AdmitResult.Assignment. Without a reusable Assignment buffer it
	// allocates one []int per admission; large simulations leave it off.
	WantAssignment bool
	// Assignment optionally supplies a reusable buffer for the serving-slot
	// vector, implying WantAssignment. The buffer is grown when its capacity
	// is below n+1, resliced to exactly n+1, and returned in
	// AdmitResult.Assignment; reusing one buffer across admissions makes
	// the traced admit path allocation-free.
	Assignment []int
}

// AdmitResult describes one admitted request.
type AdmitResult struct {
	// Slot is the admission slot: the request's segments are served in the
	// window starting at Slot+1.
	Slot int
	// Placed is the number of new segment instances this request forced the
	// scheduler to transmit (segments covered by shared instances add
	// nothing).
	Placed int
	// Assignment, when requested, maps segment j to the slot whose instance
	// serves it (index 0 unused; entries below the resume point are zero).
	Assignment []int
}

// AdmitRequest processes one request arriving during the current slot. It is
// the single admission entry point: the resume point and the assignment
// trace are options rather than separate methods. The only error is a resume
// point outside 1..n, reported as ErrBadResumePoint.
func (s *Scheduler) AdmitRequest(opts AdmitOptions) (AdmitResult, error) {
	from := opts.From
	if from == 0 {
		from = 1
	}
	if from < 1 || from > s.n {
		return AdmitResult{}, fmt.Errorf("%w: segment %d outside 1..%d", ErrBadResumePoint, from, s.n)
	}
	var assignment []int
	switch {
	case opts.Assignment != nil:
		assignment = opts.Assignment
		if cap(assignment) < s.n+1 {
			assignment = make([]int, s.n+1)
		}
		assignment = assignment[:s.n+1]
		// A fresh allocation arrives zeroed; a reused buffer must clear the
		// entries the admission will not write: index 0 and everything below
		// the resume point.
		for k := 0; k < from; k++ {
			assignment[k] = 0
		}
	case opts.WantAssignment:
		assignment = make([]int, s.n+1)
	}
	res := AdmitResult{Slot: s.current, Assignment: assignment}
	if s.cap > 0 {
		res.Placed = s.admitFromCapped(from, assignment)
	} else {
		res.Placed = s.admitFrom(from, assignment)
	}
	return res, nil
}

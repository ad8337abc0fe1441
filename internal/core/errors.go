package core

import "errors"

// Sentinel validation errors. New and AdmitRequest wrap these with context
// (the offending value, the valid range), so callers branch on the class with
// errors.Is while logs keep the detail:
//
//	if _, err := core.New(cfg); errors.Is(err, core.ErrBadSegmentCount) { ... }
var (
	// ErrBadSegmentCount reports a non-positive Config.Segments.
	ErrBadSegmentCount = errors.New("core: segment count must be positive")
	// ErrBadPeriods reports a period vector the scheduler cannot use (wrong
	// length, T[1] != 1, or a non-positive period).
	ErrBadPeriods = errors.New("core: invalid period vector")
	// ErrBadPolicy reports an unknown placement policy.
	ErrBadPolicy = errors.New("core: unknown placement policy")
	// ErrBadStartSlot reports a negative Config.StartSlot.
	ErrBadStartSlot = errors.New("core: start slot must be non-negative")
	// ErrBadClientCap reports an unusable Config.MaxClientStreams: a
	// negative cap, a positive cap combined with a non-heuristic policy, or
	// a cap c too small for the period vector (c·T[k] < k for some k).
	ErrBadClientCap = errors.New("core: invalid client stream cap")
	// ErrBadResumePoint reports an AdmitOptions.From outside 1..n.
	ErrBadResumePoint = errors.New("core: resume segment out of range")
)

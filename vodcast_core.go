// Package vodcast is a from-scratch Go implementation of the Dynamic
// Heuristic Broadcasting (DHB) protocol for video-on-demand (Carter, Pâris,
// Mohan, Long — ICDCS 2001), together with every protocol and substrate its
// evaluation depends on: fast broadcasting, pagoda/NPB and skyscraper
// mappings, the universal distribution protocol, stream tapping/patching,
// batching, selective catching, a discrete-event simulator, a VBR-video
// substrate with work-ahead smoothing, and a multi-video broadcast station.
//
// The facade is split by theme:
//
//   - vodcast_core.go (this file): the DHB scheduler, its admission API,
//     Section 4's compressed-video planning, VBR traces, workload shaping
//     and the closed-form performance models.
//   - vodcast_protocols.go: the related-work protocols the paper compares
//     against — static mappings, dynamic on-demand and reactive protocols.
//   - vodcast_experiments.go: the measurement harness, the figure
//     reproductions and the follow-on studies the examples run.
//   - vodcast_serving.go: the multi-video catalogue simulation, the
//     networked server/client pair and disk provisioning.
//
// The three entry points most users want: NewDHB builds the paper's
// scheduler, Measure drives any slotted protocol under Poisson load, and
// PlanVBR turns a variable-bit-rate trace into the four Section 4
// distribution plans. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for the paper-versus-measured record.
package vodcast

import (
	"vodcast/internal/analysis"
	"vodcast/internal/core"
	"vodcast/internal/trace"
	"vodcast/internal/workload"
)

// ---- The DHB protocol (the paper's contribution) ----

// DHBConfig parameterizes a DHB scheduler; see NewDHB.
type DHBConfig = core.Config

// DHB is the dynamic heuristic broadcasting scheduler of Figure 6.
type DHB = core.Scheduler

// NewDHB builds a DHB scheduler.
func NewDHB(cfg DHBConfig) (*DHB, error) { return core.New(cfg) }

// AdmitOptions parameterizes one admission through DHB.AdmitRequest: the
// resume segment (0 or 1 for a full viewing) and whether to materialize the
// per-segment slot assignment.
type AdmitOptions = core.AdmitOptions

// ---- Compressed (VBR) video support: Section 4 ----

// VBRVariant identifies one of the DHB-a .. DHB-d solutions.
type VBRVariant = core.VBRVariant

// The four Section 4 solutions.
const (
	VariantA = core.VariantA
	VariantB = core.VariantB
	VariantC = core.VariantC
	VariantD = core.VariantD
)

// VBRSolution is a ready-to-schedule plan for one VBR video.
type VBRSolution = core.VBRSolution

// PlanVBR derives the four Section 4 plans for distributing the traced video
// with the given maximum waiting time in seconds.
func PlanVBR(tr *Trace, maxWaitSeconds float64) (map[VBRVariant]VBRSolution, error) {
	return core.PlanVBR(tr, maxWaitSeconds)
}

// ---- VBR traces ----

// Trace is a per-second bit-rate series of a compressed video.
type Trace = trace.Trace

// SyntheticMatrix generates the seeded synthetic trace calibrated to the
// published statistics of the paper's movie (8170 s, 636 KB/s mean,
// 951 KB/s peak).
func SyntheticMatrix(seed int64) (*Trace, error) { return trace.SyntheticMatrix(seed) }

// ---- Workload shaping ----

// RateFunc reports an instantaneous arrival rate (requests/second) at a
// simulated instant.
type RateFunc = workload.RateFunc

// DayNightRate returns a 24-hour-periodic rate peaking at peakHour.
func DayNightRate(peakPerHour, offPeakPerHour, peakHour float64) RateFunc {
	return workload.DayNight(peakPerHour, offPeakPerHour, peakHour)
}

// ---- Closed-form performance models ----

// ModelPatchingMean returns optimal threshold patching's bandwidth,
// sqrt(1 + 2 lambda D) - 1.
func ModelPatchingMean(ratePerHour, videoSeconds float64) (float64, error) {
	return analysis.PatchingMean(ratePerHour, videoSeconds)
}

// HarmonicBandwidth returns H(n), the bandwidth of harmonic broadcasting
// and DHB's saturation level for CBR video.
func HarmonicBandwidth(n int) (float64, error) { return analysis.HarmonicBandwidth(n) }

package vodcast

// This file groups the measurement harness (Measure, Replay) and every
// experiment: the Figures 7-9 reproductions, the Section 3 peak comparison
// and the follow-on studies the examples run (client caps, the reactive
// protocols, dynamic skyscraper). The remaining studies are cmd/vodsim
// experiments.

import (
	"vodcast/internal/experiments"
	"vodcast/internal/workload"
)

// ---- Measurement ----

// Slotted is any slotted protocol Measure can drive.
type Slotted = experiments.Slotted

// Measurement summarizes a Measure run.
type Measurement = experiments.Measurement

// AdaptDHB exposes a DHB scheduler through the Slotted interface.
func AdaptDHB(s *DHB) Slotted { return experiments.AdaptDHB(s) }

// Measure drives a slotted protocol under constant Poisson arrivals.
func Measure(proto Slotted, ratePerHour, slotSeconds float64, horizonSlots, warmupSlots int, seed int64) (Measurement, error) {
	return experiments.Measure(proto, ratePerHour, slotSeconds, horizonSlots, warmupSlots, seed)
}

// ArrivalTrace is a recorded request-timestamp series (e.g. a production
// log) that Replay can feed to any slotted protocol.
type ArrivalTrace = workload.ArrivalTrace

// NewArrivalTrace wraps a timestamp series (seconds from trace start).
func NewArrivalTrace(times []float64) (*ArrivalTrace, error) {
	return workload.NewArrivalTrace(times)
}

// Replay drives a slotted protocol with a recorded arrival trace.
func Replay(proto Slotted, arrivals *ArrivalTrace, slotSeconds float64, drainSlots int) (Measurement, error) {
	return experiments.Replay(proto, arrivals, slotSeconds, drainSlots)
}

// ---- Figure reproductions ----

// SweepConfig parameterizes the Figures 7-8 reproduction.
type SweepConfig = experiments.Config

// SweepRow is one rate's measurements in a sweep.
type SweepRow = experiments.SweepRow

// QuickSweepConfig returns the reduced sweep setup.
func QuickSweepConfig() SweepConfig { return experiments.QuickConfig() }

// Sweep runs the Figures 7-8 experiment.
func Sweep(cfg SweepConfig) ([]SweepRow, error) { return experiments.Sweep(cfg) }

// VBRSweepConfig parameterizes the Figure 9 reproduction.
type VBRSweepConfig = experiments.VBRConfig

// Fig9Row is one rate's measurements in the Figure 9 sweep.
type Fig9Row = experiments.Fig9Row

// QuickVBRSweepConfig returns the reduced Figure 9 setup.
func QuickVBRSweepConfig() VBRSweepConfig { return experiments.QuickVBRConfig() }

// Fig9 runs the compressed-video experiment.
func Fig9(cfg VBRSweepConfig) ([]Fig9Row, map[VBRVariant]VBRSolution, error) {
	return experiments.Fig9(cfg)
}

// PeaksResult compares naive and heuristic placement under saturation.
type PeaksResult = experiments.PeaksResult

// Peaks runs Section 3's peak-bandwidth comparison.
func Peaks(segments, horizonSlots int) (PeaksResult, error) {
	return experiments.Peaks(segments, horizonSlots)
}

// ---- Follow-on studies ----

// ClientCapRow is one rate's measurements in the client-bandwidth sweep.
type ClientCapRow = experiments.ClientCapRow

// ClientCap sweeps the Section 5 client-bandwidth-limited DHB variants.
func ClientCap(cfg SweepConfig) ([]ClientCapRow, error) { return experiments.ClientCap(cfg) }

// ReactiveZooRow is one rate's measurements in the reactive-protocol sweep.
type ReactiveZooRow = experiments.ReactiveZooRow

// ReactiveZoo sweeps every reactive protocol in the repository.
func ReactiveZoo(cfg SweepConfig) ([]ReactiveZooRow, error) { return experiments.ReactiveZoo(cfg) }

// DSBRow is one rate's measurements in the DSB comparison.
type DSBRow = experiments.DSBRow

// DSBComparison sweeps dynamic skyscraper broadcasting against UD and DHB.
func DSBComparison(cfg SweepConfig) ([]DSBRow, error) { return experiments.DSBComparison(cfg) }

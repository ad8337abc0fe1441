package vodcast

// This file groups the related-work protocols the paper evaluates DHB
// against: the static broadcast mappings of Figures 1-3, the dynamic
// (on-demand) protocols built over them, and the reactive protocol family.

import (
	"vodcast/internal/broadcast"
	"vodcast/internal/dynamic"
	"vodcast/internal/reactive"
)

// ---- Static broadcasting protocols (related work) ----

// Mapping is a static segment-to-stream broadcast schedule.
type Mapping = broadcast.Mapping

// FastBroadcast builds Juhn and Tseng's FB mapping (Figure 1).
func FastBroadcast(n int) (*Mapping, error) { return broadcast.FastBroadcast(n) }

// Skyscraper builds Hua and Sheu's SB mapping (Figure 3).
func Skyscraper(n int) (*Mapping, error) { return broadcast.Skyscraper(n) }

// Pagoda builds the pagoda-family mapping standing in for NPB (Figure 2).
func Pagoda(n int) (*Mapping, error) { return broadcast.Pagoda(n) }

// NPBFigure2 returns the canonical three-stream NPB mapping of Figure 2.
func NPBFigure2() (*Mapping, error) { return broadcast.NPBFigure2() }

// ---- Dynamic (on-demand) broadcasting protocols ----

// OnDemand is a dynamic broadcasting protocol over a static mapping.
type OnDemand = dynamic.OnDemand

// NewUD builds the universal distribution protocol for n segments.
func NewUD(n int) (*OnDemand, error) { return dynamic.UD(n) }

// NewDynamicPagoda builds the on-demand pagoda protocol of Section 3's
// ablation.
func NewDynamicPagoda(n int) (*OnDemand, error) { return dynamic.DynamicPagoda(n) }

// ---- Reactive protocols ----

// ReactiveConfig parameterizes a reactive-protocol simulation.
type ReactiveConfig = reactive.Config

// ReactiveResult summarizes a reactive-protocol run.
type ReactiveResult = reactive.Result

// Tapping simulates stream tapping / patching with unlimited client buffers.
func Tapping(cfg ReactiveConfig) (ReactiveResult, error) { return reactive.Tapping(cfg) }

// HMSM simulates Eager and Vernon's hierarchical multicast stream merging.
func HMSM(cfg ReactiveConfig) (ReactiveResult, error) { return reactive.HMSM(cfg) }

// MergingLowerBound is the ln(1 + lambda D) bound on any zero-delay reactive
// protocol's average bandwidth.
func MergingLowerBound(ratePerHour, videoSeconds float64) float64 {
	return reactive.MergingLowerBound(ratePerHour, videoSeconds)
}

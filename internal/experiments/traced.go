package experiments

import (
	"fmt"
	"io"

	"vodcast/internal/core"
	"vodcast/internal/metrics"
	"vodcast/internal/obs"
	"vodcast/internal/sim"
	"vodcast/internal/workload"
)

// TraceConfig parameterizes a traced DHB run: one video under constant
// Poisson arrivals, with every scheduling decision captured as a qlog-style
// JSONL event stream.
type TraceConfig struct {
	// Segments is the DHB segment count n.
	Segments int
	// Periods optionally carries a DHB-d period vector (nil = CBR).
	Periods []int
	// RatePerHour is the Poisson arrival rate.
	RatePerHour float64
	// SlotSeconds is the slot duration d.
	SlotSeconds float64
	// HorizonSlots is the measured span; WarmupSlots of it are excluded
	// from the bandwidth statistics (the trace still records them).
	HorizonSlots int
	WarmupSlots  int
	// Seed drives the arrival process.
	Seed int64
}

// DefaultTraceConfig mirrors the paper's setup (n = 99, D = 7200 s) at a
// quick horizon.
func DefaultTraceConfig() TraceConfig {
	return TraceConfig{
		Segments:     99,
		RatePerHour:  100,
		SlotSeconds:  7200.0 / 99,
		HorizonSlots: 2000,
		WarmupSlots:  200,
		Seed:         1,
	}
}

// TraceResult summarizes a traced run.
type TraceResult struct {
	Measurement
	// Requests and Instances are the scheduler's lifetime totals.
	Requests  int64
	Instances int64
	// Events counts the emitted trace events, drain included.
	Events uint64
	// DrainSlots is how many post-horizon slots were retired so every
	// instance_start in the trace has a matching instance_stop.
	DrainSlots int
}

func (c TraceConfig) validate() error {
	if c.Segments <= 0 {
		return fmt.Errorf("experiments: segment count %d must be positive", c.Segments)
	}
	if c.RatePerHour <= 0 {
		return fmt.Errorf("experiments: rate %v must be positive", c.RatePerHour)
	}
	if c.SlotSeconds <= 0 {
		return fmt.Errorf("experiments: slot duration %v must be positive", c.SlotSeconds)
	}
	if c.HorizonSlots <= c.WarmupSlots || c.WarmupSlots < 0 {
		return fmt.Errorf("experiments: horizon %d must exceed warmup %d >= 0",
			c.HorizonSlots, c.WarmupSlots)
	}
	return nil
}

// TraceDHB runs the DHB scheduler under Poisson arrivals with a tracer
// attached, streaming every event to sink as JSONL. The trace clock is the
// simulated time, so runs with equal configs produce byte-identical traces.
//
// The per-slot load series in the trace is exact: re-aggregating the
// slot_retire events for slots [WarmupSlots, HorizonSlots) reproduces the
// returned mean and max bandwidth, because both are computed from the same
// retired-slot loads. After the horizon the schedule is drained for
// maxPeriod further slots (unmeasured) so every scheduled instance retires.
func TraceDHB(cfg TraceConfig, sink io.Writer) (TraceResult, error) {
	if err := cfg.validate(); err != nil {
		return TraceResult{}, err
	}
	tracer := obs.NewTracer(sink, 0)
	now := 0.0
	tracer.SetClock(func() float64 { return now })

	sched, err := core.New(core.Config{
		Segments:      cfg.Segments,
		Periods:       cfg.Periods,
		TrackSegments: true,
		Observer:      obs.SchedObserver{Video: 1, T: tracer},
	})
	if err != nil {
		return TraceResult{}, err
	}
	maxPeriod := 0
	for j := 1; j <= cfg.Segments; j++ {
		if p := sched.Period(j); p > maxPeriod {
			maxPeriod = p
		}
	}

	rng := sim.NewRNG(cfg.Seed)
	arrivals := workload.NewSlottedArrivals(rng, workload.Constant(cfg.RatePerHour), cfg.SlotSeconds)
	bw := metrics.NewBandwidth()
	for slot := 0; slot < cfg.HorizonSlots; slot++ {
		now = float64(slot) * cfg.SlotSeconds
		for a := 0; a < arrivals.Next(); a++ {
			sched.AdmitRequest(core.AdmitOptions{})
		}
		rep := sched.AdvanceSlot()
		if slot >= cfg.WarmupSlots {
			bw.Record(float64(rep.Load), cfg.SlotSeconds)
		}
	}
	// Drain: no further arrivals, so after maxPeriod slots every scheduled
	// instance has been transmitted and traced as instance_stop.
	for k := 0; k < maxPeriod; k++ {
		now = float64(cfg.HorizonSlots+k) * cfg.SlotSeconds
		sched.AdvanceSlot()
	}
	if err := tracer.Err(); err != nil {
		return TraceResult{}, fmt.Errorf("experiments: trace sink: %w", err)
	}
	return TraceResult{
		Measurement: Measurement{
			AvgBandwidth: bw.Mean(),
			MaxBandwidth: bw.Max(),
			Slots:        cfg.HorizonSlots - cfg.WarmupSlots,
		},
		Requests:   sched.Requests(),
		Instances:  sched.Instances(),
		Events:     tracer.Total(),
		DrainSlots: maxPeriod,
	}, nil
}

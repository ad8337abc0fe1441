// Package experiments regenerates the evaluation of the paper: the average
// and maximum bandwidth sweeps of Figures 7 and 8, the compressed-video
// study of Figure 9, Section 3's dynamic-pagoda ablation, and the
// naive-versus-heuristic peak comparison that motivates the DHB heuristic.
//
// Absolute numbers depend on the substrate (a fresh event simulator and, for
// Figure 9, a synthetic VBR trace); the package's contract is the paper's
// shape: who wins, by roughly what factor, and where the curves cross.
package experiments

import (
	"fmt"

	"vodcast/internal/broadcast"
	"vodcast/internal/core"
	"vodcast/internal/dynamic"
	"vodcast/internal/metrics"
	"vodcast/internal/reactive"
	"vodcast/internal/sim"
	"vodcast/internal/trace"
	"vodcast/internal/workload"
)

// defaultRates is the request-rate sweep of Figures 7-9, in requests/hour.
var defaultRates = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}

// Config parameterizes the CBR sweeps (Figures 7 and 8).
type Config struct {
	// Rates lists the arrival rates to sweep in requests per hour.
	Rates []float64
	// Segments is the per-video segment count (99 in the paper).
	Segments int
	// VideoSeconds is the video duration D (7200 in the paper).
	VideoSeconds float64
	// TargetRequests sizes each run: the horizon aims to observe this many
	// requests, clamped to [MinHours, MaxHours] of simulated time.
	TargetRequests float64
	MinHours       float64
	MaxHours       float64
	// WarmupSlots are excluded from the statistics.
	WarmupSlots int
	// Seed drives every RNG in the sweep.
	Seed int64
	// IncludeAblation additionally simulates the dynamic pagoda protocol
	// of Section 3's ablation.
	IncludeAblation bool
}

// DefaultConfig reproduces the paper's setup at publication quality.
func DefaultConfig() Config {
	return Config{
		Rates:          defaultRates,
		Segments:       99,
		VideoSeconds:   7200,
		TargetRequests: 20000,
		MinHours:       100,
		MaxHours:       2000,
		WarmupSlots:    200,
		Seed:           1,
	}
}

// QuickConfig is a reduced setup for tests and benchmarks: same shape,
// shorter horizons.
func QuickConfig() Config {
	cfg := DefaultConfig()
	cfg.TargetRequests = 2000
	cfg.MinHours = 30
	cfg.MaxHours = 400
	return cfg
}

func (c Config) validate() error {
	if len(c.Rates) == 0 {
		return fmt.Errorf("experiments: empty rate sweep")
	}
	for _, r := range c.Rates {
		if r <= 0 {
			return fmt.Errorf("experiments: rate %v must be positive", r)
		}
	}
	if c.Segments <= 0 {
		return fmt.Errorf("experiments: segment count %d must be positive", c.Segments)
	}
	if c.VideoSeconds <= 0 {
		return fmt.Errorf("experiments: video duration %v must be positive", c.VideoSeconds)
	}
	if c.TargetRequests <= 0 || c.MinHours <= 0 || c.MaxHours < c.MinHours {
		return fmt.Errorf("experiments: bad horizon sizing (target %v, hours [%v, %v])",
			c.TargetRequests, c.MinHours, c.MaxHours)
	}
	if c.WarmupSlots < 0 {
		return fmt.Errorf("experiments: negative warmup")
	}
	return nil
}

// hoursFor sizes the simulated span for one rate.
func (c Config) hoursFor(rate float64) float64 {
	h := c.TargetRequests / rate
	if h < c.MinHours {
		return c.MinHours
	}
	if h > c.MaxHours {
		return c.MaxHours
	}
	return h
}

// SweepRow carries the measured bandwidths for one arrival rate, in
// multiples of the video consumption rate. NPB is the static pagoda
// comparator, whose bandwidth is its stream count at every rate.
type SweepRow struct {
	RatePerHour float64

	TappingAvg float64
	TappingMax float64
	UDAvg      float64
	UDMax      float64
	DHBAvg     float64
	DHBMax     float64
	NPB        float64

	// DNPBAvg/DNPBMax are filled only when Config.IncludeAblation is set.
	DNPBAvg float64
	DNPBMax float64
}

// effectiveWarmup shrinks the configured warm-up when a horizon is too short
// to afford it, keeping at least three quarters of the run measurable.
func effectiveWarmup(horizonSlots, warmup int) int {
	if warmup > horizonSlots/4 {
		return horizonSlots / 4
	}
	return warmup
}

// runSlotted drives a slotted protocol under Poisson arrivals and returns
// its time-weighted average and maximum per-slot load.
func runSlotted(proto Slotted, seed int64, ratePerHour, slotSeconds float64, horizonSlots, warmupSlots int) (avg, max float64) {
	rng := sim.NewRNG(seed)
	arrivals := workload.NewSlottedArrivals(rng, workload.Constant(ratePerHour), slotSeconds)
	bw := metrics.NewBandwidth()
	for slot := 0; slot < horizonSlots; slot++ {
		for a := 0; a < arrivals.Next(); a++ {
			proto.Admit()
		}
		load := float64(proto.Advance())
		if slot >= warmupSlots {
			bw.Record(load, slotSeconds)
		}
	}
	return bw.Mean(), bw.Max()
}

// Sweep runs the Figures 7-8 experiment: for every rate it simulates stream
// tapping/patching, UD, DHB and (optionally) dynamic pagoda, and pins NPB at
// its stream count.
func Sweep(cfg Config) ([]SweepRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	npbStreams := float64(broadcast.PagodaStreams(cfg.Segments))
	d := cfg.VideoSeconds / float64(cfg.Segments)

	rows := make([]SweepRow, 0, len(cfg.Rates))
	for i, rate := range cfg.Rates {
		hours := cfg.hoursFor(rate)
		horizonSlots := int(hours * 3600 / d)
		seed := cfg.Seed + int64(i)*100
		row := SweepRow{RatePerHour: rate, NPB: npbStreams}

		tap, err := reactive.Tapping(reactive.Config{
			RatePerHour:    rate,
			VideoSeconds:   cfg.VideoSeconds,
			HorizonSeconds: hours * 3600,
			WarmupSeconds:  float64(cfg.WarmupSlots) * d,
			Seed:           seed + 1,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: tapping at %v/h: %w", rate, err)
		}
		row.TappingAvg, row.TappingMax = tap.AvgBandwidth, tap.MaxBandwidth

		ud, err := dynamic.UD(cfg.Segments)
		if err != nil {
			return nil, fmt.Errorf("experiments: UD: %w", err)
		}
		row.UDAvg, row.UDMax = runSlotted(onDemandAdapter{o: ud}, seed+2, rate, d, horizonSlots, cfg.WarmupSlots)

		dhb, err := core.New(core.Config{Segments: cfg.Segments})
		if err != nil {
			return nil, fmt.Errorf("experiments: DHB: %w", err)
		}
		row.DHBAvg, row.DHBMax = runSlotted(dhbAdapter{s: dhb}, seed+3, rate, d, horizonSlots, cfg.WarmupSlots)

		if cfg.IncludeAblation {
			dnpb, err := dynamic.DynamicPagoda(cfg.Segments)
			if err != nil {
				return nil, fmt.Errorf("experiments: dynamic pagoda: %w", err)
			}
			row.DNPBAvg, row.DNPBMax = runSlotted(onDemandAdapter{o: dnpb}, seed+4, rate, d, horizonSlots, cfg.WarmupSlots)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PeaksResult compares the naive latest-slot policy with the DHB heuristic
// under saturation (Section 3's motivating example).
type PeaksResult struct {
	Segments     int
	HorizonSlots int
	NaiveMax     int
	NaiveAvg     float64
	HeuristicMax int
	HeuristicAvg float64
}

// Peaks runs both policies with one request per slot for horizonSlots slots.
func Peaks(segments, horizonSlots int) (PeaksResult, error) {
	if segments <= 0 || horizonSlots <= 0 {
		return PeaksResult{}, fmt.Errorf("experiments: peaks needs positive segments (%d) and horizon (%d)", segments, horizonSlots)
	}
	res := PeaksResult{Segments: segments, HorizonSlots: horizonSlots}
	run := func(policy core.Policy) (int, float64, error) {
		s, err := core.New(core.Config{Segments: segments, Policy: policy})
		if err != nil {
			return 0, 0, err
		}
		max, total := 0, 0
		for slot := 0; slot < horizonSlots; slot++ {
			s.AdmitRequest(core.AdmitOptions{})
			load := s.AdvanceSlot().Load
			total += load
			if load > max {
				max = load
			}
		}
		return max, float64(total) / float64(horizonSlots), nil
	}
	var err error
	if res.NaiveMax, res.NaiveAvg, err = run(core.PolicyNaive); err != nil {
		return PeaksResult{}, err
	}
	if res.HeuristicMax, res.HeuristicAvg, err = run(core.PolicyHeuristic); err != nil {
		return PeaksResult{}, err
	}
	return res, nil
}

// VBRConfig parameterizes the Figure 9 reproduction.
type VBRConfig struct {
	// Rates lists the arrival rates in requests per hour.
	Rates []float64
	// MaxWaitSeconds is the waiting-time guarantee (60 in the paper).
	MaxWaitSeconds float64
	// TraceSeed generates the synthetic Matrix-calibrated trace.
	TraceSeed int64
	// Seed drives the arrival processes.
	Seed int64
	// TargetRequests / MinHours / MaxHours size each run as in Config.
	TargetRequests float64
	MinHours       float64
	MaxHours       float64
	WarmupSlots    int
}

// DefaultVBRConfig reproduces the paper's Figure 9 setup.
func DefaultVBRConfig() VBRConfig {
	return VBRConfig{
		Rates:          defaultRates,
		MaxWaitSeconds: 60,
		TraceSeed:      42,
		Seed:           2,
		TargetRequests: 20000,
		MinHours:       100,
		MaxHours:       2000,
		WarmupSlots:    200,
	}
}

// QuickVBRConfig is the reduced variant for tests and benchmarks.
func QuickVBRConfig() VBRConfig {
	cfg := DefaultVBRConfig()
	cfg.TargetRequests = 2000
	cfg.MinHours = 30
	cfg.MaxHours = 400
	return cfg
}

// Fig9Row carries average bandwidths in megabytes per second.
type Fig9Row struct {
	RatePerHour float64
	UD          float64
	DHBA        float64
	DHBB        float64
	DHBC        float64
	DHBD        float64
}

// Fig9 reproduces the compressed-video comparison: UD and the four DHB
// solutions distributing the (synthetic) Matrix trace.
func Fig9(cfg VBRConfig) ([]Fig9Row, map[core.VBRVariant]core.VBRSolution, error) {
	if len(cfg.Rates) == 0 {
		return nil, nil, fmt.Errorf("experiments: empty rate sweep")
	}
	tr, err := trace.SyntheticMatrix(cfg.TraceSeed)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: %w", err)
	}
	plans, err := core.PlanVBR(tr, cfg.MaxWaitSeconds)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: %w", err)
	}
	base := Config{
		Rates:          cfg.Rates,
		Segments:       plans[core.VariantA].Segments,
		VideoSeconds:   tr.Duration(),
		TargetRequests: cfg.TargetRequests,
		MinHours:       cfg.MinHours,
		MaxHours:       cfg.MaxHours,
		WarmupSlots:    cfg.WarmupSlots,
		Seed:           cfg.Seed,
	}
	if err := base.validate(); err != nil {
		return nil, nil, err
	}

	const mb = 1e6
	rows := make([]Fig9Row, 0, len(cfg.Rates))
	for i, rate := range cfg.Rates {
		hours := base.hoursFor(rate)
		seed := cfg.Seed + int64(i)*100
		row := Fig9Row{RatePerHour: rate}

		// UD distributes the video on peak-rate streams (the DHB-a rate).
		planA := plans[core.VariantA]
		horizon := int(hours * 3600 / planA.SlotDuration)
		ud, err := dynamic.UD(planA.Segments)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: UD: %w", err)
		}
		avg, _ := runSlotted(onDemandAdapter{o: ud}, seed+1, rate, planA.SlotDuration, horizon, cfg.WarmupSlots)
		row.UD = avg * planA.Rate / mb

		for v, dst := range map[core.VBRVariant]*float64{
			core.VariantA: &row.DHBA,
			core.VariantB: &row.DHBB,
			core.VariantC: &row.DHBC,
			core.VariantD: &row.DHBD,
		} {
			plan := plans[v]
			horizon := int(hours * 3600 / plan.SlotDuration)
			sched, err := core.New(plan.SchedulerConfig())
			if err != nil {
				return nil, nil, fmt.Errorf("experiments: %v: %w", v, err)
			}
			avg, _ := runSlotted(dhbAdapter{s: sched}, seed+int64(v)+1, rate, plan.SlotDuration, horizon, cfg.WarmupSlots)
			*dst = avg * plan.Rate / mb
		}
		rows = append(rows, row)
	}
	return rows, plans, nil
}

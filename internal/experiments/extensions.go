package experiments

import (
	"fmt"

	"vodcast/internal/analysis"
	"vodcast/internal/broadcast"
	"vodcast/internal/core"
	"vodcast/internal/dynamic"
	"vodcast/internal/metrics"
	"vodcast/internal/reactive"
	"vodcast/internal/video"
)

// ClientCapRow carries DHB's average bandwidth for one rate under different
// per-client concurrent-stream caps — the paper's Section 5 future-work
// question ("limit the client bandwidth to two or three data streams").
type ClientCapRow struct {
	RatePerHour float64
	Cap1        float64
	Cap2        float64
	Cap3        float64
	Unlimited   float64
}

// ClientCap sweeps the capped DHB variants alongside the unlimited protocol.
func ClientCap(cfg Config) ([]ClientCapRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d := cfg.VideoSeconds / float64(cfg.Segments)
	rows := make([]ClientCapRow, 0, len(cfg.Rates))
	for i, rate := range cfg.Rates {
		hours := cfg.hoursFor(rate)
		horizonSlots := int(hours * 3600 / d)
		seed := cfg.Seed + int64(i)*100
		row := ClientCapRow{RatePerHour: rate}
		for cap, dst := range map[int]*float64{
			1: &row.Cap1,
			2: &row.Cap2,
			3: &row.Cap3,
			0: &row.Unlimited,
		} {
			s, err := core.New(core.Config{Segments: cfg.Segments, MaxClientStreams: cap})
			if err != nil {
				return nil, fmt.Errorf("experiments: client cap %d: %w", cap, err)
			}
			avg, _ := runSlotted(dhbAdapter{s: s}, seed+int64(cap), rate, d, horizonSlots, cfg.WarmupSlots)
			*dst = avg
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ReactiveZooRow compares every reactive and hybrid protocol in the
// repository at one rate, next to the theoretical merging lower bound.
type ReactiveZooRow struct {
	RatePerHour  float64
	Tapping      float64
	HMSM         float64
	Piggyback    float64
	Batching     float64
	Catching     float64
	MergingBound float64
}

// ReactiveZoo sweeps the reactive protocols of the related work. Batching
// uses a ten-minute window; selective catching six dedicated channels;
// piggybacking the classic 5% rate alteration.
func ReactiveZoo(cfg Config) ([]ReactiveZooRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d := cfg.VideoSeconds / float64(cfg.Segments)
	rows := make([]ReactiveZooRow, 0, len(cfg.Rates))
	for i, rate := range cfg.Rates {
		hours := cfg.hoursFor(rate)
		seed := cfg.Seed + int64(i)*100
		rcfg := reactive.Config{
			RatePerHour:    rate,
			VideoSeconds:   cfg.VideoSeconds,
			HorizonSeconds: hours * 3600,
			WarmupSeconds:  float64(cfg.WarmupSlots) * d,
			Seed:           seed,
		}
		row := ReactiveZooRow{
			RatePerHour:  rate,
			MergingBound: reactive.MergingLowerBound(rate, cfg.VideoSeconds),
		}
		tap, err := reactive.Tapping(rcfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: tapping: %w", err)
		}
		row.Tapping = tap.AvgBandwidth
		hm, err := reactive.HMSM(rcfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: HMSM: %w", err)
		}
		row.HMSM = hm.AvgBandwidth
		pb, err := reactive.Piggybacking(rcfg, 0.05)
		if err != nil {
			return nil, fmt.Errorf("experiments: piggybacking: %w", err)
		}
		row.Piggyback = pb.AvgBandwidth
		bat, err := reactive.Batching(rcfg, 600)
		if err != nil {
			return nil, fmt.Errorf("experiments: batching: %w", err)
		}
		row.Batching = bat.AvgBandwidth
		sc, err := reactive.SelectiveCatching(rcfg, 6)
		if err != nil {
			return nil, fmt.Errorf("experiments: selective catching: %w", err)
		}
		row.Catching = sc.AvgBandwidth
		rows = append(rows, row)
	}
	return rows, nil
}

// WaitTradeoffRow relates the segment count to the waiting-time guarantee
// and the bandwidth DHB pays for it at one operating rate.
type WaitTradeoffRow struct {
	Segments    int
	MaxWaitSecs float64
	DHBAvg      float64
	DHBMax      float64
	// Saturation is the analytic ceiling sum(1/j) = H(n).
	Saturation float64
}

// WaitTradeoff sweeps the segment count at a fixed request rate: more
// segments shorten the guaranteed maximum wait (d = D/n) but raise the
// bandwidth, the provisioning trade every deployment must pick. The sweep
// uses cfg.Rates[0] as the operating rate.
func WaitTradeoff(cfg Config, segmentCounts []int) ([]WaitTradeoffRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(segmentCounts) == 0 {
		return nil, fmt.Errorf("experiments: empty segment-count sweep")
	}
	rate := cfg.Rates[0]
	hours := cfg.hoursFor(rate)
	rows := make([]WaitTradeoffRow, 0, len(segmentCounts))
	for i, n := range segmentCounts {
		if n <= 0 {
			return nil, fmt.Errorf("experiments: segment count %d must be positive", n)
		}
		d := cfg.VideoSeconds / float64(n)
		// Few, long slots: make sure the horizon comfortably covers both
		// the warm-up and a meaningful measurement window.
		horizonSlots := int(hours * 3600 / d)
		if min := 40 * n; horizonSlots < min {
			horizonSlots = min
		}
		warmup := effectiveWarmup(horizonSlots, cfg.WarmupSlots)
		s, err := core.New(core.Config{Segments: n})
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		avg, max := runSlotted(dhbAdapter{s: s}, cfg.Seed+int64(i)*100, rate, d, horizonSlots, warmup)
		sat, err := analysis.DHBSaturated(video.DefaultPeriods(n))
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		rows = append(rows, WaitTradeoffRow{
			Segments:    n,
			MaxWaitSecs: d,
			DHBAvg:      avg,
			DHBMax:      max,
			Saturation:  sat,
		})
	}
	return rows, nil
}

// CIRow carries replicate means with 95% confidence half-widths for the
// three simulated Figure 7 protocols at one rate.
type CIRow struct {
	RatePerHour float64
	Replicates  int

	DHBMean     float64
	DHBHalf     float64
	UDMean      float64
	UDHalf      float64
	TappingMean float64
	TappingHalf float64
}

// ConfidenceSweep repeats the Figure 7 measurement `replicates` times with
// independent seeds and reports each protocol's mean average bandwidth with
// its 95% confidence half-width — the error bars the paper's plots omit.
func ConfidenceSweep(cfg Config, replicates int) ([]CIRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if replicates < 2 {
		return nil, fmt.Errorf("experiments: need at least 2 replicates, got %d", replicates)
	}
	d := cfg.VideoSeconds / float64(cfg.Segments)
	rows := make([]CIRow, 0, len(cfg.Rates))
	for i, rate := range cfg.Rates {
		hours := cfg.hoursFor(rate)
		horizonSlots := int(hours * 3600 / d)
		row := CIRow{RatePerHour: rate, Replicates: replicates}
		var dhbR, udR, tapR metrics.Replicates
		for rep := 0; rep < replicates; rep++ {
			seed := cfg.Seed + int64(i)*1000 + int64(rep)*7

			dhb, err := core.New(core.Config{Segments: cfg.Segments})
			if err != nil {
				return nil, fmt.Errorf("experiments: %w", err)
			}
			avg, _ := runSlotted(dhbAdapter{s: dhb}, seed+1, rate, d, horizonSlots, cfg.WarmupSlots)
			dhbR.Add(avg)

			ud, err := dynamic.UD(cfg.Segments)
			if err != nil {
				return nil, fmt.Errorf("experiments: %w", err)
			}
			avg, _ = runSlotted(onDemandAdapter{o: ud}, seed+2, rate, d, horizonSlots, cfg.WarmupSlots)
			udR.Add(avg)

			tap, err := reactive.Tapping(reactive.Config{
				RatePerHour:    rate,
				VideoSeconds:   cfg.VideoSeconds,
				HorizonSeconds: hours * 3600,
				WarmupSeconds:  float64(cfg.WarmupSlots) * d,
				Seed:           seed + 3,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: %w", err)
			}
			tapR.Add(tap.AvgBandwidth)
		}
		row.DHBMean, row.DHBHalf = dhbR.Mean(), dhbR.HalfWidth95()
		row.UDMean, row.UDHalf = udR.Mean(), udR.HalfWidth95()
		row.TappingMean, row.TappingHalf = tapR.Mean(), tapR.HalfWidth95()
		rows = append(rows, row)
	}
	return rows, nil
}

// ModelRow compares a protocol's simulated average bandwidth with its
// closed-form model at one rate.
type ModelRow struct {
	RatePerHour  float64
	DHBSim       float64
	DHBModel     float64
	UDSim        float64
	UDModel      float64
	TappingSim   float64
	TappingModel float64
}

// Models cross-validates the simulators against the closed-form performance
// models of internal/analysis.
func Models(cfg Config) ([]ModelRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d := cfg.VideoSeconds / float64(cfg.Segments)
	periods := video.DefaultPeriods(cfg.Segments)
	fb, err := broadcast.FastBroadcast(cfg.Segments)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	rows := make([]ModelRow, 0, len(cfg.Rates))
	for i, rate := range cfg.Rates {
		hours := cfg.hoursFor(rate)
		horizonSlots := int(hours * 3600 / d)
		seed := cfg.Seed + int64(i)*100
		row := ModelRow{RatePerHour: rate}

		if row.DHBModel, err = analysis.DHBMean(periods, rate, d); err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		if row.UDModel, err = analysis.OnDemandMean(fb, rate, d); err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		if row.TappingModel, err = analysis.PatchingMean(rate, cfg.VideoSeconds); err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}

		dhb, err := core.New(core.Config{Segments: cfg.Segments})
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		row.DHBSim, _ = runSlotted(dhbAdapter{s: dhb}, seed+1, rate, d, horizonSlots, cfg.WarmupSlots)

		ud, err := dynamic.UD(cfg.Segments)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		row.UDSim, _ = runSlotted(onDemandAdapter{o: ud}, seed+2, rate, d, horizonSlots, cfg.WarmupSlots)

		tap, err := reactive.Tapping(reactive.Config{
			RatePerHour:    rate,
			VideoSeconds:   cfg.VideoSeconds,
			HorizonSeconds: hours * 3600,
			WarmupSeconds:  float64(cfg.WarmupSlots) * d,
			Seed:           seed + 3,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		row.TappingSim = tap.AvgBandwidth

		rows = append(rows, row)
	}
	return rows, nil
}

// DSBRow extends the Section 3 ablation with dynamic skyscraper
// broadcasting, the earlier dynamic-static hybrid of the related work.
type DSBRow struct {
	RatePerHour float64
	DSB         float64
	UD          float64
	DHB         float64
}

// DSBComparison sweeps DSB against UD and DHB: the paper's related-work
// claim is that DSB "requires a higher server bandwidth than the UD
// protocol" because the skyscraper mapping packs fewer segments per stream.
func DSBComparison(cfg Config) ([]DSBRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d := cfg.VideoSeconds / float64(cfg.Segments)
	rows := make([]DSBRow, 0, len(cfg.Rates))
	for i, rate := range cfg.Rates {
		hours := cfg.hoursFor(rate)
		horizonSlots := int(hours * 3600 / d)
		seed := cfg.Seed + int64(i)*100
		row := DSBRow{RatePerHour: rate}

		dsb, err := dynamic.DSB(cfg.Segments)
		if err != nil {
			return nil, fmt.Errorf("experiments: DSB: %w", err)
		}
		row.DSB, _ = runSlotted(onDemandAdapter{o: dsb}, seed+1, rate, d, horizonSlots, cfg.WarmupSlots)

		ud, err := dynamic.UD(cfg.Segments)
		if err != nil {
			return nil, fmt.Errorf("experiments: UD: %w", err)
		}
		row.UD, _ = runSlotted(onDemandAdapter{o: ud}, seed+2, rate, d, horizonSlots, cfg.WarmupSlots)

		dhb, err := core.New(core.Config{Segments: cfg.Segments})
		if err != nil {
			return nil, fmt.Errorf("experiments: DHB: %w", err)
		}
		row.DHB, _ = runSlotted(dhbAdapter{s: dhb}, seed+3, rate, d, horizonSlots, cfg.WarmupSlots)

		rows = append(rows, row)
	}
	return rows, nil
}

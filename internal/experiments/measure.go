package experiments

import (
	"fmt"

	"vodcast/internal/core"
	"vodcast/internal/dynamic"
	"vodcast/internal/metrics"
	"vodcast/internal/workload"
)

// Slotted is any slotted protocol that can be driven one slot at a time:
// admit the requests arriving during the current slot, then advance, learning
// the finished slot's load.
type Slotted interface {
	// Admit processes one request arriving during the current slot and
	// reports how many new transmissions it forced.
	Admit() int
	// Advance finishes the current slot and reports its load in multiples
	// of the consumption rate.
	Advance() int
}

type dhbAdapter struct{ s *core.Scheduler }

func (a dhbAdapter) Admit() int {
	res, _ := a.s.AdmitRequest(core.AdmitOptions{})
	return res.Placed
}
func (a dhbAdapter) Advance() int { return a.s.AdvanceSlot().Load }

// AdaptDHB exposes a DHB scheduler through the Slotted interface.
func AdaptDHB(s *core.Scheduler) Slotted { return dhbAdapter{s: s} }

// onDemandAdapter exposes a dynamic broadcasting protocol through the Slotted
// interface.
type onDemandAdapter struct{ o *dynamic.OnDemand }

func (a onDemandAdapter) Admit() int { return a.o.Admit() }

func (a onDemandAdapter) Advance() int {
	_, load := a.o.AdvanceSlot()
	return load
}

// Measurement summarizes a Measure run.
type Measurement struct {
	// AvgBandwidth and MaxBandwidth are in multiples of the consumption
	// rate (per-slot instance counts).
	AvgBandwidth float64
	MaxBandwidth float64
	// Slots is the number of measured (post-warmup) slots.
	Slots int
}

// Measure drives a slotted protocol under constant Poisson arrivals and
// returns its bandwidth statistics.
func Measure(proto Slotted, ratePerHour, slotSeconds float64, horizonSlots, warmupSlots int, seed int64) (Measurement, error) {
	if proto == nil {
		return Measurement{}, fmt.Errorf("experiments: nil protocol")
	}
	if ratePerHour <= 0 {
		return Measurement{}, fmt.Errorf("experiments: rate %v must be positive", ratePerHour)
	}
	if slotSeconds <= 0 {
		return Measurement{}, fmt.Errorf("experiments: slot duration %v must be positive", slotSeconds)
	}
	if horizonSlots <= warmupSlots || warmupSlots < 0 {
		return Measurement{}, fmt.Errorf("experiments: horizon %d must exceed warmup %d >= 0", horizonSlots, warmupSlots)
	}
	avg, max := runSlotted(proto, seed, ratePerHour, slotSeconds, horizonSlots, warmupSlots)
	return Measurement{AvgBandwidth: avg, MaxBandwidth: max, Slots: horizonSlots - warmupSlots}, nil
}

// Replay drives a slotted protocol with a recorded arrival trace instead of
// synthetic Poisson arrivals, so production request logs can be evaluated
// directly. The horizon extends past the last arrival long enough to drain
// the schedule.
func Replay(proto Slotted, arrivals *workload.ArrivalTrace, slotSeconds float64, drainSlots int) (Measurement, error) {
	if proto == nil {
		return Measurement{}, fmt.Errorf("experiments: nil protocol")
	}
	if arrivals == nil {
		return Measurement{}, fmt.Errorf("experiments: nil arrival trace")
	}
	if drainSlots < 0 {
		return Measurement{}, fmt.Errorf("experiments: drain slots %d must be non-negative", drainSlots)
	}
	counts, err := arrivals.Slotted(slotSeconds)
	if err != nil {
		return Measurement{}, fmt.Errorf("experiments: %w", err)
	}
	bw := metrics.NewBandwidth()
	for _, c := range counts {
		for a := 0; a < c; a++ {
			proto.Admit()
		}
		bw.Record(float64(proto.Advance()), slotSeconds)
	}
	for k := 0; k < drainSlots; k++ {
		bw.Record(float64(proto.Advance()), slotSeconds)
	}
	return Measurement{
		AvgBandwidth: bw.Mean(),
		MaxBandwidth: bw.Max(),
		Slots:        len(counts) + drainSlots,
	}, nil
}

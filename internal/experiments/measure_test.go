package experiments

import (
	"math"
	"testing"

	"vodcast/internal/core"
	"vodcast/internal/dynamic"
	"vodcast/internal/sim"
	"vodcast/internal/workload"
)

func TestMeasureValidation(t *testing.T) {
	dhb, err := core.New(core.Config{Segments: 10})
	if err != nil {
		t.Fatal(err)
	}
	proto := AdaptDHB(dhb)
	if _, err := Measure(nil, 1, 1, 10, 0, 1); err == nil {
		t.Error("nil protocol accepted")
	}
	if _, err := Measure(proto, 0, 1, 10, 0, 1); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := Measure(proto, 1, 0, 10, 0, 1); err == nil {
		t.Error("zero slot accepted")
	}
	if _, err := Measure(proto, 1, 1, 10, 10, 1); err == nil {
		t.Error("warmup >= horizon accepted")
	}
}

func TestMeasureAdapters(t *testing.T) {
	dhb, err := core.New(core.Config{Segments: 20})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Measure(AdaptDHB(dhb), 50, 72.7, 3000, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.AvgBandwidth <= 0 || m.MaxBandwidth < m.AvgBandwidth || m.Slots != 2900 {
		t.Fatalf("bad measurement %+v", m)
	}
	ud, err := dynamic.UD(20)
	if err != nil {
		t.Fatal(err)
	}
	mu, err := Measure(onDemandAdapter{o: ud}, 50, 72.7, 3000, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if mu.AvgBandwidth <= m.AvgBandwidth {
		t.Fatalf("UD avg %.2f should exceed DHB avg %.2f", mu.AvgBandwidth, m.AvgBandwidth)
	}
}

func TestReplayMatchesPoissonMeasure(t *testing.T) {
	// A replayed Poisson trace must land near a live Poisson run of the
	// same rate.
	rng := sim.NewRNG(81)
	proc := sim.NewPoissonProcess(rng, 50.0/3600)
	var times []float64
	horizon := 400 * 3600.0
	for {
		next := proc.Next()
		if next > horizon {
			break
		}
		times = append(times, next)
	}
	tr, err := workload.NewArrivalTrace(times)
	if err != nil {
		t.Fatal(err)
	}
	const d = 72.7
	dhb, err := core.New(core.Config{Segments: 99})
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := Replay(AdaptDHB(dhb), tr, d, 99)
	if err != nil {
		t.Fatal(err)
	}
	dhb2, err := core.New(core.Config{Segments: 99})
	if err != nil {
		t.Fatal(err)
	}
	live, err := Measure(AdaptDHB(dhb2), 50, d, int(horizon/d), 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(replayed.AvgBandwidth-live.AvgBandwidth) > 0.25 {
		t.Fatalf("replayed %.2f vs live %.2f", replayed.AvgBandwidth, live.AvgBandwidth)
	}
}

func TestReplayDrainsEverything(t *testing.T) {
	tr, err := workload.NewArrivalTrace([]float64{10})
	if err != nil {
		t.Fatal(err)
	}
	dhb, err := core.New(core.Config{Segments: 12})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Replay(AdaptDHB(dhb), tr, 60, 13)
	if err != nil {
		t.Fatal(err)
	}
	// One isolated request transmits exactly its 12 segments.
	total := m.AvgBandwidth * float64(m.Slots) // mean * slot count = instances
	if math.Abs(total-12) > 1e-9 {
		t.Fatalf("replay transmitted %.2f instances, want 12", total)
	}
}

func TestReplayValidation(t *testing.T) {
	tr, err := workload.NewArrivalTrace([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	dhb, err := core.New(core.Config{Segments: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(nil, tr, 60, 0); err == nil {
		t.Error("nil protocol accepted")
	}
	if _, err := Replay(AdaptDHB(dhb), nil, 60, 0); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := Replay(AdaptDHB(dhb), tr, 0, 0); err == nil {
		t.Error("zero slot accepted")
	}
	if _, err := Replay(AdaptDHB(dhb), tr, 60, -1); err == nil {
		t.Error("negative drain accepted")
	}
}

package dynamic

import (
	"testing"

	"vodcast/internal/broadcast"
	"vodcast/internal/sim"
)

func TestUDSingleRequestCost(t *testing.T) {
	o, err := UD(99)
	if err != nil {
		t.Fatal(err)
	}
	if added := o.Admit(); added != 99 {
		t.Fatalf("isolated request forced %d transmissions, want 99", added)
	}
	total := 0
	for k := 0; k < 200; k++ {
		_, load := o.AdvanceSlot()
		total += load
	}
	if total != 99 {
		t.Fatalf("transmitted %d instances, want 99", total)
	}
}

func TestUDSameSlotRequestsShare(t *testing.T) {
	o, err := UD(50)
	if err != nil {
		t.Fatal(err)
	}
	o.Admit()
	for r := 0; r < 5; r++ {
		if added := o.Admit(); added != 0 {
			t.Fatalf("same-slot request forced %d new transmissions", added)
		}
	}
}

func TestUDTimeliness(t *testing.T) {
	o, err := UD(40)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(21)
	for step := 0; step < 3000; step++ {
		i := o.CurrentSlot()
		for a := 0; a < rng.Poisson(0.4); a++ {
			got := o.AdmitTraced()
			for s := 1; s <= 40; s++ {
				if got[s] <= i || got[s] > i+s {
					t.Fatalf("slot %d: segment %d served at %d outside (%d, %d]", i, s, got[s], i, i+s)
				}
			}
		}
		o.AdvanceSlot()
	}
}

func TestDynamicPagodaTimeliness(t *testing.T) {
	o, err := DynamicPagoda(40)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(22)
	for step := 0; step < 3000; step++ {
		i := o.CurrentSlot()
		for a := 0; a < rng.Poisson(0.6); a++ {
			got := o.AdmitTraced()
			for s := 1; s <= 40; s++ {
				if got[s] <= i || got[s] > i+s {
					t.Fatalf("slot %d: segment %d served at %d outside (%d, %d]", i, s, got[s], i, i+s)
				}
			}
		}
		o.AdvanceSlot()
	}
}

func TestUDSaturatesToFastBroadcasting(t *testing.T) {
	// "Above 200 requests per hour ... the UD reverts to a conventional FB
	// protocol": with a request in every slot, every stream slot is
	// transmitted, so the load equals the FB stream count.
	o, err := UD(99)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := broadcast.FastBroadcast(99)
	if err != nil {
		t.Fatal(err)
	}
	if o.Streams() != fb.Streams() {
		t.Fatalf("Streams = %d, want %d", o.Streams(), fb.Streams())
	}
	var total, slotCount int
	for k := 0; k < 3000; k++ {
		o.Admit()
		_, load := o.AdvanceSlot()
		if load > o.Streams() {
			t.Fatalf("load %d exceeded stream count %d", load, o.Streams())
		}
		if k >= 500 {
			total += load
			slotCount++
		}
	}
	mean := float64(total) / float64(slotCount)
	if mean < float64(o.Streams())-0.05 {
		t.Fatalf("saturated mean load = %.3f, want about %d", mean, o.Streams())
	}
}

func TestDynamicPagodaSaturatesBelowUD(t *testing.T) {
	// Section 3: the dynamic NPB variant "bested the UD protocol at
	// moderate to high access rates because its bandwidth requirements
	// never exceeded those of NPB" (6 streams vs UD's 7 for 99 segments).
	ud, err := UD(99)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := DynamicPagoda(99)
	if err != nil {
		t.Fatal(err)
	}
	var udTotal, dpTotal int
	for k := 0; k < 3000; k++ {
		ud.Admit()
		dp.Admit()
		_, udLoad := ud.AdvanceSlot()
		_, dpLoad := dp.AdvanceSlot()
		if k >= 500 {
			udTotal += udLoad
			dpTotal += dpLoad
		}
	}
	if dpTotal >= udTotal {
		t.Fatalf("saturated dynamic pagoda load %d not below UD load %d", dpTotal, udTotal)
	}
}

func TestOnDemandLowRateSharing(t *testing.T) {
	// Two requests one slot apart must share every segment whose first
	// occurrence serves both.
	o, err := UD(30)
	if err != nil {
		t.Fatal(err)
	}
	first := o.Admit()
	o.AdvanceSlot()
	second := o.Admit()
	if first != 30 {
		t.Fatalf("first request forced %d, want 30", first)
	}
	if second >= 30 || second == 0 {
		t.Fatalf("second request forced %d transmissions, want within (0, 30)", second)
	}
}

func TestOnDemandErrors(t *testing.T) {
	if _, err := newOnDemand(nil, 0); err == nil {
		t.Fatal("nil mapping should error")
	}
	m, err := broadcast.FastBroadcast(7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newOnDemand(m, -1); err == nil {
		t.Fatal("negative start slot should error")
	}
	if _, err := UD(0); err == nil {
		t.Fatal("UD(0) should error")
	}
	if _, err := DynamicPagoda(0); err == nil {
		t.Fatal("DynamicPagoda(0) should error")
	}
}

func TestOnDemandCounters(t *testing.T) {
	o, err := UD(10)
	if err != nil {
		t.Fatal(err)
	}
	o.Admit()
	o.Admit()
	if o.Requests() != 2 {
		t.Fatalf("Requests = %d, want 2", o.Requests())
	}
	if o.Instances() != 10 {
		t.Fatalf("Instances = %d, want 10", o.Instances())
	}
	if o.N() != 10 {
		t.Fatalf("N = %d, want 10", o.N())
	}
}

func TestOnDemandInstanceConservation(t *testing.T) {
	o, err := DynamicPagoda(15)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(23)
	var transmitted int64
	for step := 0; step < 2000; step++ {
		for a := 0; a < rng.Poisson(0.3); a++ {
			o.Admit()
		}
		_, load := o.AdvanceSlot()
		transmitted += int64(load)
	}
	for k := 0; k < 20; k++ {
		_, load := o.AdvanceSlot()
		transmitted += int64(load)
	}
	if transmitted != o.Instances() {
		t.Fatalf("transmitted %d but marked %d instances", transmitted, o.Instances())
	}
}

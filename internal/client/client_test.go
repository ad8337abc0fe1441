package client

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"vodcast/internal/core"
	"vodcast/internal/sim"
	"vodcast/internal/video"
)

func TestNewValidation(t *testing.T) {
	if _, err := NewFrom(0, []int{0}, 1); err == nil {
		t.Fatal("empty periods should error")
	}
	if _, err := NewFrom(0, []int{0, 2}, 1); err == nil {
		t.Fatal("T[1] != 1 should error")
	}
	if _, err := NewFrom(-1, video.DefaultPeriods(3), 1); err == nil {
		t.Fatal("negative arrival should error")
	}
}

func TestSTBHappyPath(t *testing.T) {
	c, err := NewFrom(1, video.DefaultPeriods(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	feeds := []struct {
		slot int
		segs []int
	}{
		{slot: 2, segs: []int{1}},
		{slot: 3, segs: []int{2}},
		{slot: 4, segs: []int{3}},
	}
	for _, f := range feeds {
		if err := c.ObserveSlot(f.slot, f.segs); err != nil {
			t.Fatalf("slot %d: %v", f.slot, err)
		}
	}
	if !c.Complete() {
		t.Fatal("all segments fed but STB not complete")
	}
	if c.MaxBuffered() != 1 {
		t.Fatalf("MaxBuffered = %d, want 1 for just-in-time delivery", c.MaxBuffered())
	}
}

func TestSTBDetectsMissedDeadline(t *testing.T) {
	c, err := NewFrom(1, video.DefaultPeriods(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ObserveSlot(2, []int{1}); err != nil {
		t.Fatal(err)
	}
	// Slot 3 passes without segment 2: deadline 1+2=3 missed.
	err = c.ObserveSlot(3, nil)
	if err == nil || !strings.Contains(err.Error(), "segment 2") {
		t.Fatalf("missed deadline not detected: %v", err)
	}
}

// TestSTBMeasuresQoE: a tolerant caller keeps feeding slots past a miss, and
// the STB measures slack, misses, rebuffers, startup and the buffer peak.
func TestSTBMeasuresQoE(t *testing.T) {
	// Video of 4 segments, deadlines 10+1..10+4, requested in slot 10.
	c, err := NewFrom(10, []int{0, 1, 2, 3, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Slot 11: segments 1 and 2 arrive — 1 is just in time (slack 0), 2 a
	// slot early (slack 1). Segment 1's deadline settles in the same slot.
	feeds := []struct {
		slot int
		segs []int
		miss bool
	}{
		{slot: 11, segs: []int{1, 2}},
		{slot: 12},
		// Segment 3 misses its slot-13 deadline.
		{slot: 13, miss: true},
		// 3 arrives late (slack -1); 4 never arrives and misses too.
		{slot: 14, segs: []int{3}, miss: true},
	}
	for _, f := range feeds {
		err := c.ObserveSlot(f.slot, f.segs)
		if f.miss != errors.Is(err, ErrMissedDeadline) {
			t.Fatalf("slot %d: err = %v, want miss %v", f.slot, err, f.miss)
		}
	}
	want := QoE{Needed: 4, Received: 3, Startup: 1, Misses: 2, Rebuffers: 1, MinSlack: -1, SumSlack: 0, Slots: 4}
	if got := c.QoE(); got != want {
		t.Fatalf("QoE = %+v, want %+v", got, want)
	}
	if c.MaxBuffered() != 2 {
		t.Fatalf("MaxBuffered = %d, want 2 (the late segment is never buffered)", c.MaxBuffered())
	}
}

// TestSTBQoEOfEmptySession: misses in separated slots are separate stalls,
// and a session that received nothing reports its whole length as startup.
func TestSTBQoEOfEmptySession(t *testing.T) {
	c, err := NewFrom(0, []int{0, 1, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for slot := 1; slot <= 3; slot++ {
		_ = c.ObserveSlot(slot, nil)
	}
	want := QoE{Needed: 2, Startup: 3, Misses: 2, Rebuffers: 2, Slots: 3}
	if got := c.QoE(); got != want {
		t.Fatalf("QoE = %+v, want %+v", got, want)
	}
}

func TestSTBEarlyDeliveryBuffers(t *testing.T) {
	c, err := NewFrom(0, video.DefaultPeriods(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Everything arrives in slot 1: buffer holds 4 segments at once.
	if err := c.ObserveSlot(1, []int{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if c.MaxBuffered() != 4 {
		t.Fatalf("MaxBuffered = %d, want 4", c.MaxBuffered())
	}
	for slot := 2; slot <= 4; slot++ {
		if err := c.ObserveSlot(slot, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Complete() {
		t.Fatal("STB not complete")
	}
}

func TestSTBIgnoresPreArrivalAndDuplicates(t *testing.T) {
	c, err := NewFrom(5, video.DefaultPeriods(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Transmission during the arrival slot itself cannot be used.
	if err := c.ObserveSlot(5, []int{1}); err != nil {
		t.Fatal(err)
	}
	if c.Received(1) {
		t.Fatal("segment downloaded during the arrival slot")
	}
	if err := c.ObserveSlot(6, []int{1, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if !c.Received(1) || !c.Received(2) {
		t.Fatal("segments not received")
	}
	if c.MaxBuffered() != 2 {
		t.Fatalf("MaxBuffered = %d, want 2 (duplicate must not double-count)", c.MaxBuffered())
	}
}

func TestSTBRejectsBadInput(t *testing.T) {
	c, err := NewFrom(0, video.DefaultPeriods(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ObserveSlot(1, []int{7}); err == nil {
		t.Fatal("unknown segment accepted")
	}
	if err := c.ObserveSlot(1, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.ObserveSlot(2, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.ObserveSlot(1, nil); err == nil {
		t.Fatal("out-of-order slot accepted")
	}
}

// TestDHBServesEveryCustomer is the end-to-end oracle: a DHB scheduler under
// Poisson load, with an STB spawned per request, must deliver every segment
// of every request by its deadline.
func TestDHBServesEveryCustomer(t *testing.T) {
	const n = 30
	periods := video.DefaultPeriods(n)
	for _, policy := range []core.Policy{core.PolicyHeuristic, core.PolicyNaive} {
		s, err := core.New(core.Config{Segments: n, TrackSegments: true, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(31)
		var live []*STB
		for step := 0; step < 3000; step++ {
			for a := 0; a < rng.Poisson(0.5); a++ {
				s.AdmitRequest(core.AdmitOptions{})
				stb, err := NewFrom(s.CurrentSlot(), periods, 1)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, stb)
			}
			rep := s.AdvanceSlot()
			kept := live[:0]
			for _, stb := range live {
				if err := stb.ObserveSlot(rep.Slot, rep.Segments); err != nil {
					t.Fatalf("policy %v: %v", policy, err)
				}
				if !stb.Complete() {
					kept = append(kept, stb)
				}
			}
			live = kept
		}
	}
}

// TestDHBWithWorkAheadPeriodsServesEveryCustomer repeats the oracle with a
// stretched DHB-d style period vector.
func TestDHBWithWorkAheadPeriodsServesEveryCustomer(t *testing.T) {
	periods := []int{0, 1, 3, 3, 5, 6, 7, 9, 9, 11, 12}
	s, err := core.New(core.Config{Segments: 10, Periods: periods, TrackSegments: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(33)
	var live []*STB
	for step := 0; step < 4000; step++ {
		for a := 0; a < rng.Poisson(0.8); a++ {
			s.AdmitRequest(core.AdmitOptions{})
			stb, err := NewFrom(s.CurrentSlot(), periods, 1)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, stb)
		}
		rep := s.AdvanceSlot()
		kept := live[:0]
		for _, stb := range live {
			if err := stb.ObserveSlot(rep.Slot, rep.Segments); err != nil {
				t.Fatal(err)
			}
			if !stb.Complete() {
				kept = append(kept, stb)
			}
		}
		live = kept
	}
}

func TestNewFromValidation(t *testing.T) {
	p := video.DefaultPeriods(5)
	if _, err := NewFrom(0, p, 0); err == nil {
		t.Error("from 0 accepted")
	}
	if _, err := NewFrom(0, p, 6); err == nil {
		t.Error("from beyond n accepted")
	}
}

func TestResumeSTBDeadlinesShift(t *testing.T) {
	c, err := NewFrom(10, video.DefaultPeriods(6), 4)
	if err != nil {
		t.Fatal(err)
	}
	// The customer consumes segment 4 first: deadline 10+1, then 10+2, ...
	if c.Deadline(4) != 11 || c.Deadline(5) != 12 || c.Deadline(6) != 13 {
		t.Fatalf("deadlines = %d %d %d", c.Deadline(4), c.Deadline(5), c.Deadline(6))
	}
	if c.Deadline(2) != -1 {
		t.Fatalf("pre-resume segment has deadline %d", c.Deadline(2))
	}
	if c.Complete() {
		t.Fatal("resume STB complete before receiving anything")
	}
	if !c.Received(3) {
		t.Fatal("pre-resume segments should count as held")
	}
}

func TestResumeSTBHappyPath(t *testing.T) {
	c, err := NewFrom(0, video.DefaultPeriods(5), 3)
	if err != nil {
		t.Fatal(err)
	}
	feeds := []struct {
		slot int
		segs []int
	}{
		{slot: 1, segs: []int{3, 1}}, // stray S1 is ignored (already held)
		{slot: 2, segs: []int{4}},
		{slot: 3, segs: []int{5}},
	}
	for _, f := range feeds {
		if err := c.ObserveSlot(f.slot, f.segs); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Complete() {
		t.Fatal("resume STB not complete")
	}
}

// TestResumeSTBDetectsMiss: each slot that passes without the segment due in
// it is a miss, and the message names the deadline it judged, arrival + T
// with T = slot - arrival, not the unshifted period of the missed segment.
func TestResumeSTBDetectsMiss(t *testing.T) {
	const arrival = 6
	c, err := NewFrom(arrival, video.DefaultPeriods(6), 4)
	if err != nil {
		t.Fatal(err)
	}
	for slot, j := arrival+1, 4; j <= 6; slot, j = slot+1, j+1 {
		err := c.ObserveSlot(slot, nil)
		want := fmt.Sprintf("segment %d missed its deadline slot %d (arrival %d, T=%d)", j, slot, arrival, slot-arrival)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("slot %d: error %v, want %q", slot, err, want)
		}
	}
}

// TestWithheldSlotsSettleAsEmpty: a slot the STB is never fed — the server
// skips a subscriber on slots that carry none of its instances — settles
// its deadlines exactly as if it had been fed with no segments. Each seeded
// stream is played twice, once feeding every slot (the withheld ones empty)
// and once leaving the withheld ones out; the two must read the same QoE,
// the same MaxBuffered and the same first error, after every fed slot and
// at the end. Withheld deadlines cover on-time, late, missing and
// consecutive-miss segments, resumes and non-monotone vectors.
func TestWithheldSlotsSettleAsEmpty(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		periods := video.DefaultPeriods(n)
		if seed%2 == 1 {
			for j := 2; j <= n; j++ {
				periods[j] = 1 + rng.Intn(2*j)
			}
		}
		from := 1
		if rng.Intn(3) == 0 {
			from = 1 + rng.Intn(n)
		}
		arrival := rng.Intn(5)
		span := 0
		for k := 1; k <= n-from+1; k++ {
			span = max(span, periods[k])
		}
		// segs[k] is slot arrival+k's transmissions; a withheld slot has
		// none, and the last slot is always fed.
		segs := make([][]int, span+1)
		withheld := make([]bool, span+1)
		for k := range segs {
			if k < span && rng.Intn(3) == 0 {
				withheld[k] = true
				continue
			}
			for range rng.Intn(3) {
				segs[k] = append(segs[k], 1+rng.Intn(n))
			}
		}
		play := func(skip bool) (string, error) {
			c, err := NewFrom(arrival, periods, from)
			if err != nil {
				t.Fatal(err)
			}
			var first error
			var trail strings.Builder
			for k, s := range segs {
				if skip && withheld[k] {
					continue
				}
				if err := c.ObserveSlot(arrival+k, s); err != nil && first == nil {
					first = err
				}
				if !withheld[k] {
					fmt.Fprintf(&trail, "slot %d: %+v maxbuf=%d\n", arrival+k, c.QoE(), c.MaxBuffered())
				}
			}
			return trail.String(), first
		}
		fedTrail, fedErr := play(false)
		gotTrail, gotErr := play(true)
		if gotTrail != fedTrail {
			t.Errorf("seed %d: withheld slots measured\n%s\nfed empty\n%s", seed, gotTrail, fedTrail)
		}
		if fmt.Sprint(gotErr) != fmt.Sprint(fedErr) {
			t.Errorf("seed %d: first error %v with withheld slots, %v fed empty", seed, gotErr, fedErr)
		}
	}
}

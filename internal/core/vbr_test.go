package core

import (
	"testing"

	"vodcast/internal/trace"
)

func planMatrix(t *testing.T) map[VBRVariant]VBRSolution {
	t.Helper()
	tr, err := trace.SyntheticMatrix(42)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := PlanVBR(tr, 60)
	if err != nil {
		t.Fatal(err)
	}
	return plans
}

// TestPlanVBRFeasibleAtTraceScale: on these traces the last cumulative sums
// VerifyFeasible compares sit near 5.2e9 bytes and differ by a few
// millionths of a byte of rounding; the plans are feasible.
func TestPlanVBRFeasibleAtTraceScale(t *testing.T) {
	for _, tc := range []struct {
		seed    int64
		maxWait float64
	}{{1, 30}, {7, 30}, {7, 120}} {
		tr, err := trace.SyntheticMatrix(tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := PlanVBR(tr, tc.maxWait); err != nil {
			t.Errorf("seed %d, wait %v s: %v", tc.seed, tc.maxWait, err)
		}
	}
}

func TestPlanVBRSegmentCounts(t *testing.T) {
	plans := planMatrix(t)
	// Paper Section 4: 137 segments for a one-minute wait on the 8170 s
	// video; smoothing packs them into fewer (the paper's trace gave 129).
	if got := plans[VariantA].Segments; got != 137 {
		t.Fatalf("DHB-a segments = %d, want 137", got)
	}
	if got := plans[VariantB].Segments; got != 137 {
		t.Fatalf("DHB-b segments = %d, want 137", got)
	}
	c := plans[VariantC].Segments
	if c >= 137 || c < 120 {
		t.Fatalf("DHB-c segments = %d, want a modest reduction below 137", c)
	}
	if plans[VariantD].Segments != c {
		t.Fatalf("DHB-d segments = %d, want same as DHB-c's %d", plans[VariantD].Segments, c)
	}
}

func TestPlanVBRRateOrdering(t *testing.T) {
	tr, err := trace.SyntheticMatrix(42)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := PlanVBR(tr, 60)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c, d := plans[VariantA], plans[VariantB], plans[VariantC], plans[VariantD]
	// Section 4's chain: 951 (peak) > 789 (segment peak) > 671 (smoothed)
	// >= mean, and DHB-d reuses DHB-c's rate.
	if !(a.Rate > b.Rate && b.Rate > c.Rate && c.Rate >= tr.Mean()) {
		t.Fatalf("rate ordering violated: a=%.0f b=%.0f c=%.0f mean=%.0f", a.Rate, b.Rate, c.Rate, tr.Mean())
	}
	if d.Rate != c.Rate {
		t.Fatalf("DHB-d rate %.0f differs from DHB-c rate %.0f", d.Rate, c.Rate)
	}
	if a.Rate != tr.Peak() {
		t.Fatalf("DHB-a rate = %.0f, want trace peak %.0f", a.Rate, tr.Peak())
	}
}

func TestPlanVBRPeriods(t *testing.T) {
	plans := planMatrix(t)
	d := plans[VariantD]
	if d.Periods[1] != 1 {
		t.Fatalf("DHB-d T[1] = %d, want 1", d.Periods[1])
	}
	relaxed := 0
	for j := 1; j <= d.Segments; j++ {
		if d.Periods[j] < j {
			t.Fatalf("DHB-d T[%d] = %d below the CBR deadline", j, d.Periods[j])
		}
		if d.Periods[j] > j {
			relaxed++
		}
	}
	// "Nearly all other segments could be delayed by one to eight slots."
	if relaxed < d.Segments/2 {
		t.Fatalf("only %d/%d periods relaxed", relaxed, d.Segments)
	}
	for _, v := range []VBRVariant{VariantA, VariantB, VariantC} {
		p := plans[v].Periods
		for j := 1; j <= plans[v].Segments; j++ {
			if p[j] != j {
				t.Fatalf("%v T[%d] = %d, want identity", v, j, p[j])
			}
		}
	}
}

func TestPlanVBRSaturatedBandwidthOrdering(t *testing.T) {
	plans := planMatrix(t)
	a := plans[VariantA].SaturatedBandwidth()
	b := plans[VariantB].SaturatedBandwidth()
	c := plans[VariantC].SaturatedBandwidth()
	d := plans[VariantD].SaturatedBandwidth()
	// Figure 9's ordering at high request rates.
	if !(a > b && b > c && c > d) {
		t.Fatalf("saturated bandwidth not ordered: a=%.0f b=%.0f c=%.0f d=%.0f", a, b, c, d)
	}
	// Section 4: switching to a deterministic waiting time (a -> b) has
	// "the most impact" of any single step.
	if (a-b) < (b-c) || (a-b) < (c-d) {
		t.Fatalf("a->b saving %.0f should be the largest step (b->c %.0f, c->d %.0f)", a-b, b-c, c-d)
	}
}

func TestPlanVBRBuffers(t *testing.T) {
	plans := planMatrix(t)
	if plans[VariantC].WorkAheadBuffer <= 0 {
		t.Fatal("DHB-c must need a positive work-ahead buffer")
	}
	if plans[VariantD].WorkAheadBuffer <= 0 {
		t.Fatal("DHB-d must need a positive work-ahead buffer")
	}
	// Delaying transmissions toward their deadlines can only reduce the
	// data waiting in the client buffer.
	if plans[VariantD].WorkAheadBuffer > plans[VariantC].WorkAheadBuffer {
		t.Fatal("DHB-d buffer exceeds DHB-c's despite later deliveries")
	}
}

func TestPlanVBRSchedulerConfigRuns(t *testing.T) {
	plans := planMatrix(t)
	for _, v := range []VBRVariant{VariantA, VariantB, VariantC, VariantD} {
		s, err := New(plans[v].SchedulerConfig())
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		admit(s)
		total := 0
		for k := 0; k < 2*plans[v].Segments; k++ {
			total += s.AdvanceSlot().Load
		}
		if total != plans[v].Segments {
			t.Fatalf("%v: isolated request transmitted %d units, want %d", v, total, plans[v].Segments)
		}
	}
}

func TestPlanVBRErrors(t *testing.T) {
	tr, err := trace.SyntheticMatrix(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PlanVBR(nil, 60); err == nil {
		t.Fatal("nil trace should error")
	}
	if _, err := PlanVBR(tr, 0); err == nil {
		t.Fatal("zero wait should error")
	}
}

func TestVBRVariantString(t *testing.T) {
	tests := []struct {
		v    VBRVariant
		want string
	}{
		{v: VariantA, want: "DHB-a"},
		{v: VariantB, want: "DHB-b"},
		{v: VariantC, want: "DHB-c"},
		{v: VariantD, want: "DHB-d"},
		{v: VBRVariant(9), want: "VBRVariant(9)"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.v), got, tt.want)
		}
	}
}

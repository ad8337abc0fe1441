package obs

import (
	"encoding/json"
	"math"
	"testing"
	"time"
)

// manualClock is a hand-advanced clock for deterministic For/Stale timers.
type manualClock struct{ now time.Time }

func newManualClock() *manualClock {
	return &manualClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}
func (c *manualClock) Now() time.Time          { return c.now }
func (c *manualClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

func stateOf(t *testing.T, e *AlertEngine, name string) AlertStatus {
	t.Helper()
	for _, s := range e.Snapshot() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("rule %q not in snapshot", name)
	return AlertStatus{}
}

func TestAlertThresholdLifecycle(t *testing.T) {
	clk := newManualClock()
	e := NewAlertEngine()
	e.SetClock(clk.Now)
	level := 0.0
	err := e.Add(AlertRule{
		Name: "miss_rate_high", Severity: "critical",
		Value:     func() float64 { return level },
		Threshold: 0.5, For: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	e.Eval()
	if got := stateOf(t, e, "miss_rate_high"); got.State != StateInactive {
		t.Fatalf("quiet rule state = %s, want inactive", got.State)
	}

	// Condition starts holding: pending until For elapses, then firing.
	level = 0.9
	e.Eval()
	if got := stateOf(t, e, "miss_rate_high"); got.State != StatePending {
		t.Fatalf("fresh breach state = %s, want pending", got.State)
	}
	clk.Advance(5 * time.Second)
	e.Eval()
	if got := stateOf(t, e, "miss_rate_high"); got.State != StatePending {
		t.Fatalf("breach at 5s state = %s, want pending", got.State)
	}
	clk.Advance(5 * time.Second)
	e.Eval()
	got := stateOf(t, e, "miss_rate_high")
	if got.State != StateFiring || got.Fired != 1 {
		t.Fatalf("breach at 10s = %s fired=%d, want firing fired=1", got.State, got.Fired)
	}
	if e.Firing() != 1 {
		t.Fatalf("Firing() = %d, want 1", e.Firing())
	}

	// Recovery: firing → resolved, and the marker stays until the next breach.
	level = 0.1
	clk.Advance(time.Second)
	e.Eval()
	if got := stateOf(t, e, "miss_rate_high"); got.State != StateResolved {
		t.Fatalf("recovered state = %s, want resolved", got.State)
	}
	if e.Firing() != 0 {
		t.Fatalf("Firing() after recovery = %d, want 0", e.Firing())
	}
	clk.Advance(time.Hour)
	e.Eval()
	if got := stateOf(t, e, "miss_rate_high"); got.State != StateResolved {
		t.Fatalf("state an hour after recovery = %s, want resolved", got.State)
	}
	// A second breach walks the whole cycle again from the resolved marker.
	level = 0.9
	e.Eval()
	if got := stateOf(t, e, "miss_rate_high"); got.State != StatePending {
		t.Fatalf("re-breach state = %s, want pending", got.State)
	}
	clk.Advance(10 * time.Second)
	e.Eval()
	if got := stateOf(t, e, "miss_rate_high"); got.State != StateFiring || got.Fired != 2 {
		t.Fatalf("second cycle = %s fired=%d, want firing fired=2", got.State, got.Fired)
	}
}

func TestAlertPendingResetsOnRecovery(t *testing.T) {
	clk := newManualClock()
	e := NewAlertEngine()
	e.SetClock(clk.Now)
	level := 1.0
	if err := e.Add(AlertRule{
		Name: "flappy", Value: func() float64 { return level },
		Threshold: 0.5, For: 10 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	e.Eval() // pending
	clk.Advance(9 * time.Second)
	level = 0.0
	e.Eval() // condition gone before For elapsed
	if got := stateOf(t, e, "flappy"); got.State != StateInactive {
		t.Fatalf("state = %s, want inactive", got.State)
	}
	// A fresh breach must wait the full For again.
	level = 1.0
	e.Eval()
	clk.Advance(9 * time.Second)
	e.Eval()
	if got := stateOf(t, e, "flappy"); got.State != StatePending {
		t.Fatalf("state = %s, want pending (For timer restarted)", got.State)
	}
}

func TestAlertForZeroFiresImmediately(t *testing.T) {
	e := NewAlertEngine()
	if err := e.Add(AlertRule{
		Name: "instant", Value: func() float64 { return 2 }, Threshold: 1,
	}); err != nil {
		t.Fatal(err)
	}
	e.Eval()
	if got := stateOf(t, e, "instant"); got.State != StateFiring {
		t.Fatalf("For=0 breach state = %s, want firing", got.State)
	}
}

func TestAlertNaNNeverFires(t *testing.T) {
	e := NewAlertEngine()
	level := math.NaN()
	if err := e.Add(AlertRule{
		Name: "miss_rate_high", Threshold: -1,
		Value: func() float64 { return level },
	}); err != nil {
		t.Fatal(err)
	}
	e.Eval()
	got := stateOf(t, e, "miss_rate_high")
	if got.State != StateInactive {
		t.Fatalf("NaN state = %s, want inactive (no data never fires)", got.State)
	}
	// The no-data level must stay JSON-encodable: /statusz serves Snapshot
	// verbatim and encoding/json refuses NaN.
	if got.Value != 0 || got.Op != ">" {
		t.Fatalf("no-data snapshot value = %v op=%q, want 0 op=\">\"", got.Value, got.Op)
	}
	if _, err := json.Marshal(e.Snapshot()); err != nil {
		t.Fatalf("no-data snapshot not JSON-encodable: %v", err)
	}
	level = 0
	e.Eval()
	if got := stateOf(t, e, "miss_rate_high"); got.State != StateFiring {
		t.Fatalf("above-threshold state = %s, want firing", got.State)
	}
}

func TestStalenessRule(t *testing.T) {
	clk := newManualClock()
	e := NewAlertEngine()
	e.SetClock(clk.Now)
	reports := 0.0
	if err := e.Add(StalenessRule("reports_stale",
		func() float64 { return reports }, 30*time.Second)); err != nil {
		t.Fatal(err)
	}
	e.Eval() // first sight arms the timer
	clk.Advance(29 * time.Second)
	e.Eval()
	if got := stateOf(t, e, "reports_stale"); got.State != StateInactive {
		t.Fatalf("state before stale = %s, want inactive", got.State)
	}
	clk.Advance(time.Second)
	e.Eval()
	got := stateOf(t, e, "reports_stale")
	if got.State != StateFiring || got.Op != "stale" {
		t.Fatalf("stale state = %s op=%q, want firing op=stale", got.State, got.Op)
	}
	// The snapshot surfaces the stale window (seconds) as the threshold.
	if got.Threshold != 30 {
		t.Fatalf("stale threshold = %v, want 30", got.Threshold)
	}
	// The value moving again resolves it.
	reports = 1
	clk.Advance(time.Second)
	e.Eval()
	if got := stateOf(t, e, "reports_stale"); got.State != StateResolved {
		t.Fatalf("state after movement = %s, want resolved", got.State)
	}
}

func TestBurnRateAndWindowMeanRules(t *testing.T) {
	w := NewWindow(8)
	if err := w.SetSLO(1.0, 0.9); err != nil {
		t.Fatal(err)
	}
	e := NewAlertEngine()
	if err := e.Add(BurnRateRule("slo_burn", w, 2.0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := e.Add(WindowMeanRule("mean_high", w, 1.5, 0)); err != nil {
		t.Fatal(err)
	}
	// Empty window: mean rule reads NaN and stays quiet.
	e.Eval()
	if got := stateOf(t, e, "mean_high"); got.State != StateInactive {
		t.Fatalf("empty-window mean state = %s, want inactive", got.State)
	}
	// All-bad observations: burn = 1.0/0.1 = 10x budget, mean = 3.
	for i := 0; i < 8; i++ {
		w.Observe(3)
	}
	e.Eval()
	if got := stateOf(t, e, "slo_burn"); got.State != StateFiring {
		t.Fatalf("burn state = %s, want firing", got.State)
	}
	if got := stateOf(t, e, "mean_high"); got.State != StateFiring {
		t.Fatalf("mean state = %s, want firing", got.State)
	}
	// Good samples roll the window; the mean recovers (the lifetime burn
	// rate cannot, which is exactly why miss-rate alerts use the mean).
	for i := 0; i < 8; i++ {
		w.Observe(0.1)
	}
	e.Eval()
	if got := stateOf(t, e, "mean_high"); got.State != StateResolved {
		t.Fatalf("mean state after recovery = %s, want resolved", got.State)
	}
}

func TestAlertEngineValidation(t *testing.T) {
	e := NewAlertEngine()
	if err := e.Add(AlertRule{Name: "bad name!", Value: func() float64 { return 0 }}); err == nil {
		t.Fatal("invalid rule name accepted")
	}
	if err := e.Add(AlertRule{Name: "no_value"}); err == nil {
		t.Fatal("rule without value source accepted")
	}
	ok := AlertRule{Name: "dup", Value: func() float64 { return 0 }}
	if err := e.Add(ok); err != nil {
		t.Fatal(err)
	}
	if err := e.Add(ok); err == nil {
		t.Fatal("duplicate rule name accepted")
	}
}

// TestAlertOnTransition pins the state-change hook: every transition of an
// evaluation is delivered with the right endpoints and driving value, quiet
// evaluations deliver nothing, and the hook may re-enter the engine (the
// flight recorder snapshots alert state from inside it) without deadlocking.
func TestAlertOnTransition(t *testing.T) {
	clk := newManualClock()
	e := NewAlertEngine()
	e.SetClock(clk.Now)
	level := 0.0
	if err := e.Add(AlertRule{
		Name: "miss_rate_high", Severity: "critical",
		Value:     func() float64 { return level },
		Threshold: 0.5, For: 2 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}

	var got []AlertTransition
	e.SetOnTransition(func(tr AlertTransition) {
		// Re-entering the engine from the hook must not deadlock.
		_ = e.Snapshot()
		got = append(got, tr)
	})

	e.Eval() // quiet: no transition
	if len(got) != 0 {
		t.Fatalf("quiet eval delivered %+v", got)
	}

	level = 0.9
	e.Eval() // inactive → pending
	clk.Advance(2 * time.Second)
	e.Eval() // pending → firing
	level = 0.1
	clk.Advance(time.Second)
	e.Eval() // firing → resolved

	want := []AlertTransition{
		{Rule: "miss_rate_high", Severity: "critical", From: StateInactive, To: StatePending, Value: 0.9},
		{Rule: "miss_rate_high", Severity: "critical", From: StatePending, To: StateFiring, Value: 0.9},
		{Rule: "miss_rate_high", Severity: "critical", From: StateFiring, To: StateResolved, Value: 0.1},
	}
	if len(got) != len(want) {
		t.Fatalf("transitions = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transition[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}

	// A For==0 rule crosses inactive → firing in one evaluation and must
	// still report the real endpoints.
	if err := e.Add(AlertRule{
		Name: "instant", Value: func() float64 { return 1 }, Threshold: 0.5,
	}); err != nil {
		t.Fatal(err)
	}
	got = nil
	e.Eval()
	found := false
	for _, tr := range got {
		if tr.Rule == "instant" {
			found = true
			if tr.From != StateInactive || tr.To != StateFiring {
				t.Fatalf("For==0 transition = %+v, want inactive→firing", tr)
			}
		}
	}
	if !found {
		t.Fatalf("For==0 rule delivered no transition: %+v", got)
	}

	// Removing the hook stops delivery.
	e.SetOnTransition(nil)
	got = nil
	level = 0.9
	clk.Advance(time.Second)
	e.Eval()
	if len(got) != 0 {
		t.Fatalf("removed hook still delivered %+v", got)
	}
}

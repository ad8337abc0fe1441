package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// This file implements the rule-based alert engine: the layer that turns the
// QoE windows and counters the rest of the package accumulates into an
// operator signal. Metrics answer "what is the value"; an alert rule answers
// "is this value a problem yet" — with hysteresis (a rule must hold for a
// configured duration before it fires) so a single slow segment does not
// page anyone, and an explicit resolved state so dashboards show recovery
// instead of silently dropping the row.
//
// Rules are declarative: a name, a value source, a threshold the value must
// exceed (or a staleness window), and timing.
// The engine is passive: every Eval call (the server's telemetry loop makes
// one per period; tests make them after advancing an injected clock) walks
// each rule through the Prometheus-style state machine
//
//	inactive → pending → firing → resolved → (pending | inactive)

// AlertState names a rule's position in the alert lifecycle.
type AlertState string

const (
	// StateInactive: the condition does not hold.
	StateInactive AlertState = "inactive"
	// StatePending: the condition holds but not yet for the rule's For
	// duration.
	StatePending AlertState = "pending"
	// StateFiring: the condition has held for at least For.
	StateFiring AlertState = "firing"
	// StateResolved: the condition stopped holding while the rule was
	// firing; kept visible until the condition holds again.
	StateResolved AlertState = "resolved"
)

// AlertRule declares one condition the engine watches.
type AlertRule struct {
	// Name identifies the rule; it follows metric-name syntax so the same
	// lint that guards the registry guards the alert table.
	Name string
	// Severity and Help are operator-facing annotations ("warning",
	// "critical"; one line of what to do about it).
	Severity string
	Help     string
	// Value reads the current level of the watched signal. It is called
	// once per evaluation; NaN means "no data" and never satisfies the
	// condition.
	Value func() float64
	// Threshold is the level Value() must exceed for the condition to
	// hold. Ignored for staleness rules.
	Threshold float64
	// For is how long the condition must hold continuously before the rule
	// transitions pending → firing. Zero fires on the first evaluation the
	// condition holds.
	For time.Duration
	// Stale, when positive, turns the rule into a staleness watch: the
	// condition is "Value() has not changed for at least Stale". Threshold
	// is ignored.
	Stale time.Duration
}

// AlertStatus is one rule's externally visible state, as served in /statusz
// alerts.
type AlertStatus struct {
	Name     string     `json:"name"`
	Severity string     `json:"severity,omitempty"`
	Help     string     `json:"help,omitempty"`
	State    AlertState `json:"state"`
	// Value is the level observed at the last evaluation; Threshold and Op
	// restate the rule so the dashboard needs no second lookup. Op is ">"
	// for threshold rules and "stale" for staleness rules.
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Op        string  `json:"op"`
	// Since is the trace-clock time (seconds) the rule entered its current
	// state; Fired counts lifetime pending→firing transitions.
	Since float64 `json:"since"`
	Fired uint64  `json:"fired_total"`
}

// alertRuleState is a rule plus its evaluation history.
type alertRuleState struct {
	rule  AlertRule
	state AlertState
	// enteredAt is when the rule entered its current state; condSince is
	// when the condition last became true (drives the For timer).
	enteredAt time.Time
	condSince time.Time
	// lastValue/lastChange drive staleness rules.
	lastValue  float64
	lastChange time.Time
	haveValue  bool
	value      float64
	fired      uint64
}

// AlertEngine evaluates a set of rules (AlertRule) against an injectable clock. All
// methods are safe for concurrent use.
type AlertEngine struct {
	mu      sync.Mutex
	rules   []*alertRuleState
	clock   func() time.Time
	started time.Time
	// onTransition, when set, observes every state change an evaluation
	// produced. It is invoked AFTER the engine lock is released so the hook
	// may call back into the engine (Snapshot) or into subsystems whose
	// scrape paths read alert state — the flight recorder does both.
	onTransition func(AlertTransition)
}

// AlertTransition describes one rule state change, as delivered to the
// OnTransition hook: which rule moved, from where to where, and the value
// that drove the evaluation.
type AlertTransition struct {
	Rule     string
	Severity string
	From, To AlertState
	Value    float64
}

// NewAlertEngine returns an empty engine on the wall clock.
func NewAlertEngine() *AlertEngine {
	return &AlertEngine{clock: time.Now, started: time.Now()}
}

// SetClock replaces the engine's clock (tests install a manual clock so For
// and Stale timers are deterministic).
func (e *AlertEngine) SetClock(fn func() time.Time) {
	if fn == nil {
		return
	}
	e.mu.Lock()
	e.clock = fn
	e.started = fn()
	e.mu.Unlock()
}

// Add registers a rule. Rule names are unique and follow metric-name syntax;
// a rule must have a Value source.
func (e *AlertEngine) Add(r AlertRule) error {
	if !ValidMetricName(r.Name) {
		return fmt.Errorf("obs: invalid alert rule name %q", r.Name)
	}
	if r.Value == nil {
		return fmt.Errorf("obs: alert rule %q has no value source", r.Name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, s := range e.rules {
		if s.rule.Name == r.Name {
			return fmt.Errorf("obs: alert rule %q already registered", r.Name)
		}
	}
	now := e.clock()
	e.rules = append(e.rules, &alertRuleState{
		rule: r, state: StateInactive, enteredAt: now, lastChange: now,
	})
	sort.Slice(e.rules, func(i, j int) bool {
		return e.rules[i].rule.Name < e.rules[j].rule.Name
	})
	return nil
}

// SetOnTransition installs (or, with nil, removes) the state-change hook.
// The hook runs on whichever goroutine called Eval — the server's telemetry
// loop in production — after the engine lock is released, so it may freely
// read the engine and anything that reads the engine.
func (e *AlertEngine) SetOnTransition(fn func(AlertTransition)) {
	e.mu.Lock()
	e.onTransition = fn
	e.mu.Unlock()
}

// Eval runs one evaluation pass over every rule. The server's telemetry loop
// calls it; tests call it directly after advancing their clock.
func (e *AlertEngine) Eval() {
	e.mu.Lock()
	now := e.clock()
	// Hoisted so the hookless path (no flight dir) pays one register test per
	// rule instead of re-loading the field through the engine pointer.
	hook := e.onTransition
	var transitions []AlertTransition
	for _, s := range e.rules {
		v := s.rule.Value()
		s.value = v
		cond := false
		if s.rule.Stale > 0 {
			// Staleness watch: any change (or first sight) of the value
			// resets the timer; NaN reads keep the previous value's clock.
			if !math.IsNaN(v) && (!s.haveValue || v != s.lastValue) {
				s.lastValue = v
				s.lastChange = now
				s.haveValue = true
			}
			cond = s.haveValue && now.Sub(s.lastChange) >= s.rule.Stale
		} else {
			cond = v > s.rule.Threshold // false for a NaN read
		}
		before := s.state
		s.step(cond, now)
		if hook != nil && s.state != before {
			transitions = append(transitions, AlertTransition{
				Rule: s.rule.Name, Severity: s.rule.Severity,
				From: before, To: s.state, Value: v,
			})
		}
	}
	e.mu.Unlock()
	for _, tr := range transitions {
		hook(tr)
	}
}

// step advances one rule's state machine given this evaluation's condition.
func (s *alertRuleState) step(cond bool, now time.Time) {
	enter := func(st AlertState) {
		s.state = st
		s.enteredAt = now
	}
	switch s.state {
	case StateInactive, StateResolved:
		if cond {
			s.condSince = now
			enter(StatePending)
			if now.Sub(s.condSince) >= s.rule.For {
				s.fired++
				enter(StateFiring)
			}
		}
	case StatePending:
		if !cond {
			enter(StateInactive)
		} else if now.Sub(s.condSince) >= s.rule.For {
			s.fired++
			enter(StateFiring)
		}
	case StateFiring:
		if !cond {
			enter(StateResolved)
		}
	}
}

// Snapshot returns every rule's current status, sorted by name. Since is
// reported on the engine's trace clock: seconds from the engine's start to
// the state transition, so snapshots are deterministic under SetClock.
func (e *AlertEngine) Snapshot() []AlertStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]AlertStatus, 0, len(e.rules))
	for _, s := range e.rules {
		op := ">"
		threshold := s.rule.Threshold
		if s.rule.Stale > 0 {
			// Staleness rules compare against time, not level: surface the
			// stale window (seconds) where the threshold would render.
			op = "stale"
			threshold = s.rule.Stale.Seconds()
		}
		value := s.value
		if math.IsNaN(value) {
			// NaN is the engine's "no data" sentinel; JSON has no NaN, so
			// the no-data level renders as zero (the state already says
			// inactive).
			value = 0
		}
		out = append(out, AlertStatus{
			Name: s.rule.Name, Severity: s.rule.Severity, Help: s.rule.Help,
			State: s.state, Value: value,
			Threshold: threshold, Op: op,
			Since: s.enteredAt.Sub(e.started).Seconds(),
			Fired: s.fired,
		})
	}
	return out
}

// Firing reports how many rules are currently firing.
func (e *AlertEngine) Firing() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, s := range e.rules {
		if s.state == StateFiring {
			n++
		}
	}
	return n
}

// BurnRateRule watches a Window's SLO burn rate: it fires when the error
// budget burns faster than maxBurn for forDur.
func BurnRateRule(name string, w *Window, maxBurn float64, forDur time.Duration) AlertRule {
	return AlertRule{
		Name:      name,
		Severity:  "critical",
		Help:      fmt.Sprintf("SLO error budget burning faster than %gx", maxBurn),
		Value:     func() float64 { return w.Snapshot().BurnRate },
		Threshold: maxBurn, For: forDur,
	}
}

// WindowMeanRule watches the rolling mean of a Window — the right shape for
// signals that must be able to recover (a lifetime counter can never come
// back down, the windowed mean rolls bad samples out). It fires when the mean
// exceeds threshold for forDur.
func WindowMeanRule(name string, w *Window, threshold float64, forDur time.Duration) AlertRule {
	return AlertRule{
		Name:     name,
		Severity: "warning",
		Help:     fmt.Sprintf("windowed mean > %g", threshold),
		Value: func() float64 {
			snap := w.Snapshot()
			if snap.Count == 0 {
				return math.NaN()
			}
			return snap.Mean
		},
		Threshold: threshold, For: forDur,
	}
}

// StalenessRule fires when value stops changing for stale — the liveness
// check for feeds that should always move (e.g. the client report counter
// while sessions are supposed to be running).
func StalenessRule(name string, value func() float64, stale time.Duration) AlertRule {
	return AlertRule{
		Name:     name,
		Severity: "warning",
		Help:     fmt.Sprintf("signal unchanged for %v", stale),
		Value:    value,
		Stale:    stale,
	}
}

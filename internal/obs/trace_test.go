package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestTracerJSONLRoundTrip writes events through a sink and decodes every
// line back.
func TestTracerJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, 8)
	now := 0.0
	tr.SetClock(func() float64 { return now })
	tr.emit(Event{Type: EventAdmit, Slot: 3, From: 1, Placed: 2})
	now = 1.5
	tr.emit(Event{Type: EventInstanceStart, Slot: 4, Segment: 1, Load: 1})
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 JSONL lines, got %d", len(lines))
	}
	var evs []Event
	for _, line := range lines {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		evs = append(evs, ev)
	}
	if evs[0].Type != EventAdmit || evs[0].T != 0 || evs[0].Placed != 2 {
		t.Fatalf("bad first event %+v", evs[0])
	}
	if evs[1].Type != EventInstanceStart || evs[1].T != 1.5 || evs[1].Segment != 1 {
		t.Fatalf("bad second event %+v", evs[1])
	}
	// Zero-valued optional fields must be omitted, keeping traces diffable.
	if strings.Contains(lines[0], "segment") || strings.Contains(lines[0], "video") {
		t.Fatalf("zero fields not omitted: %s", lines[0])
	}
}

// TestTracerRing checks eviction order and Recent windows.
func TestTracerRing(t *testing.T) {
	tr := NewTracer(nil, 4)
	for i := 1; i <= 7; i++ {
		tr.emit(Event{Type: EventSlotRetire, Slot: i})
	}
	if got := tr.Total(); got != 7 {
		t.Fatalf("total = %d, want 7", got)
	}
	slots := func(evs []Event) []int {
		out := make([]int, len(evs))
		for i, ev := range evs {
			out[i] = ev.Slot
		}
		return out
	}
	all := tr.Recent(0)
	if got, want := slots(all), []int{4, 5, 6, 7}; !equalInts(got, want) {
		t.Fatalf("Recent(0) = %v, want %v", got, want)
	}
	last2 := tr.Recent(2)
	if got, want := slots(last2), []int{6, 7}; !equalInts(got, want) {
		t.Fatalf("Recent(2) = %v, want %v", got, want)
	}
	if got := tr.Recent(100); len(got) != 4 {
		t.Fatalf("Recent(100) returned %d events", len(got))
	}
}

// TestSchedObserverTaxonomy checks the event stream one admission produces.
func TestSchedObserverTaxonomy(t *testing.T) {
	tr := NewTracer(nil, 16)
	o := SchedObserver{Video: 7, T: tr}
	o.ObserveAdmit(5, 3, 1)                    // resume from segment 3
	o.ObserveDecision(5, 3, 6, 6, 6, 2, true)  // shared
	o.ObserveDecision(5, 4, 8, 6, 8, 1, false) // new instance
	o.ObserveRetire(6, 2, []int{3, 4})

	want := []string{EventResume, EventSlotDecision, EventSlotDecision,
		EventInstanceStart, EventInstanceStop, EventInstanceStop, EventSlotRetire}
	evs := tr.Recent(0)
	if len(evs) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(evs), len(want), evs)
	}
	for i, typ := range want {
		if evs[i].Type != typ {
			t.Fatalf("event %d type %q, want %q", i, evs[i].Type, typ)
		}
		if evs[i].Video != 7 {
			t.Fatalf("event %d missing video stamp: %+v", i, evs[i])
		}
	}
	if !evs[1].Shared || evs[2].Shared {
		t.Fatalf("shared flags wrong: %+v %+v", evs[1], evs[2])
	}
	if evs[3].Slot != 8 || evs[3].Segment != 4 {
		t.Fatalf("instance_start misplaced: %+v", evs[3])
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

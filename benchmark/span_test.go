package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// mk builds a span by hand; ids are positions in the slice, 1-based.
func mk(id, parent int32, name string, start, end, ops int64) span {
	return span{ID: id, Parent: parent, Trace: 1, Name: name, Start: start, End: end, Ops: ops}
}

func TestSelfTimes(t *testing.T) {
	cases := []struct {
		name  string
		spans []span
		want  map[string]int64 // self ns by span name
	}{
		{"leaf", []span{mk(1, 0, "root", 0, 100, 0)}, map[string]int64{"root": 100}},
		{"nested", []span{
			mk(1, 0, "root", 0, 100, 0),
			mk(2, 1, "mid", 10, 90, 0),
			mk(3, 2, "leaf", 20, 50, 0),
		}, map[string]int64{"root": 20, "mid": 50, "leaf": 30}},
		{"adjacent children", []span{
			mk(1, 0, "root", 0, 100, 0),
			mk(2, 1, "a", 10, 40, 0),
			mk(3, 1, "b", 40, 70, 0),
		}, map[string]int64{"root": 40, "a": 30, "b": 30}},
		{"overlapping children count once", []span{
			mk(1, 0, "root", 0, 100, 0),
			mk(2, 1, "a", 10, 60, 0),
			mk(3, 1, "b", 40, 80, 0),
			mk(4, 1, "c", 50, 55, 0), // inside both
		}, map[string]int64{"root": 30, "a": 50, "b": 40, "c": 5}},
		{"children clipped to the parent", []span{
			mk(1, 0, "root", 50, 100, 0),
			mk(2, 1, "early", 0, 60, 0),
			mk(3, 1, "late", 90, 150, 0),
			mk(4, 1, "outside", 200, 300, 0),
		}, map[string]int64{"root": 30, "early": 60, "late": 60, "outside": 100}},
		{"children recorded out of order", []span{
			mk(1, 0, "root", 0, 100, 0),
			mk(2, 1, "b", 60, 80, 0),
			mk(3, 1, "a", 10, 30, 0),
		}, map[string]int64{"root": 60, "a": 20, "b": 20}},
		{"same name under two parents", []span{
			mk(1, 0, "tick", 0, 100, 0),
			mk(2, 1, "push", 10, 30, 3),
			mk(3, 0, "tick", 100, 200, 0),
			mk(4, 3, "push", 110, 150, 5),
		}, map[string]int64{"tick": 140, "push": 60}},
	}
	for _, c := range cases {
		got := selfTimes(c.spans)
		if len(got) != len(c.want) {
			t.Errorf("%s: %d names, want %d", c.name, len(got), len(c.want))
		}
		for name, want := range c.want {
			if got[name].SelfNs != want {
				t.Errorf("%s: self(%s) = %d ns, want %d", c.name, name, got[name].SelfNs, want)
			}
		}
	}
}

// A span around an ns-scale loop carries the loop's operation count; the
// per-operation figure divides the self time by it.
func TestOpCountSpans(t *testing.T) {
	totals := selfTimes([]span{
		mk(1, 0, "tick", 0, 1000, 0),
		mk(2, 1, "push", 100, 400, 30),
		mk(3, 1, "push", 500, 700, 20),
	})
	push := totals["push"]
	if push.Count != 2 || push.Ops != 50 || push.SelfNs != 500 {
		t.Fatalf("push totals = %+v", push)
	}
	if got := push.perOp(); got != 10 {
		t.Errorf("push ns per op = %v, want 10", got)
	}
	if got := push.perSpan(); got != 250 {
		t.Errorf("push ns per span = %v, want 250", got)
	}
	if idle := (layerTotal{SelfNs: 5}); idle.perOp() != 0 || idle.perSpan() != 0 {
		t.Errorf("a total that counted nothing reads %v per op, %v per span", idle.perOp(), idle.perSpan())
	}
}

func TestRecorder(t *testing.T) {
	var off *recorder
	if id := off.begin("x", 0, 1); id != 0 {
		t.Errorf("a nil recorder handed out span %d", id)
	}
	off.end(0, 1, 1)

	rec := newRecorder()
	if id := rec.begin("x", 0, 1); id != 0 || len(rec.spans) != 0 {
		t.Errorf("a recorder that is off recorded span %d", id)
	}
	rec.On = true
	root := rec.begin("root", 0, 7)
	child := rec.begin("child", root, 7)
	rec.end(child, 3, 64)
	rec.end(root, 0, 0)
	rec.On = false
	rec.end(rec.begin("ignored", root, 7), 0, 0)
	if len(rec.spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(rec.spans))
	}
	r, c := rec.spans[0], rec.spans[1]
	if c.Parent != r.ID || c.Trace != 7 || c.Ops != 3 || c.Bytes != 64 {
		t.Errorf("child span = %+v under root %+v", c, r)
	}
	if !(r.Start <= c.Start && c.Start <= c.End && c.End <= r.End) {
		t.Errorf("child [%d, %d] is not inside root [%d, %d]", c.Start, c.End, r.Start, r.End)
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpansJSONL(path, rec.spans); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for i := 0; sc.Scan(); i++ {
		var line struct {
			ID, Parent int32
			Trace      int64
			Name       string
			Start      int64 `json:"start_ns"`
			End        int64 `json:"end_ns"`
			Ops, Bytes int64
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		want := rec.spans[i]
		if got := (span{line.ID, line.Parent, line.Trace, line.Name, line.Start, line.End, line.Ops, line.Bytes}); got != want {
			t.Errorf("line %d = %+v, want %+v", i, got, want)
		}
	}
}

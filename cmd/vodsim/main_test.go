package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vodcast/internal/obs"
	"vodcast/internal/report"
)

var update = flag.Bool("update", false, "re-record testdata/<id>.golden from the current code")

// TestEveryExperimentRuns drives the CLI entry point through every
// experiment id in both output formats at quick scale, and requires both
// outputs, text then JSON, to equal testdata/<id>.golden byte for byte: a
// change that moves any experiment's numbers fails here, by name, until
// the goldens are re-recorded with -update.
func TestEveryExperimentRuns(t *testing.T) {
	ids := []string{
		"fig7", "fig8", "fig9", "ablation", "peaks", "vbrplan",
		"clientcap", "reactive", "dsb", "models", "wait", "capacity", "storage", "buffer",
	}
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(&buf, id, false /* full */, false /* json */, false /* chart */, 1, "", 100); err != nil {
				t.Fatalf("text: %v", err)
			}
			if buf.Len() == 0 {
				t.Fatal("no text output")
			}
			text := buf.Len()
			if err := run(&buf, id, false, true /* json */, false, 1, "", 100); err != nil {
				t.Fatalf("json: %v", err)
			}
			var tables []report.Table
			if err := json.Unmarshal(buf.Bytes()[text:], &tables); err != nil {
				t.Fatalf("invalid JSON: %v", err)
			}
			if len(tables) == 0 || len(tables[0].Rows) == 0 {
				t.Fatal("empty JSON tables")
			}
			golden := filepath.Join("testdata", id+".golden")
			if *update {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("experiment %s: output differs from %s (re-record with -update):\n%s", id, golden, buf.Bytes())
			}
		})
	}
}

// TestTraceExperiment drives the CLI trace path: the run reports its table
// and the JSONL file decodes line by line with a sane event mix.
func TestTraceExperiment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	var buf bytes.Buffer
	if err := run(&buf, "trace", false, false, false, 3, path, 150); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Traced DHB run") {
		t.Fatalf("missing trace table:\n%s", buf.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	types := make(map[string]int)
	for i, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		types[ev.Type]++
	}
	for _, want := range []string{
		obs.EventAdmit, obs.EventSlotDecision, obs.EventInstanceStart,
		obs.EventInstanceStop, obs.EventSlotRetire,
	} {
		if types[want] == 0 {
			t.Fatalf("trace lacks %q events: %v", want, types)
		}
	}
	if types[obs.EventInstanceStart] != types[obs.EventInstanceStop] {
		t.Fatalf("unbalanced instances: %v", types)
	}

	// Without -trace the experiment must refuse rather than run silently.
	if err := run(&buf, "trace", false, false, false, 3, "", 150); err == nil {
		t.Fatal("trace experiment without -trace accepted")
	}
}

func TestUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "nope", false, false, false, 1, "", 100); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFig7TextShape(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "fig7", false, false, false, 1, "", 100); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 7", "tapping", "DHB", "NPB"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	var a, b bytes.Buffer
	if err := run(&a, "fig7", false, false, false, 7, "", 100); err != nil {
		t.Fatal(err)
	}
	if err := run(&b, "fig7", false, false, false, 7, "", 100); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("same seed produced different output")
	}
}

func TestChartOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "fig7", false, false, true /* chart */, 1, "", 100); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 7 —", "x (log)", "tapping", "NPB"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chart output missing %q", want)
		}
	}
	// No chart defined for vbrplan: the flag must error rather than lie.
	if err := run(&buf, "vbrplan", false, false, true, 1, "", 100); err == nil {
		t.Fatal("chart for vbrplan accepted")
	}
}

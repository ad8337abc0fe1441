package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the binary must name the same workloads and metrics,
// with the same units, and every name must be one the contract accepts.
func TestNamesMatchBenchmarkFile(t *testing.T) {
	bench, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	var fileWorkloads, ownWorkloads []string
	for _, w := range bench.Workloads {
		fileWorkloads = append(fileWorkloads, w.Name)
	}
	for _, w := range workloads {
		ownWorkloads = append(ownWorkloads, w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}
	if !slices.Equal(fileWorkloads, ownWorkloads) {
		t.Errorf("BENCHMARK.json workloads %v, binary runs %v", fileWorkloads, ownWorkloads)
	}
	seen := map[string]bool{}
	compare := func(kind string, file []benchmarkMetric, own []metricDef) {
		if len(file) != len(own) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the binary prints %d", kind, len(file), len(own))
		}
		for i := 0; i < min(len(file), len(own)); i++ {
			if file[i].Name != own[i].Name || file[i].Unit != own[i].Unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the binary prints %s [%s]",
					kind, i, file[i].Name, file[i].Unit, own[i].Name, own[i].Unit)
			}
		}
		for _, m := range own {
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s metric %q [%s]: bad or repeated name or unit", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
		}
	}
	compare("end_to_end", bench.EndToEnd, endToEndMetrics)
	compare("per_layer", bench.PerLayer, perLayerMetrics)
	for _, w := range ownWorkloads {
		if !nameRE.MatchString(w) || seen[w] {
			t.Errorf("workload %q: bad or repeated name", w)
		}
		seen[w] = true
	}
	for _, m := range bench.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !slices.ContainsFunc(bench.EndToEnd, func(m benchmarkMetric) bool { return m.Name == "setup_s" && m.Unit == "s" }) {
		t.Error("BENCHMARK.json has no setup_s metric in seconds")
	}
}

// The quick mode is the smoke test of the whole benchmark: every workload,
// live and traced, with a one-second window. It checks that outputs verify
// and that every metric of both kinds is measured — not what they read.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("launches vodserver four times")
	}
	// newEnv turns this process into the driver: one P, one CPU, no
	// periodic collection. Give the other tests their process back.
	procs := runtime.GOMAXPROCS(0)
	cpus, cpuErr := allowedCPUs()
	t.Cleanup(func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(100)
		debug.SetMemoryLimit(math.MaxInt64)
		if cpuErr == nil {
			_ = pinSelf(cpus)
		}
	})
	e, err := newEnv("..", true)
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	e.Log = &log
	defer func() {
		if t.Failed() {
			t.Log(log.String())
		}
	}()
	for _, w := range workloads {
		traceOut := t.TempDir() + "/trace.jsonl"
		res, err := runWorkload(e, w, 42, time.Second, true, traceOut)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.correct() || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: attempted %d failed %d problems %q", w.Name, res.Attempted, res.Failed, res.Problems)
		}
		for _, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
			if _, err := collect(defs, res.Values); err != nil {
				t.Errorf("%s: %v", w.Name, err)
			}
		}
		for _, m := range endToEndMetrics {
			if res.Values[m.Name] <= 0 {
				t.Errorf("%s: %s = %v, want a positive reading", w.Name, m.Name, res.Values[m.Name])
			}
		}
		// The trace file holds one span per line, each naming its parent.
		data, err := os.ReadFile(traceOut)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
		var first struct {
			ID   int32
			Name string
		}
		if err := json.Unmarshal(lines[0], &first); err != nil || first.ID != 1 || first.Name == "" {
			t.Errorf("%s: first span line %q: %v", w.Name, lines[0], err)
		}
		if !strings.Contains(log.String(), "ledger "+w.Name) {
			t.Errorf("%s: no ledger printed", w.Name)
		}
	}
	for _, want := range []string{"schedule=", "pinned=", "host loopback", "sessions_attempted=", "sessions_succeeded=", "sessions_failed=0"} {
		if !strings.Contains(log.String(), want) {
			t.Errorf("run header lacks %q", want)
		}
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// benchmarkFile mirrors the parts of BENCHMARK.json this program reads.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []benchmarkMetric       `json:"end_to_end"`
	PerLayer  []benchmarkMetric       `json:"per_layer"`
}

type benchmarkMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func readBenchmarkFile(root string) (benchmarkFile, error) {
	var b benchmarkFile
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return b, err
	}
	return b, json.Unmarshal(data, &b)
}

// selfCheck measures the same code twice: sets A and B of `runs` runs per
// workload, every run with its own seed, interleaved so that both sets see
// the same drift of the host. For every end-to-end metric it prints each
// set's median and spread (inter-quartile range over median) and fails when
// B's median is worse than A's by more than the metric's bound.
func selfCheck(e *env, selected []workload, seed uint64, window time.Duration, runs int) error {
	bench, err := readBenchmarkFile(e.Root)
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	var problems []string
	for r := 0; r < runs; r++ {
		for _, w := range selected {
			for set := range sets {
				res, err := runWorkload(e, w, seed+uint64(2*r+set), window, false, "")
				if err != nil {
					return err
				}
				if !res.correct() {
					problems = append(problems, fmt.Sprintf("%s seed %d: %v", w.Name, seed+uint64(2*r+set), res.Problems))
				}
				if len(res.Invalid) > 0 {
					fmt.Fprintf(e.Log, "selfcheck: %s seed %d is not a valid run (%v); kept, but look at it\n", w.Name, seed+uint64(2*r+set), res.Invalid)
				}
				for _, m := range bench.EndToEnd {
					k := key{w.Name, m.Name}
					sets[set][k] = append(sets[set][k], res.Values[m.Name])
				}
			}
		}
	}
	fmt.Fprintf(e.Log, "\nselfcheck: %d runs per set, window %v, lower is better everywhere\n", runs, window)
	fmt.Fprintf(e.Log, "%-9s %-26s %12s %8s %12s %8s %8s %6s\n", "workload", "metric", "median A", "iqr A", "median B", "iqr B", "B vs A", "bound")
	for _, w := range selected {
		for _, m := range bench.EndToEnd {
			a, b := sets[0][key{w.Name, m.Name}], sets[1][key{w.Name, m.Name}]
			ma, mb := median(a), median(b)
			spread := func(v []float64, med float64) float64 { q1, q3 := quartiles(v); return div(q3-q1, med) }
			change := div(mb-ma, ma)
			verdict := ""
			if change > m.Bound {
				verdict = "  MOVED"
				problems = append(problems, fmt.Sprintf("%s %s: median %.4g -> %.4g (%+.1f%%, bound %.0f%%)", w.Name, m.Name, ma, mb, change*100, m.Bound*100))
			}
			fmt.Fprintf(e.Log, "%-9s %-26s %12.4f %7.1f%% %12.4f %7.1f%% %+7.1f%% %5.0f%%%s\n",
				w.Name, m.Name, ma, spread(a, ma)*100, mb, spread(b, mb)*100, change*100, m.Bound*100, verdict)
		}
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(e.Log, "selfcheck:", p)
		}
		return fmt.Errorf("selfcheck failed: %d problem(s)", len(problems))
	}
	fmt.Fprintln(e.Log, "selfcheck: passed")
	return nil
}

// Command benchmark is the repository's serving benchmark: for one named
// workload it launches the shipped cmd/vodserver as a child process, drives
// it open-loop from a seeded arrival schedule with a verifying driver, reads
// the server's cost from outside the process, and (with -trace 1) replays
// the same schedule through the layers' public functions with a span around
// every call. README.md in this directory explains the workloads, the
// metrics and how to read the ledger.
//
//	bash benchmark/run.sh --workload churn --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

func main() {
	var (
		name      = flag.String("workload", "all", "workload to run: churn, audience, longtail, resume or all")
		seed      = flag.Uint64("seed", 1, "seed of the arrival schedule")
		seconds   = flag.Int("seconds", 0, "measured window in seconds (0 = 20, or 3 with -quick)")
		trace     = flag.Int("trace", 0, "1 adds the kernel calibration and the traced replay and prints the per-layer metrics instead of the end-to-end ones")
		traceOut  = flag.String("trace-out", "", "span JSONL file of a single workload (default .bench_build/trace-<workload>.jsonl in the checkout)")
		quick     = flag.Bool("quick", false, "smoke run: 0.5 s warm-up, 3 s window, two set-ups instead of fifteen")
		selfcheck = flag.Bool("selfcheck", false, "run every workload -runs times twice over, interleaved, and fail if any end-to-end median moves by more than its bound in BENCHMARK.json")
		runs      = flag.Int("runs", 5, "runs per set with -selfcheck")
		root      = flag.String("root", "..", "the repository checkout")
	)
	flag.Parse()
	if flag.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds < 0 || *runs < 1 ||
		(*traceOut != "" && *name == "all") {
		flag.Usage()
		os.Exit(2)
	}
	e, err := newEnv(*root, *quick)
	if err != nil {
		fatal(err)
	}
	window := time.Duration(*seconds) * time.Second
	if window == 0 {
		window = 20 * time.Second
		if *quick {
			window = 3 * time.Second
		}
	}
	selected := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []workload{w}
	}
	if *selfcheck {
		if err := selfCheck(e, selected, *seed, window, *runs); err != nil {
			fatal(err)
		}
		return
	}

	// The result line: with one workload its metrics under their own names,
	// with several each prefixed by its workload.
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]metricValue)}
	defs := endToEndMetrics
	if *trace == 1 {
		defs = perLayerMetrics
	}
	for _, w := range selected {
		res, err := runWorkload(e, w, *seed, window, *trace == 1, *traceOut)
		if err != nil {
			fatal(err)
		}
		metrics, err := collect(defs, res.Values)
		if err != nil {
			fatal(err)
		}
		for k, m := range metrics {
			if len(selected) > 1 {
				k = w.Name + "/" + k
			}
			out.Metrics[k] = m
		}
		out.Correct = out.Correct && res.correct()
		out.Attempted += res.Attempted
		out.Failed += res.Failed
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// newEnv prepares what every run shares: the driver's own placement and
// memory policy, the output directory and the server binary.
func newEnv(root string, quick bool) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	e := &env{Root: root, OutDir: filepath.Join(root, ".bench_build"), Warmup: 3 * time.Second, SetupReps: 15, Log: os.Stdout}
	if quick {
		e.Warmup, e.SetupReps = 500*time.Millisecond, 2
	}
	if err := os.MkdirAll(e.OutDir, 0o755); err != nil {
		return nil, err
	}
	if e.ServerBin, err = buildServer(root, e.OutDir); err != nil {
		return nil, err
	}

	// The driver is one process on one CPU, away from the server's. Its
	// heap is small and short-lived; collecting it only when it nears the
	// limit keeps collector cycles out of the latency samples.
	e.Placement = planPlacement(allowedCPUs())
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(1 << 30)
	if e.Placement.Pinned {
		if err := pinSelf(e.Placement.DriverCPUs); err != nil {
			e.Placement = placement{ServerProcs: e.Placement.ServerProcs, Note: err.Error()}
		}
	}
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	fmt.Fprintf(e.Log, "benchmark: %s/%s nproc=%d kernel=%s go=%s\n", runtime.GOOS, runtime.GOARCH,
		runtime.NumCPU(), string(kernel[:max(len(kernel)-1, 0)]), runtime.Version())
	return e, nil
}

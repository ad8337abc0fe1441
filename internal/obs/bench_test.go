package obs

import (
	"fmt"
	"io"
	"math"
	"testing"
	"time"
)

// The disabled-path benchmarks of the telemetry history: the text exposition
// (which the telemetry-history layer threads through the ?prefix= filter)
// and the alert evaluation loop (which now collects transitions for the
// OnTransition hook). Both must stay within the repo's <2% off-path budget
// against the pre-history tree.

// benchRegistry populates a registry the size of a fully wired server's:
// labelled counters and gauges plus a few summaries.
func benchRegistry() *Registry {
	reg := NewRegistry()
	for i := 0; i < 16; i++ {
		video := Labels{"video": fmt.Sprint(i + 1)}
		reg.CounterWith("bench_requests_total", "Requests per video.", video).Add(float64(i * 7))
		reg.GaugeWith("bench_channel_load", "Streams per video.", video).Set(float64(i) / 3)
	}
	for i := 0; i < 8; i++ {
		reg.Counter(fmt.Sprintf("bench_plain_%d_total", i), "A plain counter.").Add(float64(i))
	}
	for i := 0; i < 4; i++ {
		h := reg.Window(fmt.Sprintf("bench_latency_%d_seconds", i), "A latency summary.", 0)
		for j := 0; j < 10; j++ {
			h.Observe(float64(j) * 0.013)
		}
	}
	return reg
}

func BenchmarkWritePrometheus(b *testing.B) {
	reg := benchRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := reg.WritePrometheusPrefix(io.Discard, ""); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWindowObserve is the machine-drift control for that A/B:
// obs.Window is untouched by the telemetry-history layer,
// so its ratio across trees isolates machine noise from real overhead.
func BenchmarkWindowObserve(b *testing.B) {
	w := NewWindow(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Observe(float64(i & 1023))
	}
}

func BenchmarkAlertEngineEval(b *testing.B) {
	e := NewAlertEngine()
	for i := 0; i < 4; i++ {
		rule := AlertRule{
			Name:      fmt.Sprintf("bench_rule_%d", i),
			Severity:  "warning",
			Value:     func() float64 { return 0.1 },
			Threshold: 1,
			For:       time.Minute,
		}
		if i == 3 {
			rule.Value = func() float64 { return math.NaN() } // the no-data path
		}
		if err := e.Add(rule); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Eval()
	}
}

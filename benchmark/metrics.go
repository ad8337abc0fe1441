package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json lists the same names
// and units; a test holds the two together.
type metricDef struct{ Name, Unit string }

// End-to-end metrics, printed by an untraced run. Lower is better for all.
// The server's cost is gated as CPU time relative to the driver's, because
// the raw microseconds per session (vodserver.cpu_us_per_session) follow the
// host's cache contention of the minute and spread by 10 to 27 % between
// identical runs. For the same reason the admission round trip is a
// per-layer row, and so is every tail percentile: the host stalls for
// hundreds of milliseconds a few times a minute.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"server_cpu_per_driver_cpu", "ratio"},
	{"first_byte_p50_ms", "ms"},
}

// Per-layer metrics, printed by a traced run. Layer = module name. "replay"
// rows are span self times from the traced replay, "live" rows are read from
// outside the server process during the live window.
var perLayerMetrics = []metricDef{
	// wire (replay)
	{"wire.request_decode_ns", "ns"},
	{"wire.schedinfo_encode_ns", "ns"},
	{"wire.schedinfo_bytes", "B"},
	{"wire.report_decode_ns", "ns"},
	{"wire.segment_decode_ns", "ns"},
	// station, with core and slots beneath it (replay)
	{"station.admit_ns", "ns"},
	{"station.instances_per_request", "count"},
	{"station.advance_ns_per_tick", "ns"},
	{"station.advance_ns_per_video", "ns"},
	// station (live)
	{"station.admit_us_mean", "us"},
	{"station.lock_wait_us_mean", "us"},
	{"station.clock_slip_ratio", "ratio"},
	// fanout (replay)
	{"fanout.encode_ns_per_video_tick", "ns"},
	{"fanout.encode_ns_per_kb", "ns"},
	{"fanout.push_ns_per_sub", "ns"},
	{"fanout.drain_ns_per_batch", "ns"},
	{"fanout.subscribe_ns", "ns"},
	{"fanout.retire_ns", "ns"},
	// fanout (live)
	{"fanout.tick_us_mean", "us"},
	{"fanout.tick_busy_ratio", "ratio"},
	{"fanout.ring_depth_max", "count"},
	{"fanout.dropped_subscribers", "count"},
	// vodserver (live)
	{"vodserver.cpu_us_per_session", "us"},
	{"vodserver.cpu_user_us_per_session", "us"},
	{"vodserver.cpu_sys_us_per_session", "us"},
	{"vodserver.write_syscalls_per_session", "count"},
	{"vodserver.read_syscalls_per_session", "count"},
	{"vodserver.ctx_switches_per_session", "count"},
	{"vodserver.rss_peak_mb", "MB"},
	{"vodserver.heap_alloc_mb", "MB"},
	{"vodserver.gc_cycles_per_s", "1/s"},
	{"vodserver.goroutines_max", "count"},
	{"vodserver.egress_mb_per_s", "MB/s"},
	{"vodserver.first_byte_server_ms_mean", "ms"},
	// vodserver (replay and ledger)
	{"vodserver.schedinfo_build_ns", "ns"},
	{"vodserver.layers_us_per_session", "us"},
	{"vodserver.kernel_us_per_session", "us"},
	{"vodserver.unattributed_us_per_session", "us"},
	// kernel (calibration loops, no repo code)
	{"kernel.write_us", "us"},
	{"kernel.read_us", "us"},
	{"kernel.accept_close_us", "us"},
	// driver (live)
	{"driver.cpu_util", "ratio"},
	{"driver.gen_late_p50_ms", "ms"},
	{"driver.gen_late_p99_ms", "ms"},
	{"driver.inflight_max", "count"},
	{"driver.dial_p50_us", "us"},
	{"driver.admit_rtt_p50_us", "us"},
	{"driver.admit_rtt_p99_us", "us"},
	{"driver.first_byte_p99_ms", "ms"},
	{"driver.slot_gap_p99_ms", "ms"},
	{"driver.run_valid", "count"},
	// replay
	{"replay.trace_overhead_ratio", "ratio"},
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect picks defs out of values; a metric that was not computed is a bug
// in this program, not a measurement.
func collect(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (%v)", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// div is a/b, 0 when nothing was counted.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile returns the p-quantile (0..1) of values by nearest rank; it
// sorts values in place.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sort.Float64s(values)
	i := int(math.Ceil(p*float64(len(values)))) - 1
	return values[min(max(i, 0), len(values)-1)]
}

func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is how
// the acceptance spread is defined.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

package obs

import "runtime/metrics"

// This file is the runtime collector: Go process health registered as
// GaugeFuncs so every scrape carries the control-plane context the pipeline
// latencies need interpreting against (a p99 spike that coincides with a GC
// cycle is a very different problem from one that coincides with a
// queue-depth spike).

// RegisterRuntime registers the Go runtime gauges on r:
//
//	go_goroutines        live goroutines
//	go_heap_alloc_bytes  bytes of allocated heap objects
//	go_gc_cycles_total   completed GC cycles
//
// Each is read at exposition time through runtime/metrics, which does not
// stop the world, so a scrape costs no pause and needs no cache.
func RegisterRuntime(r *Registry) {
	for _, g := range []struct{ name, help, metric string }{
		{"go_goroutines", "Live goroutines.", "/sched/goroutines:goroutines"},
		{"go_heap_alloc_bytes", "Bytes of allocated heap objects.", "/memory/classes/heap/objects:bytes"},
		{"go_gc_cycles_total", "Completed GC cycles.", "/gc/cycles/total:gc-cycles"},
	} {
		r.GaugeFunc(g.name, g.help, func() float64 {
			s := []metrics.Sample{{Name: g.metric}}
			metrics.Read(s)
			return float64(s[0].Value.Uint64())
		})
	}
}

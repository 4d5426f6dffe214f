package metrics

// Process-health gauges: Go runtime counters every deployment wants on
// a dashboard next to the request metrics. runtime.ReadMemStats stops
// the world, but only for microseconds and a scrape is rare, so each
// gauge reads its own snapshot: two scrapes taken back to back see every
// GC cycle that finished between them.

import "runtime"

// memStats returns a fresh runtime.MemStats.
func memStats() *runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &ms
}

// RegisterRuntime registers process-health metrics on r: goroutine
// count, heap bytes, and GC pause/cycle totals.
func RegisterRuntime(r *Registry) {
	r.NewGaugeFunc("expfinder_goroutines",
		"Goroutines currently live in the process.", func() float64 {
			return float64(runtime.NumGoroutine())
		})
	r.NewGaugeFunc("expfinder_heap_alloc_bytes",
		"Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).", func() float64 {
			return float64(memStats().HeapAlloc)
		})
	r.NewGaugeFunc("expfinder_heap_sys_bytes",
		"Bytes of heap memory obtained from the OS (runtime.MemStats.HeapSys).", func() float64 {
			return float64(memStats().HeapSys)
		})
	r.NewCounterFunc("expfinder_gc_pause_seconds_total",
		"Cumulative stop-the-world GC pause time.", func() float64 {
			return float64(memStats().PauseTotalNs) / 1e9
		})
	r.NewCounterFunc("expfinder_gc_cycles_total",
		"Completed GC cycles.", func() float64 {
			return float64(memStats().NumGC)
		})
}

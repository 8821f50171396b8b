package main

import "strings"

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name, Unit, Better string
}

// endToEnd are reported by every workload with --trace 0. What each
// means on each workload is in METRICS.md.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"heap_mb", "MB", "lower"},
	{"ok_frac", "frac", "higher"},
	{"geomean_ms", "ms", "lower"},
	{"objective_ratio", "ratio", "lower"},
}

// backendMetricNames maps portfolio backend names onto metric names
// ("+" marks the finisher pass and is not a legal name character).
var backendMetricNames = []string{"greedy", "dp", "astar", "cp", "mip", "bruteforce",
	"tabu-b", "tabu-f", "lns", "vns", "anneal", "vns+"}

func backendMetric(name string) string {
	return "backend." + strings.Replace(name, "+", "_finisher", 1)
}

// perLayer are reported by every workload with --trace 1; a layer a
// workload does not reach reads 0.
var perLayer = func() []metricSpec {
	specs := []metricSpec{
		{"codec.decode_ms", "ms", "lower"},
		{"codec.canonicalize_ms", "ms", "lower"},
		{"codec.hash_ms", "ms", "lower"},
		{"codec.encode_ms", "ms", "lower"},
		{"model.compile_ms", "ms", "lower"},
		{"model.objective_us", "us", "lower"},
		{"prune.analyze_ms", "ms", "lower"},
		{"prune.edges_added", "count", "higher"},
		{"prune.tail_build_ms", "ms", "lower"},
		{"portfolio.routed_frac", "frac", "higher"},
		{"portfolio.fallback_frac", "frac", "lower"},
		{"portfolio.exact_slice_ms", "ms", "higher"},
		{"portfolio.wasted_slice_frac", "frac", "lower"},
		{"portfolio.proved_frac", "frac", "higher"},
	}
	for _, b := range backendMetricNames {
		m := backendMetric(b)
		specs = append(specs,
			metricSpec{m + ".busy_ms", "ms", "lower"},
			metricSpec{m + ".iterations", "count", "higher"},
			metricSpec{m + ".improvements", "count", "higher"},
			metricSpec{m + ".wins", "count", "higher"})
	}
	return append(specs,
		metricSpec{"service.queue_wait_ms", "ms", "lower"},
		metricSpec{"service.overhead_ms", "ms", "lower"},
		metricSpec{"service.cache_hit_frac", "frac", "higher"},
		metricSpec{"service.warm_start_frac", "frac", "higher"},
		metricSpec{"evolve.repair_ms", "ms", "lower"},
		metricSpec{"evolve.project_ms", "ms", "lower"},
		metricSpec{"evolve.tail_kept_frac", "frac", "higher"},
		metricSpec{"proc.heap_peak_mb", "MB", "lower"},
		metricSpec{"proc.gc_cycles", "count", "lower"},
		metricSpec{"bench.trace_overhead_frac", "frac", "lower"},
	)
}()

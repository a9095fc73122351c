package batch

import "gridseg/internal/metrics"

// Cell-level throughput counters. They are exported because two
// distinct execution paths feed them: Run (the in-process engine, used
// by cmd/sweep and single-node segd) increments them itself, while the
// distributed fabric's worker path computes cells through
// gridseg.ComputeJob without ever entering Run and must report the
// same events. Cache hit rate is cached/(cached+computed).
var (
	// MetricCellsComputed counts cells actually simulated.
	MetricCellsComputed = metrics.Default().NewCounter(
		"gridseg_cells_computed_total",
		"Grid cells computed by simulation (cache misses).")
	// MetricCellsCached counts cells served from the content-addressed
	// store without recomputation.
	MetricCellsCached = metrics.Default().NewCounter(
		"gridseg_cells_cached_total",
		"Grid cells served from the result store.")
)

package server

import "gridseg/internal/metrics"

// Process-wide serving metrics, registered on the default registry the
// /metrics endpoint exports. Package-level because the registry is
// process-global: two Servers in one process (as in tests) share the
// counters, which only ever over-counts activity, never breaks it.
var (
	metricQueueDepth = metrics.Default().NewGauge("segd_queue_depth",
		"Grid runs waiting in the dispatcher queue behind the executing one.")
	metricSSESubscribers = metrics.Default().NewGauge("segd_sse_subscribers",
		"Currently connected /events progress subscribers.")
	metricLiveSubscribers = metrics.Default().NewGauge("segd_live_subscribers",
		"Currently connected /live trajectory-frame subscribers.")
	metricLiveFrames = metrics.Default().NewCounter("segd_live_frames_total",
		"Live trajectory frames published to the fan-out hubs.")
	metricLiveFramesDropped = metrics.Default().NewCounter("segd_live_frames_dropped_total",
		"Live frames evicted from slow subscribers' bounded queues.")
	metricRuns = metrics.Default().NewCounterVec("segd_runs_total",
		"Grid runs finished, by terminal state.", "state")
	metricClusterFillWait = metrics.Default().NewHistogram("gridseg_cluster_fill_wait_seconds",
		"Seconds a cluster run waited for its queued write-behind store fills to land before publishing its outcome.",
		[]float64{0.0001, 0.001, 0.01, 0.05, 0.25, 1, 5})

	metricRunsDone   = metricRuns.WithLabel(StateDone)
	metricRunsFailed = metricRuns.WithLabel(StateFailed)
)

package fabric

import "gridseg/internal/metrics"

// Coordinator-side protocol instruments. These live on the default
// registry, so a segd coordinator's /metrics exposes lease health
// without any wiring; the same numbers (in aggregate form) are served
// as JSON on GET /fabric/status for pollers that want autoscaling
// signals without a Prometheus stack.
var (
	metricLeaseGrants = metrics.Default().NewCounter(
		"fabric_lease_grants_total",
		"Cell leases granted to workers (including expired-lease re-grants).")
	metricLeaseRequeues = metrics.Default().NewCounter(
		"fabric_lease_requeues_total",
		"Cells re-granted after their previous lease expired unrenewed.")
	metricLeaseExpiries = metrics.Default().NewCounter(
		"fabric_lease_expiries_total",
		"Heartbeat renewals rejected because the lease was no longer current.")
	metricCompletions = metrics.Default().NewCounter(
		"fabric_completions_total",
		"Cell completions accepted by the lease table (first completion per cell).")
	metricLeaseSeconds = metrics.Default().NewHistogram(
		"fabric_lease_seconds",
		"Seconds from lease grant to accepted completion.",
		[]float64{0.01, 0.05, 0.25, 1, 5, 30, 120, 600})
	metricLeaseWaitSeconds = metrics.Default().NewHistogram(
		"fabric_lease_wait_seconds",
		"Seconds a lease request was held waiting for work, whether it ended in a grant or empty.",
		[]float64{0.001, 0.01, 0.05, 0.2, 1, 5, 30})
	metricRecoveredCells = metrics.Default().NewCounter(
		"fabric_recovered_cells_total",
		"Cells of runs resumed by coordinator restart recovery that were found in the store instead of recomputed.")
)

// Worker-side resilience instruments. These live process-side: in a
// real cluster they appear on each worker's own /metrics listener, and
// in the in-process chaos tests they share the default registry with
// the coordinator's counters.
var (
	metricWorkerOutages = metrics.Default().NewCounter(
		"fabric_worker_outages_total",
		"Times a worker's lease loop found the coordinator unreachable and entered backoff.")
	metricWorkerReconnects = metrics.Default().NewCounter(
		"fabric_worker_reconnects_total",
		"Times a worker's lease loop reached the coordinator again after an outage.")
)

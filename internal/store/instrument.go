package store

import (
	"time"

	"gridseg/internal/metrics"
)

// The store's instruments live on the default registry so every
// process role — single-node segd, coordinator, worker — exports the
// same metric names from whichever backends it happens to wire
// together. Workers no longer touch a store, so the hit rate lives on
// the process that owns one: a single-node segd, a coordinator (its
// registration scan), or a cmd/sweep -cache run.
var (
	storeGets = metrics.Default().NewCounterVec(
		"gridseg_store_gets_total",
		"Store Get operations by result (hit, miss, error), across all backends.",
		"result")
	storeGetHit   = storeGets.WithLabel("hit")
	storeGetMiss  = storeGets.WithLabel("miss")
	storeGetError = storeGets.WithLabel("error")

	storePuts = metrics.Default().NewCounterVec(
		"gridseg_store_puts_total",
		"Store Put operations by result (ok, error), across all backends.",
		"result")
	storePutOK    = storePuts.WithLabel("ok")
	storePutError = storePuts.WithLabel("error")

	storeCorrupt = metrics.Default().NewCounter(
		"gridseg_store_corrupt_total",
		"Damaged store objects (undecodable, or holding another key) moved aside and answered as misses.")

	storeGetSeconds = metrics.Default().NewHistogram(
		"gridseg_store_get_seconds",
		"Latency of store Get operations in seconds.", nil)
	storePutSeconds = metrics.Default().NewHistogram(
		"gridseg_store_put_seconds",
		"Latency of store Put operations in seconds.", nil)
)

// observeGet records one Get outcome; it is deferred by the backends
// with pointers to their named results so the classification happens
// after the body has decided hit/miss/error.
func observeGet(start time.Time, ok *bool, err *error) {
	storeGetSeconds.Observe(time.Since(start).Seconds())
	switch {
	case *err != nil:
		storeGetError.Inc()
	case *ok:
		storeGetHit.Inc()
	default:
		storeGetMiss.Inc()
	}
}

// observePut records one Put outcome.
func observePut(start time.Time, err *error) {
	storePutSeconds.Observe(time.Since(start).Seconds())
	if *err != nil {
		storePutError.Inc()
	} else {
		storePutOK.Inc()
	}
}

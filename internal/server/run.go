package server

import (
	"cmp"
	"fmt"
	"time"

	"gridseg"
	"gridseg/internal/batch"
	"gridseg/internal/fabric"
)

// run executes one grid run: serve every cell already in the store
// directly, lease the rest through the lease table to the workers —
// the server's in-process goroutines, or the fabric workers of cluster
// mode — and assemble the completed cells into the GridResult RunGrid
// would produce. The server is the only writer of the store for leased
// cells: each completion carries its values, and the run's writer
// goroutine fills the store from them behind the completion (see
// fillBehind).
//
// Correctness leans on the cells being content-addressed: a worker
// presumed dead whose cell was requeued still completes with identical
// bytes, the lease table folds the duplicate silently, and the
// assembled artifact is byte-identical to an in-process RunGrid no
// matter which workers computed what, how often, or in what order.
func (s *Server) run(j *job) {
	j.setState(StateRunning)
	jobs, err := gridseg.GridJobs(j.spec, j.seed)
	if err != nil {
		j.fail(err)
		return
	}
	s.logRun(j.id, "running", "spec", j.spec, "seed", j.seed, "cells", len(jobs))

	values := make([][]float64, len(jobs))
	var pending []fabric.Job
	var cache gridseg.CacheStats
	// The store is only a cache: a failed Get is a miss, a failed fill
	// is logged, and the first failure is reported with the result.
	var storeErr error
	recCells := 0
	for _, fj := range jobs {
		v, ok, err := s.store.Get(fj.Key)
		storeErr = cmp.Or(storeErr, err)
		if err == nil && ok && len(v) == len(fj.Columns) {
			values[fj.Index] = v
			cache.Hits++
			batch.MetricCellsCached.Inc()
			if j.recovered {
				// Completed before the crash and filled: the store is the
				// only per-cell record a restarted server needs.
				recCells++
			}
			j.progress(cellProgress(fj, cache.Hits, len(jobs), true, ""))
			continue
		}
		pending = append(pending, fj)
	}
	if recCells > 0 {
		s.fabric.Table().NoteRecovered(0, recCells)
		s.logRun(j.id, "absorbed recovered cells", "cells", recCells, "remaining", len(pending))
	}
	if len(pending) == 0 {
		s.finish(j, values, cache, storeErr)
		return
	}

	// The completion callback runs with the lease table locked, so
	// invocations are serialized and `values`/`cache` need no extra
	// synchronization; the done-channel close (also under the table
	// lock) orders every write before the assembly below.
	fills, drainFills := s.fillBehind(j.id, len(pending))
	failc := make(chan error, 1)
	donec, err := s.fabric.Table().Register(j.id, pending, func(d fabric.CellDone) {
		if d.Err != "" {
			// Deterministic cell failure: the same inputs would fail on
			// any worker, so fail the run rather than requeue forever.
			select {
			case failc <- fmt.Errorf("cell %d failed on worker %s: %s", d.Index, d.Worker, d.Err):
			default:
			}
			return
		}
		fj := jobs[d.Index] // GridJobs lists the jobs in index order
		values[d.Index] = d.Values
		cache.Misses++
		fills <- cellFill{index: d.Index, key: fj.Key, values: d.Values}
		if !s.cluster {
			d.Worker = "" // in-process workers stay out of the SSE events
		}
		j.progress(cellProgress(fj, cache.Hits+cache.Misses, len(jobs), false, d.Worker))
	})
	if err != nil {
		drainFills()
		j.fail(err)
		return
	}

	var runErr error
	stopped := false
	select {
	case <-donec:
		// A failing cell also counts as completed in the table; prefer
		// the failure if both signals are up.
		select {
		case runErr = <-failc:
		default:
		}
	case runErr = <-failc:
	case <-s.stop:
		stopped = true
	}
	// Cancel ends the completion callbacks (a no-op for a run that
	// completed), so the fill queue can close; every outcome waits for
	// its fills before it is published.
	s.fabric.Table().Cancel(j.id)
	storeErr = cmp.Or(storeErr, drainFills())
	switch {
	case stopped:
		// Deliberately NOT journaled as finished: a clean shutdown and a
		// crash look the same to the journal, so the next boot resumes
		// this run from the cells its store holds.
		j.fail(fmt.Errorf("server shut down before the run completed"))
	case runErr != nil:
		s.failRun(j, runErr)
	default:
		s.finish(j, values, cache, storeErr)
	}
}

// cellFill is one computed cell queued for the store.
type cellFill struct {
	index  int
	key    string
	values []float64
}

// fillBehind starts a run's store writers: s.writers goroutines that
// put each queued cell into the store, off the workers' path — one per
// in-process worker, so single mode stores cells as wide as it
// computes them, and one on a coordinator. The queue holds n cells, so
// the n enqueues of the completion callback, which runs under the
// lease-table lock, never block. drain closes the queue, waits for the
// writers and returns a failed Put's error, if any; a run drains before
// it publishes its outcome, so a grid submitted after it finishes finds
// every cell of it in the store. A failed Put is logged and costs a
// recomputation later, never the result.
func (s *Server) fillBehind(id string, n int) (fills chan<- cellFill, drain func() error) {
	q := make(chan cellFill, n)
	errs := make(chan error, s.writers)
	for range s.writers {
		go func() {
			var first error
			for f := range q {
				if err := s.store.Put(f.key, f.values); err != nil {
					s.logRun(id, "caching cell failed", "cell", f.index, "err", err)
					first = cmp.Or(first, err)
				}
			}
			errs <- first
		}()
	}
	return q, func() (first error) {
		start := time.Now()
		close(q)
		for range s.writers {
			first = cmp.Or(first, <-errs)
		}
		metricClusterFillWait.Observe(time.Since(start).Seconds())
		return first
	}
}

// failRun records a deterministic run failure. The journal entry is
// finished too: the same cells would fail on any worker, so resuming
// the run on reboot would only refail it — the retry path is
// resubmission, which registers afresh.
func (s *Server) failRun(j *job, err error) {
	s.logRun(j.id, "failed", "err", err)
	s.finishJournal(j)
	j.fail(err)
}

// finishJournal retires a run from the journal once its register
// record is down (see job.registered).
func (s *Server) finishJournal(j *job) {
	if s.journal == nil {
		return
	}
	<-j.registered
	if err := s.journal.Finish(j.id); err != nil {
		s.logRun(j.id, "journal finish failed", "err", err)
	}
}

// finish assembles and publishes a completed run, retiring it from the
// journal (synchronously fsynced, so a crash after this point never
// re-runs a finished grid).
func (s *Server) finish(j *job, values [][]float64, cache gridseg.CacheStats, storeErr error) {
	if storeErr != nil {
		cache.Err = storeErr.Error()
		s.logRun(j.id, "result store failed mid-run", "err", storeErr)
	}
	res, err := gridseg.AssembleGrid(j.spec, values, cache)
	if err != nil {
		s.failRun(j, err)
		return
	}
	s.finishJournal(j)
	s.logRun(j.id, "done", "cached", cache.Hits, "computed", cache.Misses)
	j.finish(res)
}

// cellProgress adapts a completed job to the progress shape the SSE
// layer streams.
func cellProgress(fj fabric.Job, done, total int, cached bool, worker string) gridseg.CellProgress {
	c := fj.Cell
	return gridseg.CellProgress{
		Done: done, Total: total,
		Dynamic: c.Dynamic, N: c.N, W: c.W,
		Tau: c.Tau, P: c.P,
		Boundary: c.Boundary, Rho: c.Rho, TauDist: c.TauDist,
		Extra: c.Extra, Rep: c.Rep,
		Cached: cached, Worker: worker,
	}
}

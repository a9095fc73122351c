package server

import (
	"fmt"
	"time"

	"gridseg"
	"gridseg/internal/fabric"
)

// runCluster executes one grid run in coordinator mode: serve every
// cell already in the store directly, lease the rest to fabric
// workers, and assemble the completed cells into the same GridResult a
// single-process run would produce. The coordinator is the only writer
// of the store for leased cells: each computed completion carries its
// values, and the run's writer goroutine fills the store from them
// behind the completion (see fillBehind).
//
// The coordinator never computes a cell itself. Correctness leans on
// the cells being content-addressed: a worker presumed dead whose cell
// was requeued still completes with identical bytes, the lease table
// folds the duplicate silently, and the assembled artifact is
// byte-identical to the local path no matter which workers computed
// what, how often, or in what order.
func (s *Server) runCluster(j *job) {
	j.setState(StateRunning)
	jobs, err := gridseg.GridJobs(j.spec, j.seed)
	if err != nil {
		j.fail(err)
		return
	}
	s.logRun(j.id, "running (cluster)", "spec", j.spec, "seed", j.seed, "cells", len(jobs))

	values := make([][]float64, len(jobs))
	byIndex := make(map[int]fabric.Job, len(jobs))
	var pending []fabric.Job
	done, hits, misses, recCells := 0, 0, 0, 0
	for _, fj := range jobs {
		byIndex[fj.Index] = fj
		if v, ok, err := s.store.Get(fj.Key); err == nil && ok && len(v) == len(fj.Columns) {
			values[fj.Index] = v
			done++
			hits++
			if j.recovered {
				// Completed before the crash and filled: the store is the
				// only per-cell record a restarted coordinator needs.
				recCells++
			}
			j.progress(clusterProgress(fj, done, len(jobs), true, ""))
			continue
		}
		pending = append(pending, fj)
	}
	if recCells > 0 {
		s.fabric.Table().NoteRecovered(0, recCells)
		s.logRun(j.id, "absorbed recovered cells", "cells", recCells, "remaining", len(pending))
	}
	if len(pending) == 0 {
		s.finishCluster(j, values, hits, misses)
		return
	}

	// The completion callback runs with the lease table locked, so
	// invocations are serialized and `done`/`values`/`hits`/`misses`
	// need no extra synchronization; the done-channel close (also under
	// the table lock) orders every write before the assembly below.
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
		fj := byIndex[d.Index]
		values[d.Index] = d.Values
		done++
		if d.Cached {
			hits++
		} else {
			misses++
			fills <- cellFill{index: d.Index, key: fj.Key, values: d.Values}
		}
		j.progress(clusterProgress(fj, done, len(jobs), d.Cached, d.Worker))
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
	drainFills()
	switch {
	case stopped:
		// Deliberately NOT journaled as finished: a clean shutdown and a
		// crash look the same to the journal, so the next coordinator
		// boot resumes this run from the cells its store holds.
		j.fail(fmt.Errorf("server shut down before the run completed"))
	case runErr != nil:
		s.failCluster(j, runErr)
	default:
		s.finishCluster(j, values, hits, misses)
	}
}

// cellFill is one computed cell queued for the store.
type cellFill struct {
	index  int
	key    string
	values []float64
}

// fillBehind starts a run's store writer: one goroutine that puts each
// queued cell into the store, off the workers' request path. The queue
// holds n cells, so the n enqueues of a run's completion callback,
// which runs under the lease-table lock, never block. drain closes the
// queue and waits for the writer to land the rest; a run drains before
// it publishes its outcome, so a grid submitted after it finishes
// finds every cell of it in the store. Fills are fail-soft: a failed
// Put is logged and costs a recomputation later, never the result.
func (s *Server) fillBehind(id string, n int) (fills chan<- cellFill, drain func()) {
	q := make(chan cellFill, n)
	written := make(chan struct{})
	go func() {
		defer close(written)
		for f := range q {
			if err := s.store.Put(f.key, f.values); err != nil {
				s.logRun(id, "caching cell failed", "cell", f.index, "err", err)
			}
		}
	}()
	return q, func() {
		start := time.Now()
		close(q)
		<-written
		metricClusterFillWait.Observe(time.Since(start).Seconds())
	}
}

// failCluster records a deterministic run failure. The journal entry
// is finished too: the same cells would fail on any worker, so
// resuming the run on reboot would only refail it — the retry path is
// resubmission, which registers afresh.
func (s *Server) failCluster(j *job, err error) {
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

// finishCluster assembles and publishes a completed cluster run,
// retiring it from the journal (synchronously fsynced, so a crash
// after this point never re-runs a finished grid).
func (s *Server) finishCluster(j *job, values [][]float64, hits, misses int) {
	res, err := gridseg.AssembleGrid(j.spec, values, gridseg.CacheStats{Hits: hits, Misses: misses})
	if err != nil {
		s.failCluster(j, err)
		return
	}
	s.finishJournal(j)
	s.logRun(j.id, "done", "cached", hits, "computed_by_workers", misses)
	j.finish(res)
}

// clusterProgress adapts a fabric job completion to the progress shape
// the SSE layer streams.
func clusterProgress(fj fabric.Job, done, total int, cached bool, worker string) gridseg.CellProgress {
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

package batch

import (
	"fmt"
	"runtime"
	"sync"

	"gridseg/internal/rng"
	"gridseg/internal/store"
)

// Runner computes the metric vector of one cell. It receives a random
// source derived deterministically from (seed, scope, cell identity),
// so the result must not depend on scheduling. Metrics that could not
// be measured should be returned as NaN (aggregation skips NaNs); a
// non-nil error aborts the whole run.
type Runner func(c Cell, src *rng.Source) ([]float64, error)

// Options configures a batch run.
type Options struct {
	// Seed is the root seed of the run; every cell stream derives from
	// it. The zero seed is a valid seed.
	Seed uint64
	// Scope namespaces the seed derivation (typically the experiment
	// ID), so two sweeps in one program draw independent streams even
	// with equal root seeds.
	Scope string
	// Workers bounds the worker pool; 0 means GOMAXPROCS.
	Workers int
	// Progress, when non-nil, is invoked after each completed cell
	// with the number of cells done so far; cached reports whether the
	// cell was served from the checkpoint or the result store instead
	// of being computed. Calls are serialized.
	Progress func(done, total int, c Cell, cached bool)
	// CheckpointPath, when non-empty, streams completed cells to a
	// JSON checkpoint file and resumes from it if it already exists.
	// A checkpoint written for a different (grid, seed, scope,
	// columns) combination is rejected.
	CheckpointPath string
	// Store, when non-nil, is the shared content-addressed result
	// cache: every cell is looked up by its canonical key
	// (store.CellSpec) before being computed, and computed cells are
	// written back. Because cell seeds derive from the cell's identity
	// — never its position in a grid — any grid containing the same
	// cell hits the same key, so overlapping sweeps recompute nothing.
	Store store.Backend
}

// workers returns the effective worker count.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// CellSeed derives the 64-bit random seed of a cell from the run seed,
// the scope label, and the cell's parameter identity — never from the
// cell's index in a particular grid. Two grids that both contain the
// cell (glauber, n=96, w=2, tau=0.42, p=0.5, rep=3) therefore compute
// it with the same seed and obtain byte-identical results, which is
// what makes content-addressed caching across overlapping sweeps
// sound. The derived seed is also part of the cell's store key
// (store.CellSpec.Seed), so distinct root seeds or scopes can never
// alias a cache slot.
func CellSeed(seed uint64, scope string, c Cell) uint64 {
	// FNV-1a over the scope and the canonical cell identity, folded
	// into the root seed. rng.New feeds the result through SplitMix64,
	// so nearby seeds still yield independent-looking streams.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		h ^= 0xff // field separator, outside the byte alphabet
		h *= prime64
	}
	mix(scope)
	mix(c.identity())
	return seed ^ h
}

// CellSpec assembles the content-addressed store identity of a cell.
// Exported because the distributed fabric derives lease jobs — store
// key plus fully derived seed — from the same identity the local
// engine uses, which is what makes a worker's computation of a leased
// cell byte-identical to the in-process one.
func (o Options) CellSpec(c Cell, extraName string, columns []string) store.CellSpec {
	return store.CellSpec{
		Scope:     o.Scope,
		Columns:   columns,
		Dynamic:   c.Dynamic,
		N:         c.N,
		W:         c.W,
		Tau:       c.Tau,
		P:         c.P,
		Boundary:  c.Boundary,
		Rho:       c.Rho,
		TauDist:   c.TauDist,
		ExtraName: extraName,
		Extra:     c.Extra,
		Rep:       c.Rep,
		Seed:      CellSeed(o.Seed, o.Scope, c),
	}
}

// storeGuard wraps the optional result store with fail-soft
// semantics: the store is only a cache, so its first failure (full
// disk, corrupt object, permissions) disables it for the rest of the
// run — cells are then computed and simply not cached — instead of
// aborting hours of sweep work. The first error is reported through
// ResultSet.Cache.Err.
type storeGuard struct {
	store store.Backend
	mu    sync.Mutex
	err   error
}

// get probes the store; any failure reads as a miss and disables the
// store.
func (g *storeGuard) get(key string) ([]float64, bool) {
	if g == nil || g.disabled() {
		return nil, false
	}
	v, ok, err := g.store.Get(key)
	if err != nil {
		g.disable(err)
		return nil, false
	}
	return v, ok
}

// put fills the store, disabling it on failure.
func (g *storeGuard) put(key string, values []float64) {
	if g == nil || g.disabled() {
		return
	}
	if err := g.store.Put(key, values); err != nil {
		g.disable(err)
	}
}

func (g *storeGuard) disabled() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err != nil
}

func (g *storeGuard) disable(err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err == nil {
		g.err = err
	}
}

// firstErr returns the failure that disabled the store, if any.
func (g *storeGuard) firstErr() error {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// Run expands the grid, executes fn over every cell on a bounded
// worker pool, and collects the results indexed by cell. The returned
// ResultSet is identical for any Workers setting. Cells found in the
// checkpoint or the result store are served without recomputation;
// ResultSet.Cache reports the split.
func Run(g Grid, columns []string, fn Runner, opt Options) (*ResultSet, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("batch: no metric columns declared")
	}
	ng := g.normalized()
	cells := ng.Cells()
	rs := &ResultSet{
		Grid:    ng,
		Columns: columns,
		Cells:   cells,
		Values:  make([][]float64, len(cells)),
	}

	// Per-cell seeds are always needed; content-addressed keys only
	// when a cache (checkpoint or store) is attached.
	seeds := make([]uint64, len(cells))
	for i, c := range cells {
		seeds[i] = CellSeed(opt.Seed, opt.Scope, c)
	}
	var keys []string
	if opt.CheckpointPath != "" || opt.Store != nil {
		keys = make([]string, len(cells))
		for i, c := range cells {
			keys[i] = opt.CellSpec(c, ng.ExtraName, columns).Key()
		}
	}

	var guard *storeGuard
	if opt.Store != nil {
		guard = &storeGuard{store: opt.Store}
	}

	var ckpt *checkpoint
	done := make([]bool, len(cells))
	if opt.CheckpointPath != "" {
		var err error
		ckpt, err = loadOrCreateCheckpoint(opt.CheckpointPath, ng.Fingerprint(opt.Seed, opt.Scope, columns), columns)
		if err != nil {
			return nil, err
		}
		for i := range cells {
			if vals, ok := ckpt.get(keys[i]); ok && len(vals) == len(columns) {
				rs.Values[i] = vals
				done[i] = true
				// The checkpoint is a single-run view over the store:
				// anything it restored belongs in the shared cache too —
				// but only fill actual gaps, so resuming with a warm
				// store does not rewrite objects it already holds.
				if _, ok := guard.get(keys[i]); !ok {
					guard.put(keys[i], vals)
				}
			}
		}
	}

	var pending []int
	for i := range cells {
		if !done[i] {
			pending = append(pending, i)
		}
	}

	var (
		mu        sync.Mutex
		firstErr  error
		completed = len(cells) - len(pending)
	)
	rs.Cache.Hits = completed
	MetricCellsCached.Add(uint64(completed))
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	workers := opt.workers()
	if workers > len(pending) {
		workers = len(pending)
	}
	runCell := func(i int) {
		c := cells[i]
		// Probe the shared store before computing. The probe runs
		// outside the result mutex so disk-backed stores are read in
		// parallel; store failures degrade to computing (see
		// storeGuard), never abort the run.
		var (
			vals   []float64
			cached bool
		)
		if guard != nil {
			if v, ok := guard.get(keys[i]); ok && len(v) == len(columns) {
				vals, cached = v, true
			}
		}
		if !cached {
			v, err := fn(c, rng.New(seeds[i]))
			if err == nil && len(v) != len(columns) {
				err = fmt.Errorf("returned %d values, want %d columns", len(v), len(columns))
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("batch: cell %d (%+v): %w", c.Index, c, err)
				}
				mu.Unlock()
				return
			}
			vals = v
			if guard != nil {
				guard.put(keys[i], vals)
			}
		}
		if cached {
			MetricCellsCached.Inc()
		} else {
			MetricCellsComputed.Inc()
		}
		mu.Lock()
		defer mu.Unlock()
		rs.Values[i] = vals
		completed++
		if cached {
			rs.Cache.Hits++
		} else {
			rs.Cache.Misses++
		}
		if ckpt != nil {
			if err := ckpt.put(keys[i], vals); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if opt.Progress != nil {
			opt.Progress(completed, len(cells), c, cached)
		}
	}

	// Stop dispatching new cells once a cell has failed: a long sweep
	// should not spend hours finishing a grid whose run is already
	// doomed. In-flight cells drain normally.
	if workers <= 1 {
		for _, i := range pending {
			if failed() {
				break
			}
			runCell(i)
		}
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					runCell(i)
				}
			}()
		}
		for _, i := range pending {
			if failed() {
				break
			}
			next <- i
		}
		close(next)
		wg.Wait()
	}
	if ckpt != nil {
		// Flush even on failure: preserving completed cells for a
		// resume is the entire point of the checkpoint.
		if err := ckpt.flush(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if err := guard.firstErr(); err != nil {
		rs.Cache.Err = err.Error()
	}
	return rs, nil
}

package gridseg

import (
	"fmt"
	"slices"

	"gridseg/internal/batch"
	"gridseg/internal/fabric"
	"gridseg/internal/rng"
)

// This file is the bridge between the sweep engine and the lease
// table of internal/fabric: decomposing a grid into leasable jobs,
// computing one leased job, and reassembling the completed cells into
// a GridResult. Every segd run goes through it, whether its cells are
// computed by worker processes or by a single-mode server's in-process
// workers. It shares RunGrid's spec parsing, engine defaulting, cell
// seeds, canonical cell order and cell body (runCell), so a run is
// byte-identical to an in-process RunGrid of the same (spec, seed).

// parseJobGrid parses a spec as RunGrid does with the default engine,
// returning the grid and its metric columns.
func parseJobGrid(spec string) (batch.Grid, []string, error) {
	g, err := parseGridSpec(spec)
	if g.Engine == "" {
		g.Engine = EngineAuto.String()
	}
	return g, columnsFor(g), err
}

// GridJobs expands a grid spec into the leasable cell jobs of the
// distributed fabric. Each job carries the cell's full
// content-addressed identity: its store key, its derived seed
// (batch.CellSeed — a function of cell identity, never grid position),
// and the metric schema. Jobs are in canonical cell order, so job
// index i corresponds to row i of the assembled result.
func GridJobs(spec string, seed uint64) ([]fabric.Job, error) {
	g, cols, err := parseJobGrid(spec)
	if err != nil {
		return nil, err
	}
	bopt := batch.Options{Seed: seed, Scope: gridScope}
	cells := g.Cells()
	jobs := make([]fabric.Job, len(cells))
	for i, c := range cells {
		cs := bopt.CellSpec(c, g.ExtraName, cols)
		jobs[i] = fabric.Job{
			Index:   i,
			Key:     cs.Key(),
			Seed:    cs.Seed,
			Columns: cols,
			Cell:    c,
		}
	}
	return jobs, nil
}

// ComputeJob computes the metric vector of one leased cell, exactly as
// RunGrid would: the same cell body, fed an rng stream derived from the
// job's seed. It is the Runner a fabric worker should use. Jobs
// carrying the geometry schema get the appended geometry columns;
// either way the trajectory — and the first nine values — are
// byte-identical to an in-process run.
func ComputeJob(j fabric.Job) ([]float64, error) { return ComputeJobLive(j, nil) }

// ComputeJobLive is ComputeJob with the cell's trajectory streamed
// through tap (nil means no tap). The tap never changes the values.
func ComputeJobLive(j fabric.Job, tap *LiveTap) ([]float64, error) {
	geometry, err := jobGeometry(j.Columns)
	if err != nil {
		return nil, err
	}
	values, err := runCell(j.Cell, rng.New(j.Seed), geometry, tap)
	if err != nil {
		return nil, err
	}
	// A job never enters batch.Run, so the computed counter is
	// incremented here. Jobs are never cached cells: a server serves
	// those from its store and leases only the rest.
	batch.MetricCellsComputed.Inc()
	return values, nil
}

// jobGeometry classifies a job's column schema against this binary's
// two schemas, reporting whether it is the geometry one. Any other
// schema means the coordinator runs an incompatible binary.
func jobGeometry(cols []string) (bool, error) {
	switch {
	case slices.Equal(cols, sweepColumns):
		return false, nil
	case slices.Equal(cols, geomColumns):
		return true, nil
	}
	return false, fmt.Errorf("gridseg: job schema %v matches neither this binary's columns %v nor its geometry columns %v", cols, sweepColumns, geomColumns)
}

// AssembleGrid builds the GridResult of a completed distributed run
// from per-cell metric vectors in canonical cell order (the order
// GridJobs emitted). The artifacts rendered from the result are
// byte-identical to a single-process RunGrid of the same (spec, seed).
func AssembleGrid(spec string, values [][]float64, cache CacheStats) (*GridResult, error) {
	g, cols, err := parseJobGrid(spec)
	if err != nil {
		return nil, err
	}
	if len(values) != g.Size() {
		return nil, fmt.Errorf("gridseg: got %d cell values, grid has %d cells", len(values), g.Size())
	}
	for i, v := range values {
		if len(v) != len(cols) {
			return nil, fmt.Errorf("gridseg: cell %d has %d values, want %d", i, len(v), len(cols))
		}
	}
	rs := &batch.ResultSet{
		Grid:    g,
		Columns: cols,
		Values:  values,
		Cache:   batch.CacheStats{Hits: cache.Hits, Misses: cache.Misses, Err: cache.Err},
	}
	return &GridResult{rs: rs}, nil
}

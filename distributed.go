package gridseg

import (
	"fmt"

	"gridseg/internal/batch"
	"gridseg/internal/fabric"
	"gridseg/internal/rng"
)

// This file is the bridge between the sweep engine and the distributed
// fabric (internal/fabric): decomposing a grid into leasable jobs,
// computing one leased job in a worker process, and reassembling the
// completed cells into a GridResult. The three functions are carefully
// mirror images of RunGrid's internals — same spec parsing, same
// engine defaulting, same cell seeds, same canonical cell order — so a
// cluster run is byte-identical to a single-process run of the same
// (spec, seed).

// GridJobs expands a grid spec into the leasable cell jobs of the
// distributed fabric. Each job carries the cell's full
// content-addressed identity: its store key, its derived seed
// (batch.CellSeed — a function of cell identity, never grid position),
// and the metric schema. Jobs are in canonical cell order, so job
// index i corresponds to row i of the assembled result.
func GridJobs(spec string, seed uint64) ([]fabric.Job, error) {
	g, err := parseGridSpec(spec)
	if err != nil {
		return nil, err
	}
	if g.Engine == "" {
		g.Engine = EngineAuto.String()
	}
	bopt := batch.Options{Seed: seed, Scope: gridScope}
	cols := columnsFor(g)
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
// RunGrid's in-process workers would: the same runner, fed an rng
// stream derived from the job's seed. It is the Runner a fabric worker
// should use. Jobs carrying the geometry schema get the appended
// geometry columns; either way the trajectory — and the first nine
// values — are byte-identical to an in-process run.
func ComputeJob(j fabric.Job) ([]float64, error) {
	geometry, err := jobGeometry(j.Columns)
	if err != nil {
		return nil, err
	}
	m, err := buildSweepModel(j.Cell, rng.New(j.Seed))
	if err != nil {
		return nil, err
	}
	_, fixated := m.Run(0)
	metricFlips.Add(uint64(m.Flips()))
	// The fabric worker path never enters batch.Run, so the computed
	// counter is incremented here. Workers never see cached cells: the
	// coordinator serves those from its store and leases only the rest.
	batch.MetricCellsComputed.Inc()
	return measureSweepCell(m, j.Cell, fixated, geometry), nil
}

// jobGeometry classifies a job's column schema against this binary's
// two schemas, reporting whether it is the geometry one. Any other
// schema means the coordinator runs an incompatible binary.
func jobGeometry(cols []string) (bool, error) {
	match := func(want []string) bool {
		if len(cols) != len(want) {
			return false
		}
		for i, c := range cols {
			if c != want[i] {
				return false
			}
		}
		return true
	}
	if match(sweepColumns) {
		return false, nil
	}
	if match(geomColumns) {
		return true, nil
	}
	return false, fmt.Errorf("gridseg: job schema %v matches neither this binary's columns %v nor its geometry columns %v", cols, sweepColumns, geomColumns)
}

// AssembleGrid builds the GridResult of a completed distributed run
// from per-cell metric vectors in canonical cell order (the order
// GridJobs emitted). The artifacts rendered from the result are
// byte-identical to a single-process RunGrid of the same (spec, seed).
func AssembleGrid(spec string, values [][]float64, cache CacheStats) (*GridResult, error) {
	g, err := parseGridSpec(spec)
	if err != nil {
		return nil, err
	}
	if g.Engine == "" {
		g.Engine = EngineAuto.String()
	}
	cols := columnsFor(g)
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

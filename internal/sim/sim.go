// Package sim is the experiment harness: it defines the execution
// context (quick vs full parameters, deterministic seeding, optional
// artifact output directory) and the registry of experiments E1..E18,
// each of which regenerates one of the paper's figures or validates
// one of its theorems' shapes. See README.md for the
// experiment-to-figure index.
//
// All replicated measurement runs execute on the internal/batch sweep
// engine: each experiment declares a parameter grid and a per-cell
// metric function, and the engine handles worker-pool parallelism,
// deterministic per-cell seeding, and aggregation. Experiment output
// is therefore independent of the worker count.
package sim

import (
	"fmt"
	"sort"
	"sync"

	"gridseg/internal/batch"
	"gridseg/internal/dynamics"
	"gridseg/internal/dynamics/engines"
	"gridseg/internal/dynamics/pareng"
	"gridseg/internal/grid"
	"gridseg/internal/report"
	"gridseg/internal/rng"
	"gridseg/internal/store"
)

// Context carries the run configuration shared by all experiments.
type Context struct {
	// Quick selects reduced parameters suitable for CI; full mode uses
	// paper-scale parameters.
	Quick bool
	// Seed determines every random choice of the experiment.
	Seed uint64
	// OutDir, when non-empty, receives artifacts (PNG snapshots, CSVs).
	OutDir string
	// Workers bounds the batch engine's worker pool; 0 means
	// GOMAXPROCS. Results never depend on the worker count.
	Workers int
	// Engine selects the engine implementation for replicated runs (a
	// label of internal/dynamics/engines; empty means auto). Engines are
	// bit-identical inside sweeps — the parallel label runs on one
	// strip — so this never changes results, only speed.
	Engine string
	// Store, when non-nil, is the shared content-addressed result
	// cache consulted by every replicated stage: cells already in the
	// store (keyed by experiment scope, parameters, and derived seed)
	// are served without recomputation. Never changes results.
	Store store.Backend
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...interface{})
}

// log emits a progress line if a logger is configured.
func (c *Context) log(format string, args ...interface{}) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// src returns the root random source of the serial experiment stage
// identified by id. Replicated stages should use run instead, which
// derives per-cell streams on the batch engine.
func (c *Context) src(id uint64) *rng.Source {
	return rng.New(c.Seed).Split(id)
}

// run executes a parameter grid on the batch sweep engine. The scope
// (by convention the experiment ID plus an optional stage suffix)
// namespaces the per-cell random streams, so distinct stages draw
// independent randomness from the same context seed. The context's
// engine selection is injected into the grid, so every cell runner
// sees it as c.Engine.
//
// The quick/full mode is folded into the scope: experiment runners
// routinely capture pick(ctx, quick, full)-sized parameters (trial
// counts, spans) that are invisible to the cell's (n, w, tau, p,
// extra, rep) identity, so a quick and a full run of the same grid
// cell measure different things and must never share a cell seed or a
// result-store slot.
func (c *Context) run(scope string, g batch.Grid, columns []string, fn batch.Runner) (*batch.ResultSet, error) {
	if g.Engine == "" {
		g.Engine = c.Engine
	}
	mode := "@full"
	if c.Quick {
		mode = "@quick"
	}
	return batch.Run(g, columns, fn, batch.Options{
		Seed:    c.Seed,
		Scope:   scope + mode,
		Workers: c.Workers,
		Store:   c.Store,
	})
}

// Experiment is a runnable reproduction unit.
type Experiment struct {
	ID     string // "E1" .. "E18"
	Figure string // the paper artifact it regenerates
	Title  string
	Run    func(ctx *Context) ([]*report.Table, error)
}

var (
	registryMu sync.Mutex
	registry   []Experiment
)

// register adds an experiment at package init time.
func register(e Experiment) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry = append(registry, e)
}

// All returns the registered experiments ordered by numeric ID.
func All() []Experiment {
	registryMu.Lock()
	defer registryMu.Unlock()
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool {
		var a, b int
		fmt.Sscanf(out[i].ID, "E%d", &a)
		fmt.Sscanf(out[j].ID, "E%d", &b)
		return a < b
	})
	return out
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// glauberRun builds a Bernoulli(p) lattice, runs Glauber dynamics to
// fixation (bounded by the Lyapunov limit), and returns the process.
type glauberResult struct {
	Proc  dynamics.Engine
	Lat   *grid.Lattice
	Flips int64
}

// newEngine parses an engine label and builds the dynamic's engine
// from the engine table. Sweeps pin the parallel engine to one strip,
// which the table resolves to the fast engine, so the label never
// changes results and cached cells stay valid under any engine.
func newEngine(dyn engines.Dynamic, label string, lat *grid.Lattice, w int, tau float64, dsc dynamics.Scenario, src *rng.Source) (engines.Engine, error) {
	kind, err := engines.Parse(label)
	if err != nil {
		return engines.Engine{}, fmt.Errorf("sim: %w", err)
	}
	return engines.New(dyn, kind, lat, w, tau, dsc, src, pareng.Config{Strips: 1})
}

func glauberRun(n, w int, tau, p float64, src *rng.Source, engine string) (glauberResult, error) {
	lat := grid.Random(n, p, src.Split(1))
	e, err := newEngine(engines.Glauber, engine, lat, w, tau, dynamics.Scenario{}, src.Split(2))
	if err != nil {
		return glauberResult{}, err
	}
	flips, _ := e.Proc.Run(0)
	return glauberResult{Proc: e.Proc, Lat: lat, Flips: flips}, nil
}

// pick returns q in quick mode and f otherwise.
func pick[T any](ctx *Context, q, f T) T {
	if ctx.Quick {
		return q
	}
	return f
}

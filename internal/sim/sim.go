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
	"gridseg/internal/dynamics/fastglauber"
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
	// Engine selects the Glauber engine implementation for replicated
	// runs ("auto", "reference", "fast", or "parallel"; empty means
	// auto). Engines are bit-identical inside sweeps — the parallel
	// label runs in its delegation mode — so this never changes
	// results, only speed.
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

// newEngine builds the selected Glauber engine over the lattice. The
// engines are bit-identical (internal/difftest), so the label only
// selects an execution strategy.
func newEngine(lat *grid.Lattice, w int, tau float64, src *rng.Source, engine string) (dynamics.Engine, error) {
	return newScenarioEngine(lat, w, tau, dynamics.Scenario{}, src, engine)
}

// newScenarioEngine builds the selected Glauber engine under a
// topology scenario. The fast engine covers every scenario axis, so
// auto resolves to it whenever the neighborhood fits the packed count
// lanes, exactly as on default cells.
func newScenarioEngine(lat *grid.Lattice, w int, tau float64, dsc dynamics.Scenario, src *rng.Source, engine string) (dynamics.Engine, error) {
	switch engine {
	case "", batch.EngineAuto:
		if fastglauber.Fits(w) {
			return fastglauber.NewScenario(lat, w, tau, dsc, src)
		}
		return dynamics.NewScenario(lat, w, tau, dsc, src)
	case batch.EngineReference:
		return dynamics.NewScenario(lat, w, tau, dsc, src)
	case batch.EngineFast:
		return fastglauber.NewScenario(lat, w, tau, dsc, src)
	case batch.EngineParallel:
		// Sweeps pin the parallel engine to its delegation mode (one
		// strip), which is bit-identical to the fast engine, so the
		// engine stays an execution detail and cached cells remain valid.
		return pareng.New(lat, w, tau, dsc, src, pareng.Config{Strips: 1})
	}
	return nil, fmt.Errorf("sim: unknown engine %q", engine)
}

// newSwapEngine builds the selected Kawasaki engine under a topology
// scenario, with the same auto-resolution rule as newScenarioEngine.
func newSwapEngine(lat *grid.Lattice, w int, tau float64, dsc dynamics.Scenario, src *rng.Source, engine string) (dynamics.SwapEngine, error) {
	switch engine {
	case "", batch.EngineAuto:
		if fastglauber.Fits(w) {
			return fastglauber.NewKawasakiScenario(lat, w, tau, dsc, src)
		}
		return dynamics.NewKawasakiScenario(lat, w, tau, dsc, src)
	case batch.EngineReference:
		return dynamics.NewKawasakiScenario(lat, w, tau, dsc, src)
	case batch.EngineFast, batch.EngineParallel:
		// Kawasaki has no parallel implementation; the parallel label
		// resolves to the sequential fast engine, exactly like gridseg.
		return fastglauber.NewKawasakiScenario(lat, w, tau, dsc, src)
	}
	return nil, fmt.Errorf("sim: unknown engine %q", engine)
}

// newMoveEngine builds the selected relocation (Move) engine under a
// topology scenario, with the same auto-resolution rule as
// newScenarioEngine.
func newMoveEngine(lat *grid.Lattice, w int, tau float64, dsc dynamics.Scenario, src *rng.Source, engine string) (dynamics.MoveEngine, error) {
	switch engine {
	case "", batch.EngineAuto:
		if fastglauber.Fits(w) {
			return fastglauber.NewMove(lat, w, tau, dsc, src)
		}
		return dynamics.NewMove(lat, w, tau, dsc, src)
	case batch.EngineReference:
		return dynamics.NewMove(lat, w, tau, dsc, src)
	case batch.EngineFast, batch.EngineParallel:
		// Move has no parallel implementation either; fall back to the
		// sequential fast engine.
		return fastglauber.NewMove(lat, w, tau, dsc, src)
	}
	return nil, fmt.Errorf("sim: unknown engine %q", engine)
}

func glauberRun(n, w int, tau, p float64, src *rng.Source, engine string) (glauberResult, error) {
	lat := grid.Random(n, p, src.Split(1))
	proc, err := newEngine(lat, w, tau, src.Split(2), engine)
	if err != nil {
		return glauberResult{}, err
	}
	flips, _ := proc.Run(0)
	return glauberResult{Proc: proc, Lat: lat, Flips: flips}, nil
}

// pick returns q in quick mode and f otherwise.
func pick[T any](ctx *Context, q, f T) T {
	if ctx.Quick {
		return q
	}
	return f
}

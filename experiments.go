package gridseg

import (
	"fmt"
	"strings"

	"gridseg/internal/sim"
)

// ExperimentInfo describes one entry of the reproduction registry.
type ExperimentInfo struct {
	ID     string // "E1" .. "E14"
	Figure string // the paper artifact it regenerates
	Title  string
}

// Experiments lists the registered experiments in ID order. Each
// regenerates one figure of the paper or validates one theorem's shape;
// see README.md for the experiment-to-figure index.
func Experiments() []ExperimentInfo {
	var out []ExperimentInfo
	for _, e := range sim.All() {
		out = append(out, ExperimentInfo{ID: e.ID, Figure: e.Figure, Title: e.Title})
	}
	return out
}

// ExperimentOptions configures a registry run.
type ExperimentOptions struct {
	// Full selects paper-scale parameters; the default quick mode is
	// sized for interactive use and CI.
	Full bool
	// Seed determines all randomness (default 1).
	Seed uint64
	// OutDir, when non-empty, receives artifacts (PNG snapshots, CSV
	// curve data).
	OutDir string
	// Workers bounds the batch engine's worker pool; 0 means
	// GOMAXPROCS. Results never depend on the worker count.
	Workers int
	// Engine selects the engine implementation (EngineAuto
	// picks the fast bit-packed engine whenever it applies). Engines
	// are bit-identical, so this never changes results, only speed.
	Engine Engine
	// Store, when non-nil, is the shared content-addressed result
	// cache: replicated measurement stages serve already-computed
	// cells from it instead of recomputing them. Never changes
	// results.
	Store CellStore
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...interface{})
}

// RunExperiment executes a registered experiment and returns its tables
// rendered as text.
func RunExperiment(id string, opt ExperimentOptions) (string, error) {
	e, ok := sim.Find(id)
	if !ok {
		return "", fmt.Errorf("gridseg: unknown experiment %q", id)
	}
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	ctx := &sim.Context{
		Quick:   !opt.Full,
		Seed:    seed,
		OutDir:  opt.OutDir,
		Workers: opt.Workers,
		Engine:  opt.Engine.String(),
		Store:   opt.Store,
		Logf:    opt.Logf,
	}
	tables, err := e.Run(ctx)
	if err != nil {
		return "", fmt.Errorf("gridseg: %s: %w", id, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s (%s): %s ==\n\n", e.ID, e.Figure, e.Title)
	for _, t := range tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// Package difftest is the differential-testing harness that pins the
// bit-packed fast engines — Glauber, Kawasaki, and Move, on every
// topology scenario — to the reference dynamics. It drives two models built
// from identical configurations — one forced onto the reference
// engine, one onto the engine under test — through the same event
// sequence, and demands byte-identical spin arrays, flip counts, Phi
// trajectories, clocks, and segregation Stats at a configurable event
// cadence and at fixation. Any divergence is reported with the cell,
// the event number, and the first differing observable.
//
// The harness is the correctness contract that lets every other layer
// (sim experiments, batch sweeps, cmd/sweep) treat engine selection as
// a pure execution detail.
package difftest

import (
	"errors"
	"fmt"
	"math"

	"gridseg"
	"gridseg/internal/batch"
	"gridseg/internal/fastgrid"
	"gridseg/internal/measure"
)

// Cell is one differential test point.
type Cell struct {
	N       int
	W       int
	Tau     float64
	P       float64
	Dynamic gridseg.Dynamic
	Seed    uint64
	// Scenario coordinates (zero values are the paper's setting).
	Boundary gridseg.Boundary
	Rho      float64
	TauDist  string
	// Par > 0 requests the engine under test as the parallel engine on
	// one strip (ParStrips = 1) with Par workers — the request sweeps
	// make — pinning its resolution through the engine table to the
	// same lockstep bit-identity contract as the sequential engines, for
	// every worker count.
	Par int
}

// defaultScenario reports whether the cell runs the paper's setting,
// the precondition for the fast engine.
func (c Cell) defaultScenario() bool {
	return batch.DefaultScenario(c.Boundary.String(), c.Rho, c.TauDist)
}

// String renders the cell compactly for failure messages.
func (c Cell) String() string {
	dyn := "glauber"
	switch c.Dynamic {
	case gridseg.Kawasaki:
		dyn = "kawasaki"
	case gridseg.Move:
		dyn = "move"
	}
	s := fmt.Sprintf("n=%d w=%d tau=%v p=%v dyn=%s seed=%d", c.N, c.W, c.Tau, c.P, dyn, c.Seed)
	if !c.defaultScenario() {
		s += fmt.Sprintf(" boundary=%s rho=%v taudist=%s", c.Boundary, c.Rho, c.TauDist)
	}
	if c.Par > 0 {
		s += fmt.Sprintf(" par=%d", c.Par)
	}
	return s
}

// Options tunes a differential run.
type Options struct {
	// CheckEvery is the full-state comparison cadence in events
	// (default 4096). Cheap checks (flip counts, clocks, mobility)
	// run after every event regardless.
	CheckEvery int64
	// MaxEvents caps the events driven per cell; <= 0 means run to
	// fixation (Kawasaki cells should set a cap: pair dynamics need
	// not terminate).
	MaxEvents int64
}

func (o Options) checkEvery() int64 {
	if o.CheckEvery > 0 {
		return o.CheckEvery
	}
	return 4096
}

// Result summarizes one compared cell.
type Result struct {
	Cell   Cell
	Events int64 // effective events driven (per engine)
	Checks int64 // full-state comparisons performed
}

// Compare builds the cell's model twice — on the reference engine and
// on the engine under test — and steps both in lockstep until fixation
// or the event cap. It returns the first divergence as an error. The
// engine under test is the fast engine, or the parallel engine on one
// strip for Par cells. Where the engine table rejects that request
// because the horizon is past the packed lanes' capacity
// (ErrNeighborhoodTooLarge), Compare pins the fallback contract
// instead: auto must resolve to the reference engine, and the two runs
// must still agree.
func Compare(c Cell, opt Options) (Result, error) {
	base := gridseg.Config{
		N: c.N, W: c.W, Tau: c.Tau, P: c.P,
		Seed: c.Seed, Dynamic: c.Dynamic,
		Boundary: c.Boundary, Rho: c.Rho, TauDist: c.TauDist,
	}
	refCfg, underCfg := base, base
	refCfg.Engine = gridseg.EngineReference
	underCfg.Engine = gridseg.EngineFast
	if c.Par > 0 {
		underCfg.Engine = gridseg.EngineParallel
		underCfg.Par = c.Par
		underCfg.ParStrips = 1
	}
	ref, err := gridseg.New(refCfg)
	if err != nil {
		return Result{}, fmt.Errorf("difftest: %s: reference: %w", c, err)
	}
	under, err := gridseg.New(underCfg)
	if errors.Is(err, gridseg.ErrNeighborhoodTooLarge) {
		under, err = gridseg.New(base)
		if err == nil && under.Engine() != gridseg.EngineReference {
			return Result{}, fmt.Errorf("difftest: %s: auto resolved to %v, want the reference fallback", c, under.Engine())
		}
	}
	if err != nil {
		return Result{}, fmt.Errorf("difftest: %s: under test: %w", c, err)
	}

	res := Result{Cell: c}
	check := func(when string) error {
		res.Checks++
		if err := diverges(ref, under); err != nil {
			return fmt.Errorf("difftest: %s: %s (event %d): %w", c, when, res.Events, err)
		}
		return nil
	}
	if err := check("initial state"); err != nil {
		return res, err
	}
	every := opt.checkEvery()
	for {
		if opt.MaxEvents > 0 && res.Events >= opt.MaxEvents {
			break
		}
		rok := ref.Step()
		uok := under.Step()
		if rok != uok {
			return res, fmt.Errorf("difftest: %s: event %d: reference movable=%v, under test movable=%v", c, res.Events, rok, uok)
		}
		if !rok {
			break
		}
		res.Events++
		// Cheap per-event checks; the full state every `every` events.
		if ref.Flips() != under.Flips() {
			return res, fmt.Errorf("difftest: %s: event %d: flip counts %d vs %d", c, res.Events, under.Flips(), ref.Flips())
		}
		if !floatEqual(ref.Time(), under.Time()) {
			return res, fmt.Errorf("difftest: %s: event %d: clocks %v vs %v", c, res.Events, under.Time(), ref.Time())
		}
		if res.Events%every == 0 {
			if err := check("periodic check"); err != nil {
				return res, err
			}
		}
	}
	if err := check("final state"); err != nil {
		return res, err
	}
	return res, nil
}

// diverges compares the full observable state of two models and
// returns a descriptive error on the first mismatch.
func diverges(ref, under *gridseg.Model) error {
	if rs, us := ref.String(), under.String(); rs != us {
		return fmt.Errorf("spin arrays differ:\nunder test:\n%svs reference:\n%s", us, rs)
	}
	if rf, uf := ref.Flips(), under.Flips(); rf != uf {
		return fmt.Errorf("flip counts differ: %d vs %d", uf, rf)
	}
	if rp, up := ref.Phi(), under.Phi(); rp != up {
		return fmt.Errorf("Phi differs: %d vs %d", up, rp)
	}
	if !floatEqual(ref.Time(), under.Time()) {
		return fmt.Errorf("clocks differ: %v vs %v", under.Time(), ref.Time())
	}
	if rc, uc := ref.FlippableCount(), under.FlippableCount(); rc != uc {
		return fmt.Errorf("flippable counts differ: %d vs %d", uc, rc)
	}
	if rx, ux := ref.Fixated(), under.Fixated(); rx != ux {
		return fmt.Errorf("fixation differs: %v vs %v", ux, rx)
	}
	if rs, us := ref.SegregationStats(), under.SegregationStats(); rs != us {
		return fmt.Errorf("stats differ:\nunder test: %v\nreference:  %v", us, rs)
	}
	// Cross-layout pin: the streaming Phi over a tiled snapshot of the
	// live view must agree with the engines' maintained Phi, tying the
	// tiled storage and streaming measurement layers into the same
	// bit-identity contract.
	cfg := under.Config()
	tiled, err := fastgrid.TiledFromView(under.View(), 0)
	if err != nil {
		return fmt.Errorf("tiled snapshot: %w", err)
	}
	open := cfg.Boundary == gridseg.BoundaryOpen
	if pv, rp := measure.PhiView(tiled, cfg.W, open), ref.Phi(); pv != rp {
		return fmt.Errorf("streaming Phi over tiled snapshot = %d, maintained Phi = %d", pv, rp)
	}
	return nil
}

// floatEqual is exact equality with NaN == NaN (Kawasaki models have
// no clock and report NaN).
func floatEqual(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// Report aggregates a multi-cell differential run.
type Report struct {
	Cells  int
	Events int64
	Checks int64
}

// CompareAll runs Compare over every cell and accumulates totals,
// stopping at the first divergence.
func CompareAll(cells []Cell, opt Options) (Report, error) {
	var rep Report
	for _, c := range cells {
		res, err := Compare(c, opt)
		rep.Cells++
		rep.Events += res.Events
		rep.Checks += res.Checks
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

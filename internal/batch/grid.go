// Package batch is the parallel sweep engine of the repository: it
// turns a declarative parameter grid over (n, w, tau, p, extra,
// dynamic, replicates) into a deterministic set of cells, runs a user
// function over the cells on a bounded worker pool, and aggregates the
// per-cell metric vectors into tables, CSV, and JSON artifacts.
//
// Determinism is a hard guarantee: every cell derives its random
// source from (seed, scope, cell identity) only — see CellSeed — so
// the output of a run is byte-identical for any worker count, and a
// cell's result does not depend on which grid contains it (the basis
// of the content-addressed result cache). Long runs can stream
// completed cells to a checkpoint file and resume from it after
// interruption.
package batch

import (
	"fmt"
	"strconv"
	"strings"

	"gridseg/internal/dynamics/engines"
)

// Dynamics labels understood by the default runners.
const (
	Glauber  = "glauber"
	Kawasaki = "kawasaki"
	// Move is the relocation dynamic of vacancy scenarios: an unhappy
	// agent moves into a vacant site iff it would be happy there.
	// Grids sweeping it must give every cell a positive rho.
	Move = "move"
)

// Scenario-axis defaults (the paper's setting). Cells at these values
// keep their pre-scenario identities, seeds, and artifacts.
const (
	BoundaryTorus = "torus"
	BoundaryOpen  = "open"
	TauDistGlobal = "global"
)

// Grid declares a Cartesian product of simulation parameters. Empty
// dimensions collapse to a single default value, so callers only
// populate the axes they sweep. Extras is a free-form numeric axis
// (noise rate, discomfort cap, probe radius, ...) named by ExtraName.
type Grid struct {
	Ns         []int
	Ws         []int
	Taus       []float64
	Ps         []float64
	Extras     []float64
	ExtraName  string
	Dynamics   []string
	Replicates int
	// Scenario axes: lattice boundary conditions ("torus", "open"),
	// vacancy fractions in [0, 1), and per-site intolerance
	// distribution specs in topology.TauDist's canonical syntax
	// ("global", "mix:a,b:w", "uniform:lo:hi"). Empty axes collapse to
	// the paper's defaults.
	Boundaries []string
	Rhos       []float64
	TauDists   []string
	// Engine selects the simulation engine for every cell of the grid
	// (a label of internal/dynamics/engines; empty means auto). It is
	// not a sweep axis: engines are bit-identical, so sweeping them
	// would replicate every cell exactly — the engine never appears in
	// result rows or cell identities. The parallel engine keeps that
	// contract because the runners pin it to one strip.
	Engine string
	// Par is the worker count of the parallel engine (engine=parallel;
	// 0 means one per available CPU). Execution-only like Engine: the
	// runners pin the parallel engine to one strip inside sweeps, so
	// the worker count never changes a cell's bytes.
	Par int
	// Geometry opts the whole grid into the interface-geometry
	// observables (interface length, boundary curvature) as extra
	// columns after the standard schema. Like Engine it is grid-level,
	// not a sweep axis, and it never enters a cell's identity: the
	// column list — which the store keys and grid fingerprints already
	// include — is what distinguishes a geometry sweep from its plain
	// twin, whose artifacts stay byte-identical.
	Geometry bool
}

// Cell is one point of the expanded grid: a parameter combination plus
// a replicate number. Index is the cell's position in the canonical
// enumeration order; it orders results and artifacts but — unlike the
// parameters and Rep — plays no part in the cell's random stream or
// cache identity (see CellSeed).
type Cell struct {
	Index   int
	N       int
	W       int
	Tau     float64
	P       float64
	Extra   float64
	Dynamic string
	Rep     int
	// Scenario coordinates (normalized: never empty in expanded cells).
	Boundary string
	Rho      float64
	TauDist  string
	// Engine and Par are the grid-level engine selection, copied to
	// every cell for the runner's convenience. Never part of the cell
	// identity.
	Engine string
	Par    int
}

// normalized returns a copy with every empty axis collapsed to its
// default so enumeration is total.
func (g Grid) normalized() Grid {
	if len(g.Ns) == 0 {
		g.Ns = []int{0}
	}
	if len(g.Ws) == 0 {
		g.Ws = []int{0}
	}
	if len(g.Taus) == 0 {
		g.Taus = []float64{0}
	}
	if len(g.Ps) == 0 {
		g.Ps = []float64{0.5}
	}
	if len(g.Extras) == 0 {
		g.Extras = []float64{0}
	}
	if len(g.Dynamics) == 0 {
		g.Dynamics = []string{Glauber}
	}
	if len(g.Boundaries) == 0 {
		g.Boundaries = []string{BoundaryTorus}
	}
	if len(g.Rhos) == 0 {
		g.Rhos = []float64{0}
	}
	if len(g.TauDists) == 0 {
		g.TauDists = []string{TauDistGlobal}
	}
	if g.Replicates <= 0 {
		g.Replicates = 1
	}
	if g.Engine == "" {
		g.Engine = engines.Auto.String()
	}
	return g
}

// Size returns the number of cells in the expanded grid.
func (g Grid) Size() int {
	n := g.normalized()
	return len(n.Dynamics) * len(n.Ns) * len(n.Ws) * len(n.Taus) *
		len(n.Ps) * len(n.Boundaries) * len(n.Rhos) * len(n.TauDists) *
		len(n.Extras) * n.Replicates
}

// Cells expands the grid in canonical order: dynamics, n, w, tau, p,
// boundary, rho, taudist, extra, replicate (replicates innermost, so
// the replicates of one parameter combination are adjacent).
func (g Grid) Cells() []Cell {
	n := g.normalized()
	out := make([]Cell, 0, g.Size())
	idx := 0
	for _, dyn := range n.Dynamics {
		for _, nn := range n.Ns {
			for _, w := range n.Ws {
				for _, tau := range n.Taus {
					for _, p := range n.Ps {
						for _, b := range n.Boundaries {
							for _, rho := range n.Rhos {
								for _, td := range n.TauDists {
									for _, x := range n.Extras {
										for r := 0; r < n.Replicates; r++ {
											out = append(out, Cell{
												Index: idx, N: nn, W: w, Tau: tau, P: p,
												Boundary: b, Rho: rho, TauDist: td,
												Extra: x, Dynamic: dyn, Rep: r,
												Engine: n.Engine, Par: n.Par,
											})
											idx++
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// GroupKey identifies the parameter combination of a cell, ignoring
// the replicate number. Cells with equal GroupKeys are replicates of
// the same experiment point.
func (c Cell) GroupKey() string {
	return fmt.Sprintf("%s|%d|%d|%v|%v|%v|%s|%v|%s",
		c.Dynamic, c.N, c.W, c.Tau, c.P, c.Extra, c.Boundary, c.Rho, c.TauDist)
}

// DefaultScenario reports whether the given scenario coordinates sit
// at the scenario-axis defaults (the paper's setting: torus, full
// occupancy, global tau). Empty labels are synonymous with the
// defaults. It is the single string-level predicate shared by every
// layer that carries scenario coordinates as labels (cell identities,
// sweep runners, SSE events, the differential harness); the typed
// equivalent is topology.Scenario.IsDefault.
func DefaultScenario(boundary string, rho float64, taudist string) bool {
	return (boundary == "" || boundary == BoundaryTorus) &&
		rho == 0 &&
		(taudist == "" || taudist == TauDistGlobal)
}

// defaultScenario reports whether the cell sits at the scenario-axis
// defaults.
func (c Cell) defaultScenario() bool {
	return DefaultScenario(c.Boundary, c.Rho, c.TauDist)
}

// identity is the canonical parameter identity of a cell: everything
// that defines its result except the run seed and scope, and nothing
// positional (no Index) or execution-only (no Engine). It feeds the
// per-cell seed derivation (CellSeed), which is what lets overlapping
// grids share cached results.
//
// Scenario coordinates are appended only when they deviate from the
// paper's defaults: default cells keep their pre-scenario identity
// strings, hence their derived seeds, hence their exact result bytes —
// the introduction of the scenario subsystem never silently changed a
// published number.
func (c Cell) identity() string {
	id := fmt.Sprintf("dyn=%s;n=%d;w=%d;tau=%s;p=%s;x=%s;rep=%d",
		c.Dynamic, c.N, c.W,
		strconv.FormatFloat(c.Tau, 'g', -1, 64),
		strconv.FormatFloat(c.P, 'g', -1, 64),
		strconv.FormatFloat(c.Extra, 'g', -1, 64),
		c.Rep)
	if c.defaultScenario() {
		return id
	}
	b := c.Boundary
	if b == "" {
		b = BoundaryTorus
	}
	td := c.TauDist
	if td == "" {
		td = TauDistGlobal
	}
	return id + fmt.Sprintf(";b=%s;rho=%s;taudist=%s",
		b, strconv.FormatFloat(c.Rho, 'g', -1, 64), td)
}

// Fingerprint identifies a (grid, seed, scope, columns) combination;
// it guards checkpoint compatibility and names whole-grid runs (the
// HTTP service derives grid IDs from it). The engine is deliberately
// excluded: engines are bit-identical, so a checkpoint written under
// one engine is valid — cell for cell — under any other. The v3 prefix
// marks the scenario-axis schema (boundary, rho, taudist folded into
// the grid identity); v1 (index-derived seeds) and v2 (no scenario
// axes) checkpoints are incompatible and rejected.
func (g Grid) Fingerprint(seed uint64, scope string, columns []string) string {
	n := g.normalized()
	var b strings.Builder
	fmt.Fprintf(&b, "v3;seed=%d;scope=%s;reps=%d;extra=%s;", seed, scope, n.Replicates, n.ExtraName)
	ints := func(name string, vs []int) {
		b.WriteString(name)
		b.WriteByte('=')
		for _, v := range vs {
			b.WriteString(strconv.Itoa(v))
			b.WriteByte(',')
		}
		b.WriteByte(';')
	}
	floats := func(name string, vs []float64) {
		b.WriteString(name)
		b.WriteByte('=')
		for _, v := range vs {
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
			b.WriteByte(',')
		}
		b.WriteByte(';')
	}
	ints("n", n.Ns)
	ints("w", n.Ws)
	floats("tau", n.Taus)
	floats("p", n.Ps)
	floats("x", n.Extras)
	floats("rho", n.Rhos)
	b.WriteString("dyn=" + strings.Join(n.Dynamics, ",") + ";")
	b.WriteString("boundary=" + strings.Join(n.Boundaries, ",") + ";")
	b.WriteString("taudist=" + strings.Join(n.TauDists, "|") + ";")
	b.WriteString("cols=" + strings.Join(columns, ",") + ";")
	return b.String()
}

package sim

import (
	"fmt"

	"gridseg/internal/batch"
	"gridseg/internal/dynamics"
	"gridseg/internal/dynamics/engines"
	"gridseg/internal/grid"
	"gridseg/internal/measure"
	"gridseg/internal/report"
	"gridseg/internal/rng"
	"gridseg/internal/topology"
)

// E19-E21 exercise the topology subsystem: the scenario axes (open
// boundaries, vacancies, heterogeneous intolerance) that generalize
// the paper's torus/full-occupancy/global-tau setting toward the
// related work — Barmpalias, Elwes and Lewis-Pye's unperturbed
// Schelling segregation on open grids, and Stauffer and Solomon's
// vacancy-diluted, per-agent-tolerance lattices.
func init() {
	register(Experiment{
		ID:     "E19",
		Figure: "Topology: open vs torus boundary (BEL-P setting)",
		Title:  "Hard walls against the Fig. 1 workload: edge effects on segregation",
		Run:    runE19,
	})
	register(Experiment{
		ID:     "E20",
		Figure: "Topology: vacancy dilution (Stauffer-Solomon)",
		Title:  "Vacancy sweep under flip and relocation dynamics",
		Run:    runE20,
	})
	register(Experiment{
		ID:     "E21",
		Figure: "Topology: heterogeneous intolerance (quenched tau)",
		Title:  "Per-site intolerance mixtures across the critical window",
		Run:    runE21,
	})
}

// scenarioColumns is the shared metric vector of the topology
// experiments: scenario-aware observables plus the effective-event
// count.
var scenarioColumns = []string{"happyFrac", "ifaceDensity", "sameFrac", "largestFrac", "events"}

// runScenarioCell runs one scenario cell to fixation (or the attempt
// budget for the pair dynamics) and measures the scenario-aware
// observables. Every dynamic honors the context's engine selection on
// every scenario — the fast engine covers all axes and all three
// dynamics. Engines are bit-identical, so previously cached cells
// stay valid.
func runScenarioCell(c batch.Cell, src *rng.Source, engineLabel string) ([]float64, error) {
	open := c.Boundary == batch.BoundaryOpen
	dist, err := topology.ParseTauDist(c.TauDist)
	if err != nil {
		return nil, err
	}
	lat := grid.RandomScenario(c.N, c.P, c.Rho, src.Split(1))
	taus := dist.SampleField(lat.Sites(), c.Tau, src.Split(3))
	dsc := dynamics.Scenario{Open: open, Taus: taus}

	dyn := engines.Glauber
	switch c.Dynamic {
	case batch.Move:
		dyn = engines.Move
	case batch.Kawasaki:
		dyn = engines.Kawasaki
	}
	e, err := newEngine(dyn, engineLabel, lat, c.W, c.Tau, dsc, src.Split(2))
	if err != nil {
		return nil, err
	}
	budget := int64(20) * int64(lat.Sites())
	streak := int64(lat.Sites())
	var events int64
	switch {
	case e.Move != nil:
		events, _ = e.Move.Run(budget, streak)
	case e.Swap != nil:
		events, _ = e.Swap.Run(budget, streak)
	default:
		events, _ = e.Proc.Run(0)
	}
	unhappy := e.Proc.UnhappyCount()

	cl := measure.ClusterStatsView(lat, open)
	largest := cl.LargestPlus
	if cl.LargestMinus > largest {
		largest = cl.LargestMinus
	}
	agents := lat.CountOccupied()
	if agents == 0 {
		// A degenerate all-vacant draw (possible at tiny n and high
		// rho) is vacuously fully happy with nothing to measure —
		// mirroring the facade's HappyFraction guard, so one freak
		// replicate cannot abort a whole sweep.
		return []float64{1, 0, 0, 0, float64(events)}, nil
	}
	return []float64{
		1 - float64(unhappy)/float64(agents),
		measure.InterfaceDensityView(lat, open),
		measure.MeanSameFractionView(lat, c.W, open),
		float64(largest) / float64(lat.Sites()),
		float64(events),
	}, nil
}

// runE19 compares the torus against the open (hard-wall) grid at the
// Figure 1 working point. Open boundaries give edge agents truncated
// windows and lower thresholds, which seeds segregation from the
// walls; the interface density and mono-cluster mass quantify the
// difference.
func runE19(ctx *Context) ([]*report.Table, error) {
	n := pick(ctx, 48, 256)
	w := pick(ctx, 4, 10)
	reps := pick(ctx, 2, 8)
	res, err := ctx.run("E19", batch.Grid{
		Ns: []int{n}, Ws: []int{w},
		Taus:       []float64{0.40, 0.42, 0.44},
		Boundaries: []string{batch.BoundaryTorus, batch.BoundaryOpen},
		Replicates: reps,
	}, scenarioColumns, func(c batch.Cell, src *rng.Source) ([]float64, error) {
		return runScenarioCell(c, src, ctx.Engine)
	})
	if err != nil {
		return nil, err
	}
	return []*report.Table{res.SummaryTable(fmt.Sprintf(
		"E19: open vs torus boundary at n=%d w=%d (replicate means)", n, w))}, nil
}

// runE20 sweeps the vacancy fraction rho under the flip (Glauber) and
// relocation (Move) dynamics. Vacancies dilute neighborhoods and give
// unhappy agents an escape channel; the conserved Move dynamic trades
// flips for migrations, changing how much segregation fixates.
func runE20(ctx *Context) ([]*report.Table, error) {
	n := pick(ctx, 40, 128)
	w := 2
	reps := pick(ctx, 2, 8)
	res, err := ctx.run("E20", batch.Grid{
		Ns: []int{n}, Ws: []int{w},
		Taus:       []float64{0.42},
		Dynamics:   []string{batch.Glauber, batch.Move},
		Rhos:       []float64{0.05, 0.1, 0.2, 0.3},
		Replicates: reps,
	}, scenarioColumns, func(c batch.Cell, src *rng.Source) ([]float64, error) {
		return runScenarioCell(c, src, ctx.Engine)
	})
	if err != nil {
		return nil, err
	}
	return []*report.Table{res.SummaryTable(fmt.Sprintf(
		"E20: vacancy sweep at n=%d w=%d tau=0.42 (replicate means)", n, w))}, nil
}

// runE21 scans per-site intolerance mixtures bracketing the critical
// window: a fifty-fifty mix of tolerant and intolerant sites against
// the equivalent global tau, plus a uniform spread. Quenched disorder
// localizes segregation around the intolerant sites instead of
// shifting the whole lattice at once.
func runE21(ctx *Context) ([]*report.Table, error) {
	n := pick(ctx, 40, 128)
	w := 2
	reps := pick(ctx, 2, 8)
	res, err := ctx.run("E21", batch.Grid{
		Ns: []int{n}, Ws: []int{w},
		Taus: []float64{0.42},
		TauDists: []string{
			batch.TauDistGlobal,
			"mix:0.35,0.45:0.5",
			"mix:0.3,0.5:0.5",
			"uniform:0.35:0.5",
		},
		Replicates: reps,
	}, scenarioColumns, func(c batch.Cell, src *rng.Source) ([]float64, error) {
		return runScenarioCell(c, src, ctx.Engine)
	})
	if err != nil {
		return nil, err
	}
	return []*report.Table{res.SummaryTable(fmt.Sprintf(
		"E21: heterogeneous intolerance at n=%d w=%d (replicate means)", n, w))}, nil
}

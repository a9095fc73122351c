package sim

import (
	"fmt"
	"math"
	"path/filepath"

	"gridseg/internal/batch"
	"gridseg/internal/dynamics"
	"gridseg/internal/dynamics/engines"
	"gridseg/internal/geom"
	"gridseg/internal/grid"
	"gridseg/internal/measure"
	"gridseg/internal/report"
	"gridseg/internal/rng"
	"gridseg/internal/stats"
	"gridseg/internal/theory"
	"gridseg/internal/viz"
)

func init() {
	register(Experiment{
		ID:     "E1",
		Figure: "Fig. 1",
		Title:  "Self-segregation arising over time at tau = 0.42",
		Run:    runE1,
	})
	register(Experiment{
		ID:     "E7",
		Figure: "static regime (Sec. I.B)",
		Title:  "Static configurations for tau <= 1/4 and tau >= 3/4",
		Run:    runE7,
	})
	register(Experiment{
		ID:     "E8",
		Figure: "tau = 1/2 open case (Sec. V)",
		Title:  "Region sizes at tau = 1/2 versus inside the Theorem 1 interval",
		Run:    runE8,
	})
	register(Experiment{
		ID:     "E9",
		Figure: "complete segregation, p > p* (Fontes et al., Sec. V)",
		Title:  "Fraction of runs reaching a single-type grid at tau = 1/2 vs p",
		Run:    runE9,
	})
}

// runE1 reproduces the Fig. 1 workload: Glauber at tau = 0.42 on a
// 1000x1000 grid with horizon 10 (N = 441), snapshots at four stages.
// Quick mode shrinks to 200x200, w = 4.
func runE1(ctx *Context) ([]*report.Table, error) {
	n := pick(ctx, 200, 1000)
	w := pick(ctx, 4, 10)
	const tau, p = 0.42, 0.5
	src := ctx.src(1)

	// Pass 1: count total flips to fixation.
	ctx.log("E1: sizing pass n=%d w=%d", n, w)
	sized, err := glauberRun(n, w, tau, p, src, ctx.Engine)
	if err != nil {
		return nil, err
	}
	total := sized.Flips

	// Pass 2: identical run with snapshot capture at 0, 1/3, 2/3, 1.
	lat := grid.Random(n, p, src.Split(1))
	e, err := newEngine(engines.Glauber, ctx.Engine, lat, w, tau, dynamics.Scenario{}, src.Split(2))
	if err != nil {
		return nil, err
	}
	proc := e.Proc
	marks := []int64{0, total / 3, 2 * total / 3, total}
	t := report.NewTable(
		fmt.Sprintf("Fig. 1 evolution: n=%d w=%d N=%d tau=%.2f (total flips %d)", n, w, proc.NeighborhoodSize(), proc.Tau(), total),
		"stage", "flips", "time", "happy frac", "interface density", "largest cluster frac", "mean |M| sample")
	var done int64
	for stage, mark := range marks {
		for done < mark {
			if _, ok := proc.Step(); !ok {
				break
			}
			done++
		}
		radii := measure.CenteredRadii(lat)
		var sizes []float64
		for _, pt := range samplePoints(lat.N(), 5) {
			sizes = append(sizes, float64(measure.MonoRegionSize(lat, radii, pt)))
		}
		cl := measure.ClusterStatsView(lat, false)
		largest := cl.LargestPlus
		if cl.LargestMinus > largest {
			largest = cl.LargestMinus
		}
		t.AddRow(
			fmt.Sprintf("%d/3", stage),
			report.I64(done),
			report.F3(proc.Time()),
			report.F3(proc.HappyFraction()),
			report.F3(measure.InterfaceDensityView(lat, false)),
			report.F3(float64(largest)/float64(lat.Sites())),
			report.F(stats.Mean(sizes)),
		)
		if ctx.OutDir != "" {
			path := filepath.Join(ctx.OutDir, fmt.Sprintf("fig1_stage%d.png", stage))
			if err := viz.SavePNG(path, lat, w, proc.Threshold(), 1); err != nil {
				return nil, err
			}
			ctx.log("wrote %s", path)
		}
	}
	if !proc.Fixated() {
		return nil, fmt.Errorf("sim: E1 replay did not fixate (flips %d of %d)", done, total)
	}
	return []*report.Table{t}, nil
}

// samplePoints returns the shared deterministic spread of probe agents
// (see measure.SamplePoints).
func samplePoints(n, k int) []geom.Point { return measure.SamplePoints(n, k) }

// runE7 verifies the static regimes cited in Section I.B: for tau <= 1/4
// (and by symmetry tau >= 3/4) the initial configuration is w.h.p.
// static — flips per site ~ 0.
func runE7(ctx *Context) ([]*report.Table, error) {
	n := pick(ctx, 80, 200)
	w := pick(ctx, 2, 4)
	reps := pick(ctx, 3, 10)
	taus := []float64{0.15, 0.22, 0.45, 0.80}

	res, err := ctx.run("E7", batch.Grid{
		Ns: []int{n}, Ws: []int{w}, Taus: taus, Replicates: reps,
	}, []string{"flipsPerSite", "happy0"}, func(c batch.Cell, src *rng.Source) ([]float64, error) {
		run, err := glauberRun(c.N, c.W, c.Tau, 0.5, src, c.Engine)
		if err != nil {
			return []float64{math.NaN(), math.NaN()}, nil
		}
		initialHappy := measure.HappyFraction(grid.Random(c.N, 0.5, src.Split(1)), c.W, run.Proc.Threshold())
		return []float64{float64(run.Flips) / float64(c.N*c.N), initialHappy}, nil
	})
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("Static regimes: n=%d w=%d reps=%d (flips per site at fixation)", n, w, reps),
		"tau", "regime (theory)", "mean flips/site", "mean happy frac t=0")
	for _, g := range res.Groups() {
		t.AddRow(report.F(g.Cell.Tau), classify(g.Cell.Tau), report.F(g.Mean[0]), report.F3(g.Mean[1]))
	}
	return []*report.Table{t}, nil
}

func classify(tau float64) string {
	return theory.Classify(tau).String()
}

// runE8 contrasts the open tau = 1/2 point with the Theorem 1 interval.
// The paper proves exponential regions for tau in (tau1, 1/2) and leaves
// tau = 1/2 open on the 2-D grid (Sec. V); in 1-D the 1/2 point is
// polynomial while the interval is exponential. This experiment reports
// both points at equal N without asserting an ordering: empirically the
// tau = 1/2 majority rule coarsens into *larger* domains (zero-T Ising
// coarsening), which is consistent with the problem being open.
func runE8(ctx *Context) ([]*report.Table, error) {
	n := pick(ctx, 100, 250)
	w := pick(ctx, 2, 3)
	reps := pick(ctx, 4, 12)
	taus := []float64{0.46, 0.5}

	res, err := ctx.run("E8", batch.Grid{
		Ns: []int{n}, Ws: []int{w}, Taus: taus, Replicates: reps,
	}, []string{"meanM", "largestFrac", "effTau"}, func(c batch.Cell, src *rng.Source) ([]float64, error) {
		run, err := glauberRun(c.N, c.W, c.Tau, 0.5, src, c.Engine)
		if err != nil {
			return []float64{math.NaN(), math.NaN(), math.NaN()}, nil
		}
		radii := measure.CenteredRadii(run.Lat)
		var sizes []float64
		for _, pt := range samplePoints(c.N, 5) {
			sizes = append(sizes, float64(measure.MonoRegionSize(run.Lat, radii, pt)))
		}
		cl := measure.ClusterStatsView(run.Lat, false)
		largest := cl.LargestPlus
		if cl.LargestMinus > largest {
			largest = cl.LargestMinus
		}
		return []float64{stats.Mean(sizes), float64(largest) / float64(c.N*c.N), run.Proc.Tau()}, nil
	})
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("tau = 1/2 vs Theorem 1 interval: n=%d w=%d reps=%d", n, w, reps),
		"tau", "effective tau", "mean M", "mean largest cluster frac")
	for _, g := range res.Groups() {
		t.AddRow(report.F(g.Cell.Tau), report.F(g.Mean[2]), report.F(g.Mean[0]), report.F3(g.Mean[1]))
	}
	return []*report.Table{t}, nil
}

// runE9 sweeps the initial density p at tau = 1/2 and reports how often
// the fixed point is a single-type grid — the Fontes et al. complete
// segregation regime for p > p*, contrasted with p = 1/2 where the
// paper's exponential upper bound forbids it w.h.p.
func runE9(ctx *Context) ([]*report.Table, error) {
	n := pick(ctx, 48, 96)
	w := pick(ctx, 2, 2)
	reps := pick(ctx, 6, 20)
	ps := []float64{0.5, 0.6, 0.7, 0.8, 0.9}

	res, err := ctx.run("E9", batch.Grid{
		Ns: []int{n}, Ws: []int{w}, Taus: []float64{0.5}, Ps: ps, Replicates: reps,
	}, []string{"complete", "absMag"}, func(c batch.Cell, src *rng.Source) ([]float64, error) {
		run, err := glauberRun(c.N, c.W, c.Tau, c.P, src, c.Engine)
		if err != nil {
			return []float64{math.NaN(), math.NaN()}, nil
		}
		plus := run.Lat.CountPlus()
		complete := 0.0
		if plus == 0 || plus == run.Lat.Sites() {
			complete = 1
		}
		m := math.Abs(float64(2*plus-run.Lat.Sites()) / float64(run.Lat.Sites()))
		return []float64{complete, m}, nil
	})
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("Complete segregation at tau=1/2: n=%d w=%d reps=%d", n, w, reps),
		"p", "frac complete", "mean |magnetization|")
	for _, g := range res.Groups() {
		t.AddRow(report.F(g.Cell.P), report.F3(g.Mean[0]), report.F3(g.Mean[1]))
	}
	return []*report.Table{t}, nil
}

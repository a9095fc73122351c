package sim

import (
	"fmt"
	"math"

	"gridseg/internal/batch"
	"gridseg/internal/dynamics"
	"gridseg/internal/grid"
	"gridseg/internal/measure"
	"gridseg/internal/report"
	"gridseg/internal/rng"
)

// E15-E17 implement the variations the paper proposes as future work:
// both-sided discomfort and the initial-density question (Section V),
// and the noisy-agent variant (Section I.A).
func init() {
	register(Experiment{
		ID:     "E15",
		Figure: "Sec. V variation (both-sided discomfort)",
		Title:  "Upper intolerance caps segregation",
		Run:    runE15,
	})
	register(Experiment{
		ID:     "E16",
		Figure: "Sec. V question (initial density p)",
		Title:  "Initial density sweep inside the Theorem 1 interval",
		Run:    runE16,
	})
	register(Experiment{
		ID:     "E17",
		Figure: "Sec. I.A variation (noisy agents)",
		Title:  "Segregation robustness under rule-violating noise",
		Run:    runE17,
	})
}

// variantColumns is the shared metric vector of the variant runs.
var variantColumns = []string{"happyFrac", "ifaceDensity", "sameFrac", "largestFrac"}

// runVariantCell runs a variant to a budget and summarizes the final
// configuration as the variantColumns metric vector (NaNs on error).
func runVariantCell(n, w int, opts dynamics.VariantOptions, budget int64, src *rng.Source) []float64 {
	nan := []float64{math.NaN(), math.NaN(), math.NaN(), math.NaN()}
	lat := grid.Random(n, 0.5, src.Split(1))
	v, err := dynamics.NewVariant(lat, w, opts, src.Split(2))
	if err != nil {
		return nan
	}
	if _, _, err := v.Run(budget); err != nil {
		return nan
	}
	cl := measure.ClusterStatsView(lat, false)
	largest := cl.LargestPlus
	if cl.LargestMinus > largest {
		largest = cl.LargestMinus
	}
	return []float64{
		1 - float64(v.UnhappyCount())/float64(lat.Sites()),
		measure.InterfaceDensityView(lat, false),
		measure.MeanSameFractionView(lat, w, false),
		float64(largest) / float64(lat.Sites()),
	}
}

// runE15 sweeps the upper discomfort threshold: agents unhappy both as
// extreme minorities and as saturated majorities. Lower upper
// thresholds must cap cluster growth.
func runE15(ctx *Context) ([]*report.Table, error) {
	n := pick(ctx, 64, 128)
	w := 2
	tau := 0.45
	reps := pick(ctx, 3, 8)
	budget := int64(n) * int64(n) * 5
	uppers := []float64{1.0, 0.9, 0.8, 0.7}

	res, err := ctx.run("E15", batch.Grid{
		Ns: []int{n}, Ws: []int{w}, Taus: []float64{tau},
		Extras: uppers, ExtraName: "upper", Replicates: reps,
	}, variantColumns, func(c batch.Cell, src *rng.Source) ([]float64, error) {
		opts := dynamics.VariantOptions{
			TauPlus: c.Tau, TauMinus: c.Tau,
			UpperPlus: c.Extra, UpperMinus: c.Extra,
		}
		return runVariantCell(c.N, c.W, opts, budget, src), nil
	})
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("Both-sided discomfort: n=%d w=%d tau=%.2f budget=%d reps=%d", n, w, tau, budget, reps),
		"upper", "happy frac", "interface density", "mean same frac", "largest cluster frac")
	for _, g := range res.Groups() {
		t.AddRow(report.F(g.Cell.Extra), report.F3(g.Mean[0]), report.F3(g.Mean[1]),
			report.F3(g.Mean[2]), report.F3(g.Mean[3]))
	}
	return []*report.Table{t}, nil
}

// runE16 addresses the Section V question of how the initial density p
// influences segregation inside the Theorem 1 interval: as p grows the
// minority's largest surviving cluster collapses and takeovers appear.
func runE16(ctx *Context) ([]*report.Table, error) {
	n := pick(ctx, 64, 160)
	w := 2
	tau := 0.45
	reps := pick(ctx, 4, 10)
	ps := []float64{0.5, 0.55, 0.6, 0.7, 0.8}

	res, err := ctx.run("E16", batch.Grid{
		Ns: []int{n}, Ws: []int{w}, Taus: []float64{tau}, Ps: ps, Replicates: reps,
	}, []string{"absMag", "minorityFrac", "complete"}, func(c batch.Cell, src *rng.Source) ([]float64, error) {
		run, err := glauberRun(c.N, c.W, c.Tau, c.P, src, c.Engine)
		if err != nil {
			return []float64{math.NaN(), math.NaN(), math.NaN()}, nil
		}
		sites := run.Lat.Sites()
		plus := run.Lat.CountPlus()
		mag := math.Abs(float64(2*plus-sites)) / float64(sites)
		cl := measure.ClusterStatsView(run.Lat, false)
		minority := cl.LargestMinus
		if plus < sites-plus {
			minority = cl.LargestPlus
		}
		complete := 0.0
		if plus == 0 || plus == sites {
			complete = 1
		}
		return []float64{mag, float64(minority) / float64(sites), complete}, nil
	})
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("Initial density sweep at tau=%.2f: n=%d w=%d reps=%d", tau, n, w, reps),
		"p", "final |magnetization|", "minority cluster frac", "frac complete")
	for _, g := range res.Groups() {
		t.AddRow(report.F(g.Cell.P), report.F3(g.Mean[0]), report.F3(g.Mean[1]), report.F3(g.Mean[2]))
	}
	return []*report.Table{t}, nil
}

// runE17 sweeps the noise rate: with small noise the segregated
// structure persists (interface density stays low); with large noise
// the rule signal is drowned and the configuration stays disordered.
func runE17(ctx *Context) ([]*report.Table, error) {
	n := pick(ctx, 64, 128)
	w := 2
	tau := 0.45
	reps := pick(ctx, 3, 8)
	budget := int64(n) * int64(n) * 5
	noises := []float64{0, 0.01, 0.05, 0.2}

	res, err := ctx.run("E17", batch.Grid{
		Ns: []int{n}, Ws: []int{w}, Taus: []float64{tau},
		Extras: noises, ExtraName: "noise", Replicates: reps,
	}, variantColumns, func(c batch.Cell, src *rng.Source) ([]float64, error) {
		opts := dynamics.VariantOptions{TauPlus: c.Tau, TauMinus: c.Tau, Noise: c.Extra}
		return runVariantCell(c.N, c.W, opts, budget, src), nil
	})
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("Noisy agents: n=%d w=%d tau=%.2f budget=%d reps=%d", n, w, tau, budget, reps),
		"noise", "interface density", "mean same frac", "largest cluster frac")
	for _, g := range res.Groups() {
		t.AddRow(report.F(g.Cell.Extra), report.F3(g.Mean[1]),
			report.F3(g.Mean[2]), report.F3(g.Mean[3]))
	}
	return []*report.Table{t}, nil
}

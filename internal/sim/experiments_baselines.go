package sim

import (
	"fmt"
	"math"

	"gridseg/internal/batch"
	"gridseg/internal/dynamics"
	"gridseg/internal/dynamics/engines"
	"gridseg/internal/grid"
	"gridseg/internal/measure"
	"gridseg/internal/report"
	"gridseg/internal/ring"
	"gridseg/internal/rng"
)

func init() {
	register(Experiment{
		ID:     "E13",
		Figure: "1-D baselines (Sec. I.B)",
		Title:  "Ring Glauber/Kawasaki run lengths vs horizon",
		Run:    runE13,
	})
	register(Experiment{
		ID:     "E14",
		Figure: "Glauber vs Kawasaki model classes (Sec. I.A)",
		Title:  "Open vs closed dynamics from a common initial configuration",
		Run:    runE14,
	})
}

// runE13 reproduces the 1-D picture the paper builds on: at tau inside
// (~0.35, 1/2) mean run lengths at fixation grow quickly with the
// horizon, while at tau = 1/2 the growth is polynomial (Brandt et al.)
// and in the static regime nothing moves.
func runE13(ctx *Context) ([]*report.Table, error) {
	n := pick(ctx, 2000, 20000)
	ws := pick(ctx, []int{2, 4, 6}, []int{2, 4, 6, 8, 12})
	reps := pick(ctx, 3, 8)
	taus := []float64{0.2, 0.45, 0.5}

	res, err := ctx.run("E13", batch.Grid{
		Ns: []int{n}, Ws: ws, Taus: taus, Replicates: reps,
	}, []string{"meanRun", "longestRun", "flipsPerSite"}, func(c batch.Cell, src *rng.Source) ([]float64, error) {
		p, err := ring.NewRandom(c.N, c.W, c.Tau, 0.5, src)
		if err != nil {
			return []float64{math.NaN(), math.NaN(), math.NaN()}, nil
		}
		p.Run(0)
		spins := p.Spins()
		return []float64{
			ring.MeanRunLength(spins),
			float64(ring.LongestRun(spins)),
			float64(p.Flips()) / float64(c.N),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("Ring Glauber run lengths at fixation: n=%d reps=%d", n, reps),
		"tau", "w", "N", "mean run len", "longest run", "flips/site")
	for _, g := range res.Groups() {
		t.AddRow(report.F(g.Cell.Tau), report.I(g.Cell.W), report.I(2*g.Cell.W+1),
			report.F(g.Mean[0]), report.F(g.Mean[1]), report.F3(g.Mean[2]))
	}

	// Kawasaki ring baseline at a single representative setting.
	kw := pick(ctx, 4, 8)
	const ktau = 0.45
	kres, err := ctx.run("E13-kawasaki", batch.Grid{
		Ns: []int{n}, Ws: []int{kw}, Taus: []float64{ktau},
	}, []string{"runLenBefore", "runLenAfter", "swaps"}, func(c batch.Cell, src *rng.Source) ([]float64, error) {
		kp, err := ring.NewKawasaki(c.N, c.W, c.Tau, 0.5, src)
		if err != nil {
			return nil, err
		}
		before := ring.MeanRunLength(kp.Process().Spins())
		kp.Run(int64(c.N)*50, int64(c.N))
		after := ring.MeanRunLength(kp.Process().Spins())
		return []float64{before, after, float64(kp.Swaps())}, nil
	})
	if err != nil {
		return nil, err
	}
	k := report.NewTable("Ring Kawasaki baseline (Brandt et al. model)",
		"tau", "w", "mean run len before", "mean run len after", "swaps")
	_, kv := kres.At(0)
	k.AddRow(report.F(ktau), report.I(kw), report.F(kv[0]), report.F(kv[1]), report.I64(int64(kv[2])))
	return []*report.Table{t, k}, nil
}

// runE14 contrasts the open (Glauber) and closed (Kawasaki) dynamics
// from identical initial configurations: each cell draws one starting
// lattice and runs both dynamics on clones of it.
func runE14(ctx *Context) ([]*report.Table, error) {
	n := pick(ctx, 80, 160)
	w := 2
	tau := 0.45
	reps := pick(ctx, 3, 8)

	type half struct{ happy, iface, largest, drift float64 }
	summarize := func(lat *grid.Lattice, happy float64, plus0 int) half {
		cl := measure.ClusterStatsView(lat, false)
		largest := cl.LargestPlus
		if cl.LargestMinus > largest {
			largest = cl.LargestMinus
		}
		return half{
			happy:   happy,
			iface:   measure.InterfaceDensityView(lat, false),
			largest: float64(largest) / float64(lat.Sites()),
			drift:   math.Abs(float64(lat.CountPlus()-plus0)) / float64(lat.Sites()),
		}
	}

	res, err := ctx.run("E14", batch.Grid{
		Ns: []int{n}, Ws: []int{w}, Taus: []float64{tau}, Replicates: reps,
	}, []string{
		"gHappy", "gIface", "gLargest", "gDrift",
		"kHappy", "kIface", "kLargest", "kDrift",
	}, func(c batch.Cell, src *rng.Source) ([]float64, error) {
		initial := grid.Random(c.N, 0.5, src.Split(1))
		plus0 := initial.CountPlus()

		glat := initial.Clone()
		gp, err := newEngine(engines.Glauber, ctx.Engine, glat, c.W, c.Tau, dynamics.Scenario{}, src.Split(2))
		if err != nil {
			return nil, err
		}
		gp.Proc.Run(0)
		g := summarize(glat, gp.Proc.HappyFraction(), plus0)

		klat := initial.Clone()
		kp, err := newEngine(engines.Kawasaki, ctx.Engine, klat, c.W, c.Tau, dynamics.Scenario{}, src.Split(3))
		if err != nil {
			return nil, err
		}
		kp.Swap.Run(int64(c.N)*int64(c.N)*20, int64(c.N)*int64(c.N))
		k := summarize(klat, kp.Proc.HappyFraction(), plus0)

		return []float64{
			g.happy, g.iface, g.largest, g.drift,
			k.happy, k.iface, k.largest, k.drift,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	t := report.NewTable(
		fmt.Sprintf("Glauber vs Kawasaki from a common start: n=%d w=%d tau=%.2f", n, w, tau),
		"replicate", "dynamic", "happy frac", "interface density", "largest cluster frac", "magnetization drift")
	for i := 0; i < res.Len(); i++ {
		c, v := res.At(i)
		t.AddRow(report.I(c.Rep), "glauber", report.F3(v[0]), report.F3(v[1]), report.F3(v[2]), report.F3(v[3]))
		t.AddRow(report.I(c.Rep), "kawasaki", report.F3(v[4]), report.F3(v[5]), report.F3(v[6]), report.F3(v[7]))
	}
	return []*report.Table{t}, nil
}

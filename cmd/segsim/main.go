// Command segsim runs a single segregation simulation and reports its
// evolution — the workload of the paper's Figure 1. With -png it writes
// snapshot images in the Figure 1 palette (green/blue happy agents,
// white/yellow unhappy agents, grey vacancies).
//
// Reproduce Figure 1 exactly:
//
//	segsim -n 1000 -w 10 -tau 0.42 -snapshots 4 -png out/
//
// Beyond the paper's setting, the scenario flags select hard-wall
// boundaries, vacancy dilution, and heterogeneous intolerance. The
// relocation dynamic (-mode move) needs vacancies to relocate into;
// it runs on the fast engine like the others, and -samplers exposes
// its unhappy/vacant candidate-sampler sizes at each stage:
//
//	segsim -n 200 -w 4 -tau 0.42 -boundary open
//	segsim -n 200 -w 4 -tau 0.42 -rho 0.1 -mode move -samplers
//	segsim -n 200 -w 4 -tau 0.42 -taudist mix:0.35,0.45:0.5
//
// Giant single runs can use the domain-decomposed parallel engine:
// -par sets the worker count (a pure execution detail — any count
// replays the same trajectory), -strips the strip decomposition (0
// picks the machine-independent automatic count; the strip count is
// part of the trajectory definition):
//
//	segsim -n 4096 -w 1 -tau 0.45 -engine parallel -par 8
//
// -tile coarse-grains each stage through the tiled giant-grid layout
// (internal/fastgrid.Tiled) at the given tile side, classifying tiles
// by their majority type — a block-level segregation diagnostic:
//
//	segsim -n 512 -w 4 -tau 0.42 -tile 64
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"gridseg"
	"gridseg/internal/dynamics/engines"
	"gridseg/internal/fastgrid"
)

// config holds the parsed command-line options.
type config struct {
	n, w      int
	tau, p    float64
	seed      uint64
	mode      string
	boundary  string
	rho       float64
	taudist   string
	engine    string
	par       int
	strips    int
	snapshots int
	pngDir    string
	ascii     bool
	samplers  bool
	tile      int
	maxEvents int64
}

// newFlagSet declares the command's flags; main parses it, and the
// usage test pins it against the README documentation.
func newFlagSet() (*flag.FlagSet, *config) {
	c := &config{}
	fs := flag.NewFlagSet("segsim", flag.ExitOnError)
	fs.IntVar(&c.n, "n", 200, "torus side length")
	fs.IntVar(&c.w, "w", 4, "horizon (neighborhood radius)")
	fs.Float64Var(&c.tau, "tau", 0.42, "intolerance in [0,1]")
	fs.Float64Var(&c.p, "p", 0.5, "initial Bernoulli parameter")
	fs.Uint64Var(&c.seed, "seed", 1, "random seed")
	fs.StringVar(&c.mode, "mode", "glauber", "dynamic: glauber, kawasaki, or move (move needs -rho > 0)")
	fs.StringVar(&c.boundary, "boundary", "torus", "lattice boundary: torus (wrap-around) or open (hard walls, truncated edge neighborhoods)")
	fs.Float64Var(&c.rho, "rho", 0, "vacancy fraction in [0,1): each site is empty with this probability")
	fs.StringVar(&c.taudist, "taudist", "global", "per-site intolerance distribution: global, mix:a,b:w, or uniform:lo:hi")
	fs.StringVar(&c.engine, "engine", "auto", "simulation engine: "+engines.Labels()+"; the sequential engines are bit-identical, and parallel with more than one strip runs its own reproducible trajectory")
	fs.IntVar(&c.par, "par", 0, "parallel engine worker count (0 = one per CPU); a pure execution detail, any count replays the same trajectory")
	fs.IntVar(&c.strips, "strips", 0, "parallel engine strip count (0 = auto, 1 = the sequential fast engine); the strip count is part of the trajectory definition")
	fs.IntVar(&c.snapshots, "snapshots", 4, "number of reporting stages (>= 2)")
	fs.StringVar(&c.pngDir, "png", "", "directory for snapshot PNGs (optional)")
	fs.BoolVar(&c.ascii, "ascii", false, "print an ASCII snapshot at each stage (small grids)")
	fs.BoolVar(&c.samplers, "samplers", false, "print the dynamic's candidate-sampler sizes at each stage (flippable agents; unhappy per type; unhappy/vacant)")
	fs.IntVar(&c.tile, "tile", 0, "coarse-grain each stage into tiles of this side (positive multiple of 64; 0 = off) and report the majority-type tile counts")
	fs.Int64Var(&c.maxEvents, "max-events", 0, "event budget (0 = run to fixation)")
	return fs, c
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("segsim: ")

	fs, opts := newFlagSet()
	_ = fs.Parse(os.Args[1:])

	dyn := gridseg.Glauber
	switch opts.mode {
	case "glauber":
	case "kawasaki":
		dyn = gridseg.Kawasaki
	case "move":
		dyn = gridseg.Move
	default:
		log.Fatalf("unknown -mode %q (want glauber, kawasaki, or move)", opts.mode)
	}
	boundary, err := gridseg.ParseBoundary(opts.boundary)
	if err != nil {
		log.Fatal(err)
	}
	engine, err := gridseg.ParseEngine(opts.engine)
	if err != nil {
		log.Fatal(err)
	}
	if opts.snapshots < 2 {
		opts.snapshots = 2
	}

	cfg := gridseg.Config{
		N: opts.n, W: opts.w, Tau: opts.tau, P: opts.p, Seed: opts.seed, Dynamic: dyn,
		Boundary: boundary, Rho: opts.rho, TauDist: opts.taudist, Engine: engine,
		Par: opts.par, ParStrips: opts.strips,
	}

	// Sizing pass: learn the total number of events to fixation so the
	// reporting stages are evenly spaced.
	sizing, err := gridseg.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	total, _ := sizing.Run(opts.maxEvents)

	m, err := gridseg.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("segsim: n=%d w=%d N=%d tau=%g (threshold %d/%d) p=%g seed=%d mode=%s %s total-events=%d\n",
		opts.n, opts.w, m.NeighborhoodSize(), m.EffectiveTau(), m.Threshold(), m.NeighborhoodSize(), opts.p, opts.seed, opts.mode, m.Scenario(), total)

	// The parallel Glauber engine batches whole phase cycles into one
	// Step, so stage progress tracks its exact flip counter instead of
	// counting Step calls.
	batched := dyn == gridseg.Glauber && m.Engine() == gridseg.EngineParallel
	var done int64
	for stage := 0; stage < opts.snapshots; stage++ {
		target := total * int64(stage) / int64(opts.snapshots-1)
		for done < target {
			if !m.Step() {
				break
			}
			if batched {
				done = m.Flips()
			} else {
				done++
			}
		}
		st := m.SegregationStats()
		fmt.Printf("stage %d/%d  events=%-10d %s\n", stage, opts.snapshots-1, done, st)
		if opts.samplers {
			fmt.Printf("  samplers: %s\n", m.SamplerSizes())
		}
		if opts.tile > 0 {
			fmt.Printf("  %s\n", tileSummary(m, opts.tile))
		}
		if opts.ascii {
			fmt.Println(m.ASCII())
		}
		if opts.pngDir != "" {
			if err := os.MkdirAll(opts.pngDir, 0o755); err != nil {
				log.Fatal(err)
			}
			path := filepath.Join(opts.pngDir, fmt.Sprintf("stage%02d.png", stage))
			f, err := os.Create(path)
			if err != nil {
				log.Fatal(err)
			}
			if err := m.WritePNG(f, 1); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  wrote %s\n", path)
		}
	}
	if m.Fixated() {
		fmt.Println("fixated: no admissible move remains")
	}
}

// tileSummary coarse-grains the current configuration through the
// tiled layout and classifies each tile by its majority type: plus- or
// minus-dominated when that type holds over 90% of the tile's agents,
// mixed otherwise (empty tiles count as mixed). Dominated-tile counts
// rise as segregation domains outgrow the tile side.
func tileSummary(m *gridseg.Model, ts int) string {
	t, err := fastgrid.TiledFromView(m.View(), ts)
	if err != nil {
		log.Fatal(err)
	}
	plus, occ := t.TileCounts()
	var plusDom, minusDom, mixed int
	for i, p := range plus {
		switch o := occ[i]; {
		case o > 0 && float64(p)/float64(o) >= 0.9:
			plusDom++
		case o > 0 && float64(p)/float64(o) <= 0.1:
			minusDom++
		default:
			mixed++
		}
	}
	return fmt.Sprintf("tiles %dx%d side=%d: plus-dom=%d minus-dom=%d mixed=%d",
		t.Tiles(), t.Tiles(), t.TileSide(), plusDom, minusDom, mixed)
}

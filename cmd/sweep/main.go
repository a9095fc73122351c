// Command sweep runs reproduction experiments and parameter-grid
// scans. See README.md for the experiment index and the grid syntax.
//
// Registry mode runs experiments E1..E18 from the reproduction
// registry; each regenerates one figure of the paper or validates one
// theorem's shape:
//
//	sweep -list
//	sweep -exp E2,E3,E4
//	sweep -exp all -full -out artifacts/
//
// Grid mode runs an arbitrary (n, w, tau, p, dynamic, replicates)
// parameter grid — optionally crossed with the scenario axes boundary
// (torus|open), rho (vacancy fraction), and taudist (per-site
// intolerance distribution) — through the batch engine and writes
// CSV/JSON artifacts; results are byte-identical for any -workers
// setting, and -cache lets long full-scale scans resume after
// interruption (rerun the same command: stored cells are not
// recomputed):
//
//	sweep -grid "n=96,240 w=2:4 tau=0.40:0.48:0.02 reps=8" -out artifacts/ -workers 8
//	sweep -grid "n=240 w=4 tau=0.45 dyn=glauber,kawasaki reps=16" -cache store/
//	sweep -grid "n=128 w=2 tau=0.42 boundary=torus,open rho=0:0.2:0.05 reps=8" -cache store/
//	sweep -grid "n=128 w=2 tau=0.42 dyn=move rho=0.1 taudist=mix:0.35,0.45:0.5 reps=8"
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"gridseg"
	"gridseg/internal/dynamics/engines"
)

// config holds the parsed command-line options.
type config struct {
	exp     string
	grid    string
	list    bool
	full    bool
	seed    uint64
	out     string
	workers int
	engine  string
	cache   string
	verbose bool
}

// newFlagSet declares the command's flags; main parses it, and the
// usage test pins it against the README documentation.
func newFlagSet() (*flag.FlagSet, *config) {
	c := &config{}
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	fs.StringVar(&c.exp, "exp", "", "comma-separated experiment IDs, or 'all'")
	fs.StringVar(&c.grid, "grid", "", `parameter grid spec, e.g. "n=96,240 w=2:4 tau=0.40:0.48:0.02 reps=8"; scenario axes: boundary=torus,open rho=0:0.2:0.05 taudist=global|mix:0.35,0.45:0.5`)
	fs.BoolVar(&c.list, "list", false, "list registered experiments")
	fs.BoolVar(&c.full, "full", false, "paper-scale parameters (slower)")
	fs.Uint64Var(&c.seed, "seed", 1, "random seed")
	fs.StringVar(&c.out, "out", "", "artifact directory (PNG, CSV, JSON); created if missing")
	fs.IntVar(&c.workers, "workers", 0, "worker pool size (0 = GOMAXPROCS); never affects results")
	fs.StringVar(&c.engine, "engine", "auto", "engine: "+engines.Labels()+"; never affects results, only speed")
	fs.StringVar(&c.cache, "cache", "", "content-addressed result store directory; cached cells are served without recomputation (shared with cmd/segd)")
	fs.BoolVar(&c.verbose, "v", false, "progress logging")
	return fs, c
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")

	fs, cfg := newFlagSet()
	_ = fs.Parse(os.Args[1:])

	engine, err := gridseg.ParseEngine(cfg.engine)
	if err != nil {
		log.Fatal(err)
	}

	// Create the artifact directory up front (including parents), so a
	// long scan never fails at write time over a missing directory.
	if cfg.out != "" {
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	var cacheStore gridseg.CellStore
	if cfg.cache != "" {
		cacheStore, err = gridseg.OpenStore(cfg.cache)
		if err != nil {
			log.Fatal(err)
		}
	}

	if cfg.grid != "" {
		runGrid(cfg.grid, cfg.seed, cfg.workers, engine, cfg.out, cacheStore, cfg.verbose)
		return
	}

	infos := gridseg.Experiments()
	if cfg.list || cfg.exp == "" {
		fmt.Println("registered experiments:")
		for _, e := range infos {
			fmt.Printf("  %-4s %-45s %s\n", e.ID, e.Figure, e.Title)
		}
		if cfg.exp == "" {
			fmt.Println("\nrun with -exp <ID>[,<ID>...], -exp all, or -grid \"<spec>\"")
		}
		return
	}

	var ids []string
	if cfg.exp == "all" {
		for _, e := range infos {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(cfg.exp, ",")
	}

	opt := gridseg.ExperimentOptions{Full: cfg.full, Seed: cfg.seed, OutDir: cfg.out, Workers: cfg.workers, Engine: engine, Store: cacheStore}
	if cfg.verbose {
		opt.Logf = func(format string, args ...interface{}) {
			log.Printf(format, args...)
		}
	}
	for _, id := range ids {
		text, err := gridseg.RunExperiment(strings.TrimSpace(id), opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(text)
	}
}

// runGrid executes a parameter-grid scan and writes its artifacts.
func runGrid(spec string, seed uint64, workers int, engine gridseg.Engine, out string, cache gridseg.CellStore, verbose bool) {
	opt := gridseg.GridOptions{Seed: seed, Workers: workers, Engine: engine, Store: cache}
	if verbose {
		opt.Progress = func(done, total int) {
			log.Printf("grid: %d/%d cells", done, total)
		}
	}
	res, err := gridseg.RunGrid(spec, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Text())
	cs := res.Cache()
	log.Printf("grid: %d cells (%d cached, %d computed)", res.Len(), cs.Hits, cs.Misses)
	if cs.Err != "" {
		log.Printf("warning: result store disabled mid-run: %s (results are complete; affected cells were not cached)", cs.Err)
	}
	if out == "" {
		return
	}
	csvPath := filepath.Join(out, "grid.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := res.WriteCSV(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	jsonPath := filepath.Join(out, "grid.json")
	j, err := os.Create(jsonPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := res.WriteJSON(j); err != nil {
		log.Fatal(err)
	}
	if err := j.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s and %s (%d cells)", csvPath, jsonPath, res.Len())
}

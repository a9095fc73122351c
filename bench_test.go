package gridseg

// One benchmark per paper artifact (figure / theorem shape), each
// driving the corresponding registry experiment in quick mode, plus
// engine benchmarks at the paper's Figure 1 parameters. Regenerate the
// paper's numbers at full scale with: go run ./cmd/sweep -exp all -full
import (
	"testing"

	"gridseg/internal/sim"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := sim.Find(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	for i := 0; i < b.N; i++ {
		ctx := &sim.Context{Quick: true, Seed: uint64(i) + 1}
		if _, err := e.Run(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1Evolution regenerates the Fig. 1 workload (E1): the
// segregation evolution at tau = 0.42 with four snapshot stages.
func BenchmarkFig1Evolution(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkFig2Intervals regenerates the Fig. 2 interval structure (E2).
func BenchmarkFig2Intervals(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkFig3Exponents regenerates the Fig. 3 curves a, b (E3).
func BenchmarkFig3Exponents(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkFig6FTau regenerates the Fig. 6 curve f(tau) (E4).
func BenchmarkFig6FTau(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkThm1Scaling runs the Theorem 1 E[M]-vs-N sweep (E5).
func BenchmarkThm1Scaling(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkThm2Scaling runs the Theorem 2 E[M'] sweep (E6).
func BenchmarkThm2Scaling(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkStaticRegime runs the static-regime verification (E7).
func BenchmarkStaticRegime(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkHalfTau runs the open tau = 1/2 comparison (E8).
func BenchmarkHalfTau(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkCompleteSegregation runs the p-sweep at tau = 1/2 (E9).
func BenchmarkCompleteSegregation(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkFirewalls runs the triggering/protection machinery (E10).
func BenchmarkFirewalls(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkPercolation runs the percolation substrate shapes (E11).
func BenchmarkPercolation(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkFKGAndProp1 runs the FKG and Proposition 1 checks (E12).
func BenchmarkFKGAndProp1(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkRing1D runs the 1-D baselines (E13).
func BenchmarkRing1D(b *testing.B) { benchExperiment(b, "E13") }

// BenchmarkKawasaki runs the Glauber-vs-Kawasaki comparison (E14).
func BenchmarkKawasaki(b *testing.B) { benchExperiment(b, "E14") }

// BenchmarkDiscomfortVariant runs the Sec. V both-sided variation (E15).
func BenchmarkDiscomfortVariant(b *testing.B) { benchExperiment(b, "E15") }

// BenchmarkDensitySweep runs the Sec. V initial-density question (E16).
func BenchmarkDensitySweep(b *testing.B) { benchExperiment(b, "E16") }

// BenchmarkNoisyAgents runs the Sec. I.A noisy-agent variation (E17).
func BenchmarkNoisyAgents(b *testing.B) { benchExperiment(b, "E17") }

// BenchmarkSpreadTime runs the Lemma 7 T(rho) observable (E18).
func BenchmarkSpreadTime(b *testing.B) { benchExperiment(b, "E18") }

// ---- Engine benchmarks at Figure 1 parameters ----------------------

// BenchmarkModelInitFig1Params measures model construction at the exact
// Fig. 1 neighborhood size (w = 10, N = 441) on a reduced torus.
func BenchmarkModelInitFig1Params(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := New(Config{N: 256, W: 10, Tau: 0.42, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFlipThroughput measures per-flip cost at the given parameters
// and engine, re-drawing a fresh configuration off the clock whenever
// the process fixates.
func benchFlipThroughput(b *testing.B, n, w int, tau float64, engine Engine) {
	b.Helper()
	benchFlipThroughputScenario(b, n, w, tau, engine, BoundaryTorus)
}

func benchFlipThroughputScenario(b *testing.B, n, w int, tau float64, engine Engine, boundary Boundary) {
	b.Helper()
	benchConfigThroughput(b, Config{N: n, W: w, Tau: tau, Engine: engine, Boundary: boundary})
}

// BenchmarkFlipThroughputFig1Params measures per-flip cost at the
// Fig. 1 neighborhood size on the default (fast) engine.
func BenchmarkFlipThroughputFig1Params(b *testing.B) {
	benchFlipThroughput(b, 256, 10, 0.42, EngineAuto)
}

// BenchmarkFlipThroughputFig1ParamsReference pins the reference engine
// for the before/after comparison.
func BenchmarkFlipThroughputFig1ParamsReference(b *testing.B) {
	benchFlipThroughput(b, 256, 10, 0.42, EngineReference)
}

// BenchmarkFlipThroughputN1024 measures per-flip cost on a 1024 x 1024
// torus at the Fig. 1 horizon — the scale the Theorem 1/2 sweeps need.
func BenchmarkFlipThroughputN1024(b *testing.B) {
	benchFlipThroughput(b, 1024, 10, 0.42, EngineAuto)
}

// BenchmarkFlipThroughputN1024Reference is the scalar-engine contrast
// at the same scale.
func BenchmarkFlipThroughputN1024Reference(b *testing.B) {
	benchFlipThroughput(b, 1024, 10, 0.42, EngineReference)
}

// BenchmarkFlipThroughputOpenBoundary measures per-flip cost on the
// open (hard-wall) boundary at the Fig. 1 parameters on the reference
// engine (clamped windows, per-site thresholds). cmd/bench records the
// same probe as flip_open_reference in the BENCH trajectory.
func BenchmarkFlipThroughputOpenBoundary(b *testing.B) {
	benchFlipThroughputScenario(b, 256, 10, 0.42, EngineReference, BoundaryOpen)
}

// BenchmarkFlipThroughputOpenBoundaryFast is the bit-packed engine on
// the same open-boundary workload: the threshold/slack lane scan with
// edge-clamped row bands (flip_open_fast in the trajectory).
func BenchmarkFlipThroughputOpenBoundaryFast(b *testing.B) {
	benchFlipThroughputScenario(b, 256, 10, 0.42, EngineFast, BoundaryOpen)
}

// benchConfigThroughput measures per-event cost for an arbitrary
// configuration, re-drawing off the clock at terminal states.
func benchConfigThroughput(b *testing.B, cfg Config) {
	b.Helper()
	cfg.Seed = 1
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !m.Step() {
			b.StopTimer()
			cfg.Seed = uint64(i) + 2
			m, err = New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// BenchmarkFlipThroughputVacanciesFast measures the fast engine on a
// vacancy-diluted lattice (flip_rho_fast in the trajectory).
func BenchmarkFlipThroughputVacanciesFast(b *testing.B) {
	benchConfigThroughput(b, Config{N: 256, W: 10, Tau: 0.42, Rho: 0.1, Engine: EngineFast})
}

// BenchmarkFlipThroughputTauDistFast measures the fast engine under a
// heterogeneous intolerance field (flip_taudist_fast).
func BenchmarkFlipThroughputTauDistFast(b *testing.B) {
	benchConfigThroughput(b, Config{N: 256, W: 10, Tau: 0.42, TauDist: "mix:0.35,0.45:0.5", Engine: EngineFast})
}

// BenchmarkFlipThroughputSweepVacanciesFast measures the fast engine
// on the shape that dominates the sweep's CPU: a large vacancy-diluted
// torus at horizon w=1, where nearly every lane of a flip's band sits
// on a classification boundary. The BENCH_2 probes all run at w=10.
func BenchmarkFlipThroughputSweepVacanciesFast(b *testing.B) {
	benchConfigThroughput(b, Config{N: 1024, W: 1, Tau: 0.44, Rho: 0.05, Engine: EngineFast})
}

// BenchmarkFlipThroughputSweepVacanciesReference pins the reference
// engine on the same sweep-shaped cell.
func BenchmarkFlipThroughputSweepVacanciesReference(b *testing.B) {
	benchConfigThroughput(b, Config{N: 1024, W: 1, Tau: 0.44, Rho: 0.05, Engine: EngineReference})
}

// BenchmarkSwapThroughputSweepKawasakiFast measures the fast swap
// engine on a sweep-shaped cell: w=1, open walls, vacancies and a
// mixed intolerance field.
func BenchmarkSwapThroughputSweepKawasakiFast(b *testing.B) {
	benchConfigThroughput(b, Config{N: 384, W: 1, Tau: 0.42, Rho: 0.1, Boundary: BoundaryOpen,
		TauDist: "mix:0.40,0.48:0.5", Dynamic: Kawasaki, Engine: EngineFast})
}

// BenchmarkSwapThroughputKawasakiFast measures the fast swap engine's
// per-attempt cost (flip_kawasaki_fast); the reference variant below
// is the contrast.
func BenchmarkSwapThroughputKawasakiFast(b *testing.B) {
	benchConfigThroughput(b, Config{N: 256, W: 10, Tau: 0.42, Dynamic: Kawasaki, Engine: EngineFast})
}

// BenchmarkSwapThroughputKawasakiReference pins the reference swap
// engine at the same parameters (flip_kawasaki_reference).
func BenchmarkSwapThroughputKawasakiReference(b *testing.B) {
	benchConfigThroughput(b, Config{N: 256, W: 10, Tau: 0.42, Dynamic: Kawasaki, Engine: EngineReference})
}

// BenchmarkMoveThroughputFast measures the fast relocation engine's
// per-attempt cost on a vacancy-diluted lattice (flip_move_fast in the
// trajectory); the reference variant below is the contrast.
func BenchmarkMoveThroughputFast(b *testing.B) {
	benchConfigThroughput(b, Config{N: 256, W: 10, Tau: 0.42, Rho: 0.1, Dynamic: Move, Engine: EngineFast})
}

// BenchmarkMoveThroughputReference pins the reference relocation
// engine at the same parameters (flip_move_reference).
func BenchmarkMoveThroughputReference(b *testing.B) {
	benchConfigThroughput(b, Config{N: 256, W: 10, Tau: 0.42, Rho: 0.1, Dynamic: Move, Engine: EngineReference})
}

// BenchmarkGridCell measures the batch engine's per-cell cost (8 cells
// per iteration) with allocation reporting — the probe cmd/bench
// records as grid_cell, and the -benchmem evidence for the per-worker
// scratch reuse in the measurement and construction paths.
func BenchmarkGridCell(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunGrid("n=32 w=1,2 tau=0.42,0.45 reps=2", GridOptions{Seed: uint64(i) + 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunToFixation measures a complete small run.
func BenchmarkRunToFixation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := New(Config{N: 96, W: 3, Tau: 0.45, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		m.Run(0)
	}
}

// BenchmarkRunToFixationN4096 runs one complete giant-grid trajectory
// (16.8M sites) to fixation plus a streaming measurement pass, with
// allocation reporting — the bounded-RSS probe cmd/bench records as
// run_to_fixation_n4096 and `make memcheck` pins under an RSS ceiling.
func BenchmarkRunToFixationN4096(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := New(Config{N: 4096, W: 1, Tau: 0.45, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		m.Run(0)
		_ = m.SegregationStats()
	}
}

// BenchmarkSegregationStats measures the measurement pass.
func BenchmarkSegregationStats(b *testing.B) {
	m, err := New(Config{N: 256, W: 4, Tau: 0.45, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	m.Run(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.SegregationStats()
	}
}

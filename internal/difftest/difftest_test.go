package difftest

import (
	"errors"
	"testing"

	"gridseg"
)

// acceptanceCells is the differential grid: it spans lattice sizes,
// horizons (including the torus-spanning w >= n/2 edge), intolerances
// from near 0 through the super-unhappy regime to near 1 (where
// nothing is flippable and only construction is compared), skewed
// initial densities, and both dynamics. The large cells carry the
// event volume; the test below asserts the grid drives at least 10^6
// events in total with zero divergences.
var acceptanceCells = []Cell{
	// Event-volume cells at paper-relevant parameters.
	{N: 512, W: 1, Tau: 0.45, P: 0.5, Dynamic: gridseg.Glauber, Seed: 1},
	{N: 512, W: 1, Tau: 0.45, P: 0.5, Dynamic: gridseg.Glauber, Seed: 2},
	{N: 512, W: 1, Tau: 0.42, P: 0.5, Dynamic: gridseg.Glauber, Seed: 3},
	{N: 512, W: 2, Tau: 0.42, P: 0.5, Dynamic: gridseg.Glauber, Seed: 4},
	{N: 512, W: 2, Tau: 0.45, P: 0.5, Dynamic: gridseg.Glauber, Seed: 5},
	{N: 512, W: 3, Tau: 0.44, P: 0.5, Dynamic: gridseg.Glauber, Seed: 6},
	// tau = 1/2: the open regime stays active for a long time, so this
	// cell reliably runs into the per-cell event cap.
	{N: 256, W: 2, Tau: 0.50, P: 0.5, Dynamic: gridseg.Glauber, Seed: 7},
	{N: 384, W: 1, Tau: 0.50, P: 0.5, Dynamic: gridseg.Glauber, Seed: 25},
	{N: 512, W: 1, Tau: 0.47, P: 0.5, Dynamic: gridseg.Glauber, Seed: 26},
	{N: 384, W: 2, Tau: 0.46, P: 0.5, Dynamic: gridseg.Glauber, Seed: 8},
	{N: 256, W: 4, Tau: 0.45, P: 0.5, Dynamic: gridseg.Glauber, Seed: 9},
	{N: 256, W: 2, Tau: 0.48, P: 0.5, Dynamic: gridseg.Glauber, Seed: 10},
	{N: 192, W: 3, Tau: 0.45, P: 0.5, Dynamic: gridseg.Glauber, Seed: 11},
	// Static and near-static regimes.
	{N: 384, W: 1, Tau: 0.30, P: 0.5, Dynamic: gridseg.Glauber, Seed: 12},
	{N: 128, W: 2, Tau: 0.05, P: 0.5, Dynamic: gridseg.Glauber, Seed: 13},
	// Super-unhappy regime (tau > 1/2) and tau near 1.
	{N: 128, W: 2, Tau: 0.70, P: 0.5, Dynamic: gridseg.Glauber, Seed: 14},
	{N: 128, W: 2, Tau: 0.98, P: 0.5, Dynamic: gridseg.Glauber, Seed: 15},
	// Skewed initial densities.
	{N: 64, W: 2, Tau: 0.45, P: 0.1, Dynamic: gridseg.Glauber, Seed: 16},
	{N: 64, W: 2, Tau: 0.45, P: 0.9, Dynamic: gridseg.Glauber, Seed: 17},
	// Torus-spanning windows: w >= n/2 (2w+1 == n).
	{N: 25, W: 12, Tau: 0.45, P: 0.5, Dynamic: gridseg.Glauber, Seed: 18},
	{N: 25, W: 12, Tau: 0.502, P: 0.5, Dynamic: gridseg.Glauber, Seed: 19},
	{N: 31, W: 15, Tau: 0.48, P: 0.5, Dynamic: gridseg.Glauber, Seed: 20},
	{N: 9, W: 4, Tau: 0.45, P: 0.5, Dynamic: gridseg.Glauber, Seed: 21},
	// Kawasaki cells: the fast swap engine runs these against the
	// reference swap engine in lockstep.
	{N: 96, W: 1, Tau: 0.45, P: 0.5, Dynamic: gridseg.Kawasaki, Seed: 22},
	{N: 64, W: 2, Tau: 0.45, P: 0.5, Dynamic: gridseg.Kawasaki, Seed: 23},
	{N: 128, W: 1, Tau: 0.42, P: 0.5, Dynamic: gridseg.Kawasaki, Seed: 24},
	// Scenario cells: fast-vs-reference lockstep on the scenario axes.
	{N: 128, W: 2, Tau: 0.42, P: 0.5, Dynamic: gridseg.Glauber, Seed: 27, Boundary: gridseg.BoundaryOpen},
	{N: 96, W: 3, Tau: 0.45, P: 0.5, Dynamic: gridseg.Glauber, Seed: 28, Boundary: gridseg.BoundaryOpen},
	{N: 128, W: 2, Tau: 0.42, P: 0.5, Dynamic: gridseg.Glauber, Seed: 29, Rho: 0.1},
	{N: 96, W: 2, Tau: 0.45, P: 0.5, Dynamic: gridseg.Glauber, Seed: 30, Boundary: gridseg.BoundaryOpen, Rho: 0.05},
	{N: 96, W: 2, Tau: 0.42, P: 0.5, Dynamic: gridseg.Glauber, Seed: 31, TauDist: "mix:0.35,0.45:0.5"},
	{N: 64, W: 2, Tau: 0.42, P: 0.5, Dynamic: gridseg.Glauber, Seed: 32, Boundary: gridseg.BoundaryOpen, Rho: 0.05, TauDist: "uniform:0.35:0.5"},
	{N: 64, W: 2, Tau: 0.42, P: 0.5, Dynamic: gridseg.Move, Seed: 33, Rho: 0.1},
	{N: 64, W: 1, Tau: 0.45, P: 0.5, Dynamic: gridseg.Kawasaki, Seed: 34, Boundary: gridseg.BoundaryOpen, Rho: 0.05},
	// Fast-engine scenario coverage cells (PR 5): event-volume
	// fast-vs-reference lockstep across open boundaries, vacancy
	// fractions rho in {0.05, 0.3}, mix/uniform intolerance fields,
	// scenario Kawasaki, and their combinations — the cells that pin
	// the threshold/slack lane scan and the clamped row bands.
	{N: 384, W: 1, Tau: 0.45, P: 0.5, Dynamic: gridseg.Glauber, Seed: 35, Boundary: gridseg.BoundaryOpen},
	{N: 256, W: 2, Tau: 0.42, P: 0.5, Dynamic: gridseg.Glauber, Seed: 36, Boundary: gridseg.BoundaryOpen},
	{N: 256, W: 2, Tau: 0.42, P: 0.5, Dynamic: gridseg.Glauber, Seed: 37, Rho: 0.05},
	{N: 192, W: 2, Tau: 0.45, P: 0.5, Dynamic: gridseg.Glauber, Seed: 38, Rho: 0.3},
	{N: 256, W: 2, Tau: 0.42, P: 0.5, Dynamic: gridseg.Glauber, Seed: 39, TauDist: "mix:0.35,0.45:0.5"},
	{N: 192, W: 2, Tau: 0.42, P: 0.5, Dynamic: gridseg.Glauber, Seed: 40, TauDist: "uniform:0.35:0.5"},
	{N: 192, W: 2, Tau: 0.42, P: 0.5, Dynamic: gridseg.Glauber, Seed: 41, Boundary: gridseg.BoundaryOpen, Rho: 0.05},
	{N: 128, W: 2, Tau: 0.42, P: 0.5, Dynamic: gridseg.Glauber, Seed: 42, Boundary: gridseg.BoundaryOpen, Rho: 0.3, TauDist: "uniform:0.35:0.5"},
	{N: 128, W: 3, Tau: 0.45, P: 0.5, Dynamic: gridseg.Glauber, Seed: 43, Boundary: gridseg.BoundaryOpen, TauDist: "mix:0.3,0.5:0.5"},
	{N: 96, W: 2, Tau: 0.70, P: 0.5, Dynamic: gridseg.Glauber, Seed: 44, Boundary: gridseg.BoundaryOpen, Rho: 0.05},
	{N: 128, W: 1, Tau: 0.45, P: 0.5, Dynamic: gridseg.Kawasaki, Seed: 45, Boundary: gridseg.BoundaryOpen},
	{N: 96, W: 2, Tau: 0.45, P: 0.5, Dynamic: gridseg.Kawasaki, Seed: 46, Rho: 0.05},
	{N: 96, W: 2, Tau: 0.42, P: 0.5, Dynamic: gridseg.Kawasaki, Seed: 47, Rho: 0.3, TauDist: "mix:0.35,0.45:0.5"},
	// Lane-scan edge cells: rows whose last count word is partial
	// (n=13) or that cross the 64-bit spin word (n=66); tau=0 and tau=1
	// on vacancy lattices, and mixes reaching them, so threshold lanes
	// T=0 and slack lanes D=0 occur mid-run; rho=0.6, where some windows
	// hold only their own agent; and a sweep-shaped w=1 Kawasaki cell
	// with open walls, vacancies and a tau mix.
	{N: 13, W: 1, Tau: 0.44, P: 0.5, Dynamic: gridseg.Glauber, Seed: 64, Boundary: gridseg.BoundaryOpen, Rho: 0.05},
	{N: 13, W: 2, Tau: 0.45, P: 0.5, Dynamic: gridseg.Glauber, Seed: 65, Rho: 0.1},
	{N: 66, W: 1, Tau: 0.44, P: 0.5, Dynamic: gridseg.Glauber, Seed: 66, Boundary: gridseg.BoundaryOpen},
	{N: 66, W: 2, Tau: 0.42, P: 0.5, Dynamic: gridseg.Glauber, Seed: 67, Rho: 0.1, TauDist: "mix:0.35,0.45:0.5"},
	{N: 48, W: 1, Tau: 0, P: 0.5, Dynamic: gridseg.Glauber, Seed: 68, Rho: 0.1},
	{N: 48, W: 1, Tau: 1, P: 0.5, Dynamic: gridseg.Glauber, Seed: 69, Rho: 0.1},
	{N: 66, W: 1, Tau: 0.44, P: 0.5, Dynamic: gridseg.Glauber, Seed: 70, Rho: 0.1, TauDist: "mix:0,0.5:0.5"},
	{N: 66, W: 1, Tau: 0.44, P: 0.5, Dynamic: gridseg.Glauber, Seed: 71, Boundary: gridseg.BoundaryOpen, Rho: 0.1, TauDist: "mix:0.4,1:0.5"},
	{N: 64, W: 1, Tau: 0.45, P: 0.5, Dynamic: gridseg.Glauber, Seed: 72, Rho: 0.6},
	{N: 96, W: 1, Tau: 0.42, P: 0.5, Dynamic: gridseg.Kawasaki, Seed: 73, Boundary: gridseg.BoundaryOpen, Rho: 0.1, TauDist: "mix:0.40,0.48:0.5"},
	// Default-path edge cells for the same scan on the broadcast T and
	// D: a partial last count word under a window that does not span
	// the torus (n=13), rows crossing the 64-bit spin word (n=66), the
	// D = 0 broadcast (tau=1), and tau=1/2 at w=1, where boundary values
	// coincide (T-1 = D), once per dynamic.
	{N: 13, W: 1, Tau: 0.45, P: 0.5, Dynamic: gridseg.Glauber, Seed: 74},
	{N: 66, W: 2, Tau: 0.44, P: 0.5, Dynamic: gridseg.Glauber, Seed: 75},
	{N: 66, W: 1, Tau: 1.0, P: 0.5, Dynamic: gridseg.Glauber, Seed: 76},
	{N: 64, W: 1, Tau: 0.5, P: 0.5, Dynamic: gridseg.Glauber, Seed: 77},
	{N: 66, W: 1, Tau: 0.5, P: 0.5, Dynamic: gridseg.Kawasaki, Seed: 78},
	// Fast Move coverage cells (PR 6): fast-vs-reference lockstep for
	// the relocation dynamic across both boundaries, sparse and dense
	// vacancy fractions, heterogeneous intolerance, and the
	// torus-spanning window edge — the cells that pin the vacate+occupy
	// packed updates, the occupancy-delta reclassification pass, and
	// the sampler replay ordering.
	{N: 128, W: 2, Tau: 0.42, P: 0.5, Dynamic: gridseg.Move, Seed: 48, Rho: 0.1},
	{N: 96, W: 1, Tau: 0.45, P: 0.5, Dynamic: gridseg.Move, Seed: 49, Rho: 0.05},
	{N: 96, W: 2, Tau: 0.45, P: 0.5, Dynamic: gridseg.Move, Seed: 50, Boundary: gridseg.BoundaryOpen, Rho: 0.1},
	{N: 64, W: 3, Tau: 0.42, P: 0.5, Dynamic: gridseg.Move, Seed: 51, Rho: 0.3},
	{N: 64, W: 2, Tau: 0.42, P: 0.5, Dynamic: gridseg.Move, Seed: 52, Rho: 0.1, TauDist: "mix:0.35,0.45:0.5"},
	{N: 64, W: 2, Tau: 0.45, P: 0.5, Dynamic: gridseg.Move, Seed: 53, Boundary: gridseg.BoundaryOpen, Rho: 0.05, TauDist: "uniform:0.35:0.5"},
	{N: 25, W: 12, Tau: 0.45, P: 0.5, Dynamic: gridseg.Move, Seed: 54, Rho: 0.1},
	// Parallel-engine cells: the parallel engine requested on one strip
	// (ParStrips = 1), as sweeps request it, against the reference
	// engine, in lockstep, across worker counts 1/2/4/8 and
	// every topology axis. The worker count must be a pure execution
	// detail, so every one of these must be bit-identical — including
	// clocks — to the sequential runs of the same seeds.
	{N: 256, W: 2, Tau: 0.45, P: 0.5, Dynamic: gridseg.Glauber, Seed: 55, Par: 1},
	{N: 256, W: 2, Tau: 0.45, P: 0.5, Dynamic: gridseg.Glauber, Seed: 55, Par: 2},
	{N: 256, W: 1, Tau: 0.42, P: 0.5, Dynamic: gridseg.Glauber, Seed: 56, Par: 4},
	{N: 192, W: 2, Tau: 0.45, P: 0.5, Dynamic: gridseg.Glauber, Seed: 57, Par: 8},
	{N: 192, W: 2, Tau: 0.42, P: 0.5, Dynamic: gridseg.Glauber, Seed: 58, Par: 2, Boundary: gridseg.BoundaryOpen},
	{N: 128, W: 2, Tau: 0.45, P: 0.5, Dynamic: gridseg.Glauber, Seed: 59, Par: 4, Boundary: gridseg.BoundaryOpen},
	{N: 192, W: 2, Tau: 0.42, P: 0.5, Dynamic: gridseg.Glauber, Seed: 60, Par: 4, Rho: 0.1},
	{N: 128, W: 2, Tau: 0.42, P: 0.5, Dynamic: gridseg.Glauber, Seed: 61, Par: 8, Rho: 0.05, Boundary: gridseg.BoundaryOpen},
	{N: 128, W: 2, Tau: 0.42, P: 0.5, Dynamic: gridseg.Glauber, Seed: 62, Par: 2, TauDist: "mix:0.35,0.45:0.5"},
	{N: 96, W: 2, Tau: 0.42, P: 0.5, Dynamic: gridseg.Glauber, Seed: 63, Par: 8, Boundary: gridseg.BoundaryOpen, Rho: 0.05, TauDist: "uniform:0.35:0.5"},
}

// TestEnginesBitIdentical is the acceptance harness: >= 63 cells
// (>= 12 of them scenario/Kawasaki cells under the fast engine,
// >= 10 one-strip parallel cells across worker counts 1/2/4/8),
// >= 10^6 events, full-state comparisons every 8192 events, zero
// divergences between the reference and the engines under test.
func TestEnginesBitIdentical(t *testing.T) {
	cells := acceptanceCells
	opt := Options{CheckEvery: 8192, MaxEvents: 200000}
	if testing.Short() {
		// Reduced grid: drop the event-volume cells, keep the shapes.
		var small []Cell
		for _, c := range cells {
			if c.N <= 192 {
				small = append(small, c)
			}
		}
		cells = small
		opt = Options{CheckEvery: 2048, MaxEvents: 20000}
	}
	rep, err := CompareAll(cells, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("differential run: %d cells, %d events, %d full-state checks", rep.Cells, rep.Events, rep.Checks)
	if testing.Short() {
		return
	}
	if rep.Cells < 63 {
		t.Errorf("acceptance requires >= 63 cells, got %d", rep.Cells)
	}
	fastScenario, parallel := 0, 0
	for _, c := range cells {
		if !c.defaultScenario() || c.Dynamic == gridseg.Kawasaki {
			fastScenario++
		}
		if c.Par > 0 {
			parallel++
		}
	}
	if fastScenario < 12 {
		t.Errorf("acceptance requires >= 12 scenario/Kawasaki cells under the fast engine, got %d", fastScenario)
	}
	if parallel < 10 {
		t.Errorf("acceptance requires >= 10 one-strip parallel cells, got %d", parallel)
	}
	if rep.Events < 1_000_000 {
		t.Errorf("acceptance requires >= 10^6 events, got %d", rep.Events)
	}
}

// TestCompareReportsDivergence checks the harness itself: two models
// with different seeds must be reported as divergent immediately.
func TestCompareReportsDivergence(t *testing.T) {
	ref, err := gridseg.New(gridseg.Config{N: 32, W: 2, Tau: 0.45, Seed: 1, Engine: gridseg.EngineReference})
	if err != nil {
		t.Fatal(err)
	}
	other, err := gridseg.New(gridseg.Config{N: 32, W: 2, Tau: 0.45, Seed: 2, Engine: gridseg.EngineFast})
	if err != nil {
		t.Fatal(err)
	}
	if diverges(ref, other) == nil {
		t.Fatal("harness failed to flag models with different seeds")
	}
}

// TestCompareFastRejectsOversizedHorizon confirms an explicit fast
// request past the lane capacity surfaces as a typed construction
// error, not a silent fallback — and that Compare, which verifies
// exactly this contract for cells outside the fast engine's coverage,
// accepts such a cell (auto resolves to reference, fast rejects).
func TestCompareFastRejectsOversizedHorizon(t *testing.T) {
	cell := Cell{N: 301, W: 150, Tau: 0.45, P: 0.5, Dynamic: gridseg.Glauber, Seed: 1}
	if _, err := Compare(cell, Options{MaxEvents: 1}); err != nil {
		t.Fatalf("oversized-horizon fallback cell diverged: %v", err)
	}
	_, err := gridseg.New(gridseg.Config{
		N: cell.N, W: cell.W, Tau: cell.Tau, Seed: cell.Seed, Engine: gridseg.EngineFast,
	})
	if !errors.Is(err, gridseg.ErrNeighborhoodTooLarge) {
		t.Fatalf("explicit fast request: err = %v, want ErrNeighborhoodTooLarge", err)
	}
}

package pareng

import (
	"testing"

	"gridseg/internal/dynamics"
	"gridseg/internal/grid"
	"gridseg/internal/rng"
)

// scenarioCase is a model setting the cross-worker determinism suite
// pins: the paper's default plus one case per topology axis.
type scenarioCase struct {
	name string
	n, w int
	tau  float64
	rho  float64
	open bool
	taus bool // alternating per-site intolerance field
}

var scenarioCases = []scenarioCase{
	{name: "torus", n: 64, w: 2, tau: 0.45},
	{name: "open", n: 64, w: 2, tau: 0.45, open: true},
	{name: "rho", n: 64, w: 2, tau: 0.45, rho: 0.08},
	{name: "taudist", n: 64, w: 2, tau: 0.45, taus: true},
}

// build constructs a fresh lattice and scenario for the case from the
// seed, exactly like gridseg.New splits its root source.
func (c scenarioCase) build(seed uint64) (*grid.Lattice, dynamics.Scenario, *rng.Source) {
	src := rng.New(seed)
	lat := grid.RandomScenario(c.n, 0.5, c.rho, src.Split(1))
	dsc := dynamics.Scenario{Open: c.open}
	if c.taus {
		taus := make([]float64, c.n*c.n)
		for i := range taus {
			if i%2 == 0 {
				taus[i] = 0.35
			} else {
				taus[i] = 0.48
			}
		}
		dsc.Taus = taus
	}
	return lat, dsc, src.Split(2)
}

// fingerprint summarizes an engine's terminal state for equality
// checks across runs.
type fingerprint struct {
	lattice string
	flips   int64
	time    float64
	phi     int64
}

func runToFixation(t *testing.T, c scenarioCase, seed uint64, cfg Config) (*Engine, fingerprint) {
	t.Helper()
	lat, dsc, src := c.build(seed)
	e, err := New(lat, c.w, c.tau, dsc, src, cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	if _, fixated := e.Run(0); !fixated {
		t.Fatalf("Run(0) did not fixate")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants after fixation: %v", err)
	}
	return e, fingerprint{lattice: lat.String(), flips: e.Flips(), time: e.Time(), phi: e.Phi()}
}

// TestDeterministicAcrossWorkers pins the deterministic protocol's
// contract: for a fixed seed and strip count, the trajectory is
// bit-identical for every worker count, on every topology scenario.
func TestDeterministicAcrossWorkers(t *testing.T) {
	for _, c := range scenarioCases {
		t.Run(c.name, func(t *testing.T) {
			_, want := runToFixation(t, c, 7, Config{Workers: 1, Strips: 4})
			for _, workers := range []int{2, 4, 8} {
				_, got := runToFixation(t, c, 7, Config{Workers: workers, Strips: 4})
				if got != want {
					t.Fatalf("workers=%d diverged: %+v, want %+v", workers, got, want)
				}
			}
		})
	}
}

// TestStripCountChangesTrajectory documents that the strip count — not
// the worker count — is the trajectory-defining knob: different strip
// counts give different (individually reproducible) trajectories.
func TestStripCountChangesTrajectory(t *testing.T) {
	c := scenarioCases[0]
	_, s4 := runToFixation(t, c, 7, Config{Workers: 2, Strips: 4})
	_, s8 := runToFixation(t, c, 7, Config{Workers: 2, Strips: 8})
	if s4.flips == s8.flips && s4.lattice == s8.lattice {
		t.Fatalf("strips=4 and strips=8 produced identical trajectories; expected distinct batching")
	}
}

// TestPhiMonotone pins the per-flip Lyapunov guarantee of the phase
// protocol: every flip is admissible at the moment it happens, so Phi
// gains at least 2 per flip — cycle over cycle, not just end to end.
func TestPhiMonotone(t *testing.T) {
	t.Run("deterministic", func(t *testing.T) {
		c := scenarioCases[0]
		lat, dsc, src := c.build(13)
		e, err := New(lat, c.w, c.tau, dsc, src, Config{Workers: 2, Strips: 4})
		if err != nil {
			t.Fatal(err)
		}
		phi, flips := e.Phi(), e.Flips()
		for {
			if _, ok := e.Step(); !ok {
				break
			}
			nphi, nflips := e.Phi(), e.Flips()
			if nphi < phi+2*(nflips-flips) {
				t.Fatalf("Phi rose by %d over %d flips, want >= %d", nphi-phi, nflips-flips, 2*(nflips-flips))
			}
			phi, flips = nphi, nflips
		}
	})
}

func TestAutoStrips(t *testing.T) {
	cases := []struct {
		n, w, want int
	}{
		{n: 32, w: 1, want: 1},    // too small to decompose
		{n: 64, w: 1, want: 16},   // capped at MaxStrips
		{n: 64, w: 2, want: 16},   // 16 strips of exactly 2w rows
		{n: 64, w: 5, want: 6},    // rounded down to even
		{n: 64, w: 16, want: 2},   // exactly two strips of 2w rows
		{n: 64, w: 17, want: 1},   // no two valid strips fit
		{n: 4096, w: 1, want: 16}, // the giant-run setting
	}
	for _, c := range cases {
		if got := AutoStrips(c.n, c.w); got != c.want {
			t.Errorf("AutoStrips(%d, %d) = %d, want %d", c.n, c.w, got, c.want)
		}
		if got := AutoStrips(c.n, c.w); got > 1 {
			if _, err := NewPartition(c.n, c.w, got, false); err != nil {
				t.Errorf("AutoStrips(%d, %d) = %d is not a valid partition: %v", c.n, c.w, got, err)
			}
		} else if _, err := New(grid.New(c.n, grid.Plus), c.w, 0.45, dynamics.Scenario{}, rng.New(1), Config{}); err == nil {
			t.Errorf("New on n=%d w=%d built a one-strip engine, want an error", c.n, c.w)
		}
	}
	if _, err := New(grid.New(64, grid.Plus), 2, 0.45, dynamics.Scenario{}, rng.New(1), Config{Strips: 1}); err == nil {
		t.Error("New accepted Strips: 1")
	}
}

func TestNewPartitionRejectsInvalid(t *testing.T) {
	cases := []struct {
		name         string
		n, w, strips int
		open         bool
	}{
		{name: "zero strips", n: 64, w: 2, strips: 0},
		{name: "horizon too large", n: 5, w: 3, strips: 1},
		{name: "odd strips on torus", n: 90, w: 2, strips: 3},
		{name: "strips too short", n: 64, w: 4, strips: 16},
		{name: "more strips than rows", n: 64, w: 1, strips: 80},
	}
	for _, c := range cases {
		if _, err := NewPartition(c.n, c.w, c.strips, c.open); err == nil {
			t.Errorf("%s: NewPartition(%d, %d, %d, %v) succeeded, want error", c.name, c.n, c.w, c.strips, c.open)
		}
	}
	if _, err := NewPartition(90, 2, 3, true); err != nil {
		t.Errorf("odd strips under the open boundary should be valid: %v", err)
	}
}

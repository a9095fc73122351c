package pareng

import (
	"testing"

	"gridseg/internal/dynamics/fastglauber"
	"gridseg/internal/stats"
)

// Statistical-equivalence harness for the phase protocol. With
// strips > 1 the engine is not bit-identical to the sequential engine —
// it realizes a different trajectory of the same stochastic process —
// so the contract it must keep is distributional: over an ensemble of
// seeds, fixation times and final Phi values must be drawn from the
// same distributions the sequential engine samples. A two-sample
// Kolmogorov-Smirnov test (internal/stats) pins both observables, and
// exact per-run conservation checks ride along.
//
// False-positive budget: every comparison uses fixed seeds, so both
// samples are identical on every run — the comparisons can only flip
// if the code changes. Re-seeding the ensemble re-rolls both at
// alpha = 1e-3 per test.
const (
	equivEnsemble = 160
	equivAlpha    = 1e-3
)

// collect runs the case to fixation for every ensemble seed and
// returns the fixation-time and final-Phi samples. build selects the
// engine; it must consume the case's dynamics source exactly like
// gridseg.New does so all engines see identical initial lattices.
func collect(t *testing.T, c scenarioCase, cfg *Config) (times, phis []float64) {
	t.Helper()
	for seed := uint64(1); seed <= equivEnsemble; seed++ {
		lat, dsc, src := c.build(seed)
		agents := 0
		for i := 0; i < c.n*c.n; i++ {
			if lat.OccupiedAt(i) {
				agents++
			}
		}
		var time float64
		var phi int64
		if cfg == nil {
			e, err := fastglauber.NewScenario(lat, c.w, c.tau, dsc, src)
			if err != nil {
				t.Fatal(err)
			}
			if _, fixated := e.Run(0); !fixated {
				t.Fatalf("seed %d: sequential run did not fixate", seed)
			}
			time, phi = e.Time(), e.Phi()
		} else {
			e, err := New(lat, c.w, c.tau, dsc, src, *cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, fixated := e.Run(0); !fixated {
				t.Fatalf("seed %d: parallel run did not fixate", seed)
			}
			time, phi = e.Time(), e.Phi()
		}
		// Exact conservation: Glauber flips change spins, never
		// occupancy, so the agent count is invariant run by run.
		got := 0
		for i := 0; i < c.n*c.n; i++ {
			if lat.OccupiedAt(i) {
				got++
			}
		}
		if got != agents {
			t.Fatalf("seed %d: agent count changed %d -> %d", seed, agents, got)
		}
		times = append(times, time)
		phis = append(phis, float64(phi))
	}
	return times, phis
}

// TestStatisticalEquivalence compares the phase protocol (strips=4)
// against the sequential fast engine on an ensemble of 160 seeds of the
// paper's default torus scenario, KS-testing the fixation-time and
// final-Phi distributions.
func TestStatisticalEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("ensemble comparison is slow")
	}
	c := scenarioCases[0] // torus, n=64, w=2, tau=0.45
	seqTimes, seqPhis := collect(t, c, nil)
	t.Run("deterministic", func(t *testing.T) {
		parTimes, parPhis := collect(t, c, &Config{Workers: 2, Strips: 4})
		for _, obs := range []struct {
			name     string
			seq, par []float64
		}{
			{name: "fixation-time", seq: seqTimes, par: parTimes},
			{name: "final-phi", seq: seqPhis, par: parPhis},
		} {
			r, err := stats.KolmogorovSmirnov(obs.seq, obs.par)
			if err != nil {
				t.Fatalf("%s: %v", obs.name, err)
			}
			t.Logf("%s: D = %.4f, p = %.4g", obs.name, r.D, r.P)
			if r.P < equivAlpha {
				t.Errorf("%s distribution diverges from sequential: D = %.4f, p = %.4g < %g", obs.name, r.D, r.P, equivAlpha)
			}
		}
	})
}

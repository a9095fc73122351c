package gridseg

import (
	"math"
	"slices"
	"testing"

	"gridseg/internal/grid"
	"gridseg/internal/rng"
)

// enginesUnderTest names the Glauber engine implementations every
// property must hold for.
var enginesUnderTest = []Engine{EngineReference, EngineFast}

// TestPhiStrictlyIncreasingPerFlip verifies the paper's Lyapunov
// argument on both engines: every admissible Glauber flip increases
// Phi, and by at least 2 (the flipped agent gains at least one
// same-type neighbor net, and the relation is symmetric).
func TestPhiStrictlyIncreasingPerFlip(t *testing.T) {
	for _, engine := range enginesUnderTest {
		for _, tau := range []float64{0.30, 0.42, 0.45, 0.70} {
			m, err := New(Config{N: 32, W: 2, Tau: tau, Seed: 5, Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			phi := m.Phi()
			for steps := 0; m.Step(); steps++ {
				next := m.Phi()
				if next < phi+2 {
					t.Fatalf("engine=%v tau=%v step %d: Phi %d -> %d (want increase >= 2)",
						engine, tau, steps, phi, next)
				}
				phi = next
			}
			if !m.Fixated() {
				t.Fatalf("engine=%v tau=%v: run stopped before fixation", engine, tau)
			}
		}
	}
}

// TestHappyFractionAtFixation verifies that for tau <= 1/2 every agent
// is happy at fixation (unhappiness implies flippability there, so
// fixation exhausts unhappiness), on both engines — and that once
// fixated the state is stationary: further steps change nothing.
func TestHappyFractionAtFixation(t *testing.T) {
	for _, engine := range enginesUnderTest {
		for _, tau := range []float64{0.30, 0.42, 0.45, 0.50} {
			m, err := New(Config{N: 32, W: 2, Tau: tau, Seed: 6, Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			if _, fixated := m.Run(0); !fixated {
				t.Fatalf("engine=%v tau=%v: did not fixate", engine, tau)
			}
			st := m.SegregationStats()
			if st.HappyFraction != 1 || st.UnhappyCount != 0 {
				t.Fatalf("engine=%v tau=%v: happy fraction %v (unhappy %d) at fixation, want 1 (0)",
					engine, tau, st.HappyFraction, st.UnhappyCount)
			}
			before := m.String()
			if m.Step() {
				t.Fatalf("engine=%v tau=%v: fixated model stepped", engine, tau)
			}
			if m.String() != before {
				t.Fatalf("engine=%v tau=%v: fixated state changed", engine, tau)
			}
		}
	}
}

// scenarioConfigs spans every scenario axis and their combinations;
// the properties below must hold on each, for both engines.
var scenarioConfigs = []Config{
	{N: 32, W: 2, Tau: 0.42, Seed: 21, Boundary: BoundaryOpen},
	{N: 32, W: 2, Tau: 0.42, Seed: 22, Rho: 0.1},
	{N: 32, W: 2, Tau: 0.42, Seed: 23, TauDist: "mix:0.35,0.45:0.5"},
	{N: 32, W: 2, Tau: 0.42, Seed: 24, Boundary: BoundaryOpen, Rho: 0.05, TauDist: "uniform:0.35:0.5"},
}

// TestScenarioPhiStrictlyIncreasingPerFlip extends the Lyapunov
// property to every scenario axis: windows stay symmetric under
// clamping, vacancies contribute zero, and per-site thresholds leave
// the flip-improves-same-count argument intact, so every admissible
// flip still increases Phi by at least 2 — on both engines.
func TestScenarioPhiStrictlyIncreasingPerFlip(t *testing.T) {
	for _, engine := range enginesUnderTest {
		for _, cfg := range scenarioConfigs {
			cfg.Engine = engine
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			phi := m.Phi()
			for steps := 0; m.Step(); steps++ {
				next := m.Phi()
				if next < phi+2 {
					t.Fatalf("engine=%v cfg=%+v step %d: Phi %d -> %d (want increase >= 2)",
						engine, cfg, steps, phi, next)
				}
				phi = next
			}
		}
	}
}

// TestScenarioHappyAtFixation extends the all-happy-at-fixation
// property: every per-site threshold in these scenarios satisfies
// tau_u <= 1/2, so unhappiness implies flippability and fixation
// exhausts unhappiness — on both engines, under truncated edge
// windows and diluted neighborhoods alike.
func TestScenarioHappyAtFixation(t *testing.T) {
	for _, engine := range enginesUnderTest {
		for _, cfg := range scenarioConfigs {
			cfg.Engine = engine
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, fixated := m.Run(0); !fixated {
				t.Fatalf("engine=%v cfg=%+v: did not fixate", engine, cfg)
			}
			st := m.SegregationStats()
			if st.HappyFraction != 1 || st.UnhappyCount != 0 {
				t.Fatalf("engine=%v cfg=%+v: happy fraction %v (unhappy %d) at fixation, want 1 (0)",
					engine, cfg, st.HappyFraction, st.UnhappyCount)
			}
		}
	}
}

// TestScenarioKawasakiConservesTypes verifies the closed-system
// invariant on the scenario axes for both swap engines: swaps never
// change per-type agent counts, vacancies never move.
func TestScenarioKawasakiConservesTypes(t *testing.T) {
	for _, engine := range enginesUnderTest {
		for _, cfg := range scenarioConfigs {
			cfg.Engine = engine
			cfg.Dynamic = Kawasaki
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			plus0, minus0 := m.lat.CountPlus(), m.lat.CountMinus()
			for steps := 0; m.Step() && steps < 20000; steps++ {
			}
			if p, mi := m.lat.CountPlus(), m.lat.CountMinus(); p != plus0 || mi != minus0 {
				t.Fatalf("engine=%v cfg=%+v: type counts (%d,%d) -> (%d,%d)",
					engine, cfg, plus0, minus0, p, mi)
			}
		}
	}
}

// TestKawasakiConservesMagnetization verifies the closed-system
// invariant: swaps never change the type counts, so magnetization is
// conserved through the whole run, and at termination at least one
// type has no unhappy agents left.
func TestKawasakiConservesMagnetization(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		m, err := New(Config{N: 48, W: 2, Tau: 0.45, Seed: seed, Dynamic: Kawasaki})
		if err != nil {
			t.Fatal(err)
		}
		plus0 := m.lat.CountPlus()
		mag0 := m.SegregationStats().Magnetization
		steps := 0
		for m.Step() {
			steps++
			if steps%64 == 0 {
				if got := m.lat.CountPlus(); got != plus0 {
					t.Fatalf("seed=%d step %d: plus count %d, want %d", seed, steps, got, plus0)
				}
			}
			if steps > 200000 {
				break
			}
		}
		if got := m.lat.CountPlus(); got != plus0 {
			t.Fatalf("seed=%d final: plus count %d, want %d", seed, got, plus0)
		}
		if got := m.SegregationStats().Magnetization; got != mag0 {
			t.Fatalf("seed=%d: magnetization %v, want %v", seed, got, mag0)
		}
		if m.Fixated() {
			p, mi := m.eng.Swap.UnhappyByType()
			if p != 0 && mi != 0 {
				t.Fatalf("seed=%d: reported fixated with unhappy %d/%d of each type", seed, p, mi)
			}
		}
	}
}

// TestGlauberDoesNotConserveMagnetization is the contrast property:
// the open system's flips change type counts, so a run that performs
// flips essentially always moves the magnetization (it moves by
// 2/sites per flip; only a perfectly balanced flip history could
// return it, which the seeds below do not produce).
func TestGlauberDoesNotConserveMagnetization(t *testing.T) {
	for _, engine := range enginesUnderTest {
		m, err := New(Config{N: 32, W: 2, Tau: 0.45, Seed: 8, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		mag0 := m.SegregationStats().Magnetization
		if _, fixated := m.Run(0); !fixated {
			t.Fatal("did not fixate")
		}
		if m.Flips() == 0 {
			t.Fatal("degenerate run: no flips")
		}
		if got := m.SegregationStats().Magnetization; got == mag0 {
			t.Fatalf("engine=%v: magnetization unchanged (%v) after %d flips", engine, mag0, m.Flips())
		}
	}
}

// TestTimeIsFiniteAndIncreasing verifies the Poisson clock on both
// engines: strictly positive, strictly increasing, finite.
func TestTimeIsFiniteAndIncreasing(t *testing.T) {
	for _, engine := range enginesUnderTest {
		m, err := New(Config{N: 24, W: 1, Tau: 0.45, Seed: 9, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		prev := m.Time()
		if prev != 0 {
			t.Fatalf("engine=%v: initial time %v", engine, prev)
		}
		for m.Step() {
			now := m.Time()
			if !(now > prev) || math.IsInf(now, 0) || math.IsNaN(now) {
				t.Fatalf("engine=%v: clock went %v -> %v", engine, prev, now)
			}
			prev = now
		}
	}
}

// TestGlobalSpinInversion pins the model's exact symmetry under
// swapping the two types: negating every agent of the initial lattice
// and replaying the same per-site tau field and dynamics stream gives
// the mirrored trajectory — equal flip counts, fixation and clock, an
// exactly negated final lattice and magnetization, and equal happy
// fraction, interface density and largest-cluster fraction. It holds
// for Glauber and Move on both engines across the scenario axes.
// Kawasaki is left out: it draws from its plus-type unhappy set first,
// so the inverted lattice draws a different pair from the same stream.
func TestGlobalSpinInversion(t *testing.T) {
	for _, dyn := range []Dynamic{Glauber, Move} {
		for _, engine := range enginesUnderTest {
			for _, b := range []Boundary{BoundaryTorus, BoundaryOpen} {
				for _, rho := range []float64{0, 0.1} {
					if dyn == Move && rho == 0 {
						continue
					}
					for _, td := range []string{"global", "uniform:0.3:0.55"} {
						for _, w := range []int{1, 2} {
							for _, tau := range []float64{0.30, 0.42, 0.45, 0.50, 0.60} {
								for seed := uint64(1); seed <= 4; seed++ {
									checkInversion(t, Config{N: 24, W: w, Tau: tau, Seed: seed, Dynamic: dyn,
										Engine: engine, Boundary: b, Rho: rho, TauDist: td})
								}
							}
						}
					}
				}
			}
		}
	}
}

// checkInversion runs cfg's lattice and its negation to fixation with
// the same tau field and dynamics stream (drawn as New draws them) and
// asserts the mirrored outcome.
func checkInversion(t *testing.T, cfg Config) {
	t.Helper()
	cfg = cfg.withDefaults()
	sc, err := cfg.scenario()
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(cfg.Seed)
	lat := grid.RandomScenario(cfg.N, cfg.P, cfg.Rho, src.Split(1))
	taus := sc.TauDist.SampleField(lat.Sites(), cfg.Tau, src.Split(3))
	neg := lat.Clone()
	for i := 0; i < neg.Sites(); i++ {
		neg.SetAt(i, -neg.SpinAt(i))
	}
	a, err := newModel(cfg, sc, lat, taus, src.Split(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := newModel(cfg, sc, neg, slices.Clone(taus), src.Split(2))
	if err != nil {
		t.Fatal(err)
	}
	fa, xa := a.Run(1 << 20)
	fb, xb := b.Run(1 << 20)
	ta, tb := a.Time(), b.Time()
	if fa != fb || xa != xb || (ta != tb && !(math.IsNaN(ta) && math.IsNaN(tb))) {
		t.Fatalf("%+v: flips/fixated/time %d/%v/%v, inverted %d/%v/%v", cfg, fa, xa, ta, fb, xb, tb)
	}
	for i := 0; i < lat.Sites(); i++ {
		if neg.SpinAt(i) != -lat.SpinAt(i) {
			t.Fatalf("%+v: final lattices differ beyond negation at site %d", cfg, i)
		}
	}
	sa, sb := a.SegregationStats(), b.SegregationStats()
	if sb.Magnetization != -sa.Magnetization || sb.HappyFraction != sa.HappyFraction ||
		sb.InterfaceDensity != sa.InterfaceDensity || sb.LargestClusterFraction != sa.LargestClusterFraction {
		t.Fatalf("%+v: stats %+v, inverted %+v", cfg, sa, sb)
	}
}

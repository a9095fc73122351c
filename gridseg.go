package gridseg

import (
	"errors"
	"fmt"
	"image/png"
	"io"
	"math"
	"strings"

	"gridseg/internal/dynamics"
	"gridseg/internal/dynamics/engines"
	"gridseg/internal/dynamics/pareng"
	"gridseg/internal/geom"
	"gridseg/internal/grid"
	"gridseg/internal/measure"
	"gridseg/internal/rng"
	"gridseg/internal/theory"
	"gridseg/internal/topology"
	"gridseg/internal/viz"
)

// Dynamic selects the evolution rule.
type Dynamic = engines.Dynamic

// The two model classes discussed in Section I.A of the paper, plus
// the relocation dynamic enabled by vacancy scenarios.
const (
	// Glauber is the paper's open-system dynamic: unhappy agents flip
	// type when the flip makes them happy.
	Glauber = engines.Glauber
	// Kawasaki is the closed-system baseline: pairs of unhappy agents
	// of opposite types swap when the swap makes both happy.
	Kawasaki = engines.Kawasaki
	// Move is the relocation dynamic of vacancy scenarios (Rho > 0):
	// an unhappy agent moves into a uniformly sampled vacant site iff
	// it would be happy there. Type counts are conserved; vacancies
	// drift in the opposite direction.
	Move = engines.Move
)

// Boundary selects the lattice boundary condition.
type Boundary int

const (
	// BoundaryTorus is the paper's wrap-around boundary (the default).
	BoundaryTorus Boundary = Boundary(topology.Torus)
	// BoundaryOpen is the hard-wall boundary: neighborhoods clamp at
	// the grid edges, so edge agents see truncated windows and
	// per-site thresholds ceil(Tau * |N(u)|).
	BoundaryOpen = Boundary(topology.Open)
)

// String returns "torus" or "open".
func (b Boundary) String() string { return topology.Boundary(b).String() }

// ParseBoundary parses "torus" or "open" ("" parses as torus).
func ParseBoundary(s string) (Boundary, error) {
	b, err := topology.ParseBoundary(s)
	if err != nil {
		return BoundaryTorus, fmt.Errorf("gridseg: %w", err)
	}
	return Boundary(b), nil
}

// Engine selects the engine implementation; the selection rules
// live in one table, internal/dynamics/engines. The sequential engines
// are interchangeable bit for bit — same seed, same trajectory, same
// observables (enforced by internal/difftest) — so choosing among them
// is purely about performance. The parallel engine keeps that contract
// at ParStrips == 1, where it resolves to the fast engine; with more
// strips it realizes a different — individually reproducible —
// trajectory of the same process, pinned instead by the
// statistical-equivalence suite.
type Engine = engines.Kind

const (
	// EngineAuto (the zero value) picks Fast for every dynamic and
	// scenario whenever the neighborhood fits its packed counts, and
	// Reference for very large horizons ((2W+1)^2 > 32767, i.e. W > 90).
	EngineAuto = engines.Auto
	// EngineReference is the scalar reference engine of
	// internal/dynamics.
	EngineReference = engines.Reference
	// EngineFast is the bit-packed SWAR engine of
	// internal/dynamics/fastglauber, covering all three dynamics.
	EngineFast = engines.Fast
	// EngineParallel is the domain-decomposed parallel Glauber engine of
	// internal/dynamics/pareng. The Par and ParStrips config fields
	// select the worker count and strip decomposition; Kawasaki and
	// Move resolve it to the sequential fast engine.
	EngineParallel = engines.Parallel
)

// ErrNeighborhoodTooLarge is the typed sentinel wrapped by New when an
// explicit EngineFast request needs a neighborhood (2W+1)^2 beyond the
// packed engine's 16-bit count-lane capacity (W <= 90 fits). EngineAuto
// falls back to the reference engine instead of failing.
var ErrNeighborhoodTooLarge = engines.ErrNeighborhoodTooLarge

// ParseEngine parses an engine label or alias (see
// internal/dynamics/engines; "" parses as auto).
func ParseEngine(s string) (Engine, error) {
	e, err := engines.Parse(s)
	if err != nil {
		return e, fmt.Errorf("gridseg: %w", err)
	}
	return e, nil
}

// Config specifies a model instance.
type Config struct {
	// N is the torus side length (N x N agents).
	N int
	// W is the horizon: neighborhoods are Chebyshev balls of radius W,
	// containing (2W+1)^2 agents including the center.
	W int
	// Tau is the intolerance in [0, 1]; the integer happiness
	// threshold is ceil(Tau * (2W+1)^2) per the paper's convention.
	Tau float64
	// P is the Bernoulli parameter of the initial configuration; the
	// paper's theorems assume P = 1/2. Zero value defaults to 1/2.
	P float64
	// Seed determines the initial configuration and the evolution;
	// identical configs replay identically.
	Seed uint64
	// Dynamic selects Glauber (default), Kawasaki, or Move evolution
	// (Move requires Rho > 0).
	Dynamic Dynamic
	// Engine selects the engine implementation; the zero value
	// (EngineAuto) picks the fast bit-packed engine whenever it
	// applies. The sequential engines never change results, only speed;
	// EngineParallel is bit-identical too at ParStrips == 1, while more
	// strips select a different, individually reproducible trajectory.
	Engine Engine
	// Par is the worker count of EngineParallel (0: one per available
	// CPU). A pure execution detail: any worker count replays the same
	// trajectory.
	Par int
	// ParStrips is the strip count of EngineParallel's domain
	// decomposition (0: the machine-independent automatic count; 1:
	// no decomposition, which resolves to the sequential fast engine).
	// Unlike Par, the strip count is part of the trajectory definition.
	ParStrips int
	// Boundary selects the lattice boundary condition: the paper's
	// wrap-around torus (the zero value) or open hard walls with
	// correctly truncated edge neighborhoods.
	Boundary Boundary
	// Rho is the vacancy fraction in [0, 1): each site is empty
	// independently with probability Rho. Zero (the default) is the
	// paper's fully occupied lattice.
	Rho float64
	// TauDist is the per-site intolerance distribution spec: "" or
	// "global" (every site uses Tau), "mix:a,b:w" (tau=a with
	// probability w, else b), or "uniform:lo:hi". Non-global fields are
	// drawn deterministically from the Seed at construction.
	TauDist string
}

// scenario assembles and validates the topology scenario of a config.
func (cfg Config) scenario() (topology.Scenario, error) {
	dist, err := topology.ParseTauDist(cfg.TauDist)
	if err != nil {
		return topology.Scenario{}, fmt.Errorf("gridseg: %w", err)
	}
	sc := topology.Scenario{Boundary: topology.Boundary(cfg.Boundary), Rho: cfg.Rho, TauDist: dist}
	if err := sc.Validate(); err != nil {
		return topology.Scenario{}, fmt.Errorf("gridseg: %w", err)
	}
	return sc, nil
}

// Model is a running instance of the segregation process.
type Model struct {
	cfg Config
	sc  topology.Scenario
	lat *grid.Lattice
	eng engines.Engine // the built engine and the kind it resolved to
}

// withDefaults returns the config with its documented zero-value
// defaults resolved (P = 1/2, Glauber dynamics). Both constructors
// normalize through this helper so Config() always reports the
// parameters actually in force.
func (cfg Config) withDefaults() Config {
	if cfg.P == 0 {
		cfg.P = 0.5
	}
	if cfg.Dynamic == 0 {
		cfg.Dynamic = Glauber
	}
	return cfg
}

// New builds a model from the config and draws its initial
// configuration.
func New(cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if cfg.N < 3 {
		return nil, errors.New("gridseg: N must be at least 3")
	}
	if cfg.P < 0 || cfg.P > 1 {
		return nil, errors.New("gridseg: P must be in [0, 1]")
	}
	sc, err := cfg.scenario()
	if err != nil {
		return nil, err
	}
	src := rng.New(cfg.Seed)
	// Split(1) draws the configuration, Split(2) drives the dynamics,
	// Split(3) draws the per-site tau field. The streams are
	// independent, and the default scenario consumes Split(1) and
	// Split(2) exactly as before the scenario subsystem (the vacancy
	// draw is skipped at rho=0 and the tau field is nil when global),
	// so pre-scenario seeds replay bit-identically.
	lat := grid.RandomScenario(cfg.N, cfg.P, cfg.Rho, src.Split(1))
	taus := sc.TauDist.SampleField(lat.Sites(), cfg.Tau, src.Split(3))
	return newModel(cfg, sc, lat, taus, src.Split(2))
}

// newModel attaches the configured engine, built from the engine table
// and driven by src, to a drawn lattice and per-site tau field.
func newModel(cfg Config, sc topology.Scenario, lat *grid.Lattice, taus []float64, src *rng.Source) (*Model, error) {
	if cfg.Dynamic == Move && cfg.Rho <= 0 {
		return nil, errors.New("gridseg: the move dynamic requires a positive vacancy fraction (rho > 0)")
	}
	dsc := dynamics.Scenario{Open: sc.Boundary == topology.Open, Taus: taus}
	eng, err := engines.New(cfg.Dynamic, cfg.Engine, lat, cfg.W, cfg.Tau, dsc, src,
		pareng.Config{Workers: cfg.Par, Strips: cfg.ParStrips})
	if err != nil {
		return nil, fmt.Errorf("gridseg: %w", err)
	}
	return &Model{cfg: cfg, sc: sc, lat: lat, eng: eng}, nil
}

// Scenario returns the canonical description of the model's topology
// scenario ("boundary=torus rho=0 taudist=global" for the default).
func (m *Model) Scenario() string { return m.sc.Canonical() }

// Config returns the configuration the model was built with (with
// defaults resolved; Engine stays as requested — see Engine for the
// resolved choice).
func (m *Model) Config() Config { return m.cfg }

// Engine returns the engine implementation actually in use
// (EngineReference, EngineFast, or EngineParallel — never EngineAuto,
// and never EngineParallel for the Kawasaki and Move dynamics or at
// ParStrips == 1, which resolve to EngineFast).
func (m *Model) Engine() Engine { return m.eng.Kind }

// Size returns the torus side length.
func (m *Model) Size() int { return m.cfg.N }

// NeighborhoodSize returns N = (2W+1)^2.
func (m *Model) NeighborhoodSize() int { return m.eng.Proc.NeighborhoodSize() }

// Threshold returns the integer happiness threshold tau*N.
func (m *Model) Threshold() int { return m.eng.Proc.Threshold() }

// EffectiveTau returns the rational intolerance threshold/N actually in
// force (the paper's tau = ceil(tauTilde N)/N).
func (m *Model) EffectiveTau() float64 { return m.eng.Proc.Tau() }

// Spin returns +1 or -1 for the agent at (x, y); coordinates wrap.
func (m *Model) Spin(x, y int) int {
	return int(m.lat.Spin(geom.Point{X: x, Y: y}))
}

// Happy reports whether the agent at (x, y) is happy.
func (m *Model) Happy(x, y int) bool {
	return m.eng.Proc.Happy(m.lat.Torus().Index(m.lat.Torus().WrapPoint(geom.Point{X: x, Y: y})))
}

// Step advances the model by one effective event. For Glauber dynamics
// this is one flip; for Kawasaki one swap attempt; for Move one
// relocation attempt. The parallel engine with more than one strip is
// batched: one Step advances a whole phase cycle, which may perform
// many flips (track Flips for exact progress). It reports
// whether the model can still move.
func (m *Model) Step() bool {
	if m.eng.Swap != nil {
		_, done := m.eng.Swap.StepAttempt()
		return !done
	}
	if m.eng.Move != nil {
		_, done := m.eng.Move.StepAttempt()
		return !done
	}
	_, ok := m.eng.Proc.Step()
	return ok
}

// Run advances the model until fixation or until the given number of
// events (<= 0 means unbounded for Glauber; for the attempt-based
// Kawasaki and Move dynamics a budget of 20 n^2 attempts with an n^2
// failure streak is used when maxEvents <= 0). It returns the number
// of effective events performed and whether the model reached a
// terminal state.
func (m *Model) Run(maxEvents int64) (int64, bool) {
	if m.eng.Swap != nil || m.eng.Move != nil {
		budget := maxEvents
		streak := int64(0)
		if budget <= 0 {
			n2 := int64(m.cfg.N) * int64(m.cfg.N)
			budget = 20 * n2
			streak = n2
		}
		if m.eng.Swap != nil {
			return m.eng.Swap.Run(budget, streak)
		}
		return m.eng.Move.Run(budget, streak)
	}
	return m.eng.Proc.Run(maxEvents)
}

// RunSampled advances the model exactly like Run(maxEvents) while
// invoking sample approximately every `every` flips, plus exactly once
// with final=true when the run terminates (fixation, event budget, or
// failure-streak cutoff). The trajectory is bit-identical to Run's:
// for Glauber the engine's Run is chunked (the Step sequence is
// unchanged), and for the attempt-based Kawasaki and Move dynamics the
// budget/streak loop is replicated around StepAttempt rather than
// chunking the engine's Run — chunking would reset the failure-streak
// counter at every boundary and silently change when runs give up.
// This is the snapshot tap behind live trajectory streaming: the
// callback observes the model mid-run through View/Flips/
// SegregationStats and must not mutate it.
func (m *Model) RunSampled(maxEvents, every int64, sample func(final bool)) (int64, bool) {
	if every < 1 {
		every = 1
	}
	emit := func(final bool) {
		if sample != nil {
			sample(final)
		}
	}
	if m.eng.Swap != nil || m.eng.Move != nil {
		budget := maxEvents
		var failLimit int64
		if budget <= 0 {
			n2 := int64(m.cfg.N) * int64(m.cfg.N)
			budget = 20 * n2
			failLimit = n2
		}
		var step func() (bool, bool)
		if m.eng.Swap != nil {
			step = m.eng.Swap.StepAttempt
		} else {
			step = m.eng.Move.StepAttempt
		}
		var performed, streak int64
		lastSample := m.Flips()
		for a := int64(0); a < budget; a++ {
			ok, done := step()
			if done {
				emit(true)
				return performed, true
			}
			if ok {
				performed++
				streak = 0
				if m.Flips()-lastSample >= every {
					emit(false)
					lastSample = m.Flips()
				}
			} else {
				streak++
				if failLimit > 0 && streak >= failLimit {
					emit(true)
					return performed, false
				}
			}
		}
		emit(true)
		return performed, false
	}
	var performed int64
	for {
		chunk := every
		if maxEvents > 0 {
			remaining := maxEvents - performed
			if remaining < chunk {
				chunk = remaining
			}
		}
		p, done := m.eng.Proc.Run(chunk)
		performed += p
		if done {
			emit(true)
			return performed, true
		}
		if maxEvents > 0 && performed >= maxEvents {
			emit(true)
			return performed, false
		}
		emit(false)
	}
}

// Phi returns the paper's Lyapunov function: the sum over all agents u
// of the number of same-type agents in N(u). It strictly increases
// with every admissible Glauber flip.
func (m *Model) Phi() int64 { return m.eng.Proc.Phi() }

// FlippableCount returns the number of currently admissible Glauber
// flips (0 for Kawasaki and Move models, whose moves are pair swaps
// and relocations).
func (m *Model) FlippableCount() int {
	if m.eng.Swap != nil || m.eng.Move != nil {
		return 0
	}
	return m.eng.Proc.FlippableCount()
}

// Fixated reports whether no admissible move remains (Glauber), no
// unhappy pair exists (Kawasaki), or no unhappy agent remains (Move).
func (m *Model) Fixated() bool {
	if m.eng.Swap != nil {
		p, mi := m.eng.Swap.UnhappyByType()
		return p == 0 || mi == 0
	}
	if m.eng.Move != nil {
		unhappy, _ := m.eng.Move.Counts()
		return unhappy == 0
	}
	return m.eng.Proc.Fixated()
}

// Flips returns the number of effective flips (Glauber), twice the
// number of swaps (Kawasaki, two sites change), or the number of
// successful relocations (Move) performed so far.
func (m *Model) Flips() int64 {
	if m.eng.Swap != nil {
		return 2 * m.eng.Swap.Swaps()
	}
	if m.eng.Move != nil {
		return m.eng.Move.Moves()
	}
	return m.eng.Proc.Flips()
}

// SamplerSizes renders the sizes of the dynamic's candidate samplers
// (the internal/sampleset sets uniform selection draws from):
// admissible flips for Glauber, unhappy agents per type for Kawasaki,
// and unhappy agents plus vacant sites for Move.
func (m *Model) SamplerSizes() string {
	if m.eng.Swap != nil {
		p, mi := m.eng.Swap.UnhappyByType()
		return fmt.Sprintf("unhappy+=%d unhappy-=%d", p, mi)
	}
	if m.eng.Move != nil {
		unhappy, vacant := m.eng.Move.Counts()
		return fmt.Sprintf("unhappy=%d vacant=%d", unhappy, vacant)
	}
	return fmt.Sprintf("flippable=%d", m.eng.Proc.FlippableCount())
}

// Time returns the elapsed continuous (Poisson-clock) time of a Glauber
// model; it returns NaN for the attempt-based Kawasaki and Move
// models, whose formulations are not clocked.
func (m *Model) Time() float64 {
	if m.eng.Swap != nil || m.eng.Move != nil {
		return math.NaN()
	}
	return m.eng.Proc.Time()
}

// Stats summarizes the segregation state of a configuration.
type Stats struct {
	HappyFraction          float64
	UnhappyCount           int
	InterfaceDensity       float64
	MeanSameFraction       float64
	LargestClusterFraction float64
	Magnetization          float64
	Flips                  int64
}

// SegregationStats computes the summary observables of the current
// configuration. The observables are scenario-aware — open boundaries
// stop windows, adjacencies, and clusters at the edges, and vacancy
// lattices measure agents only — and reduce exactly to the classic
// definitions on the default scenario.
func (m *Model) SegregationStats() Stats {
	open := m.sc.Boundary == topology.Open
	v := m.View()
	cl := measure.ClusterStatsView(v, open)
	largest := cl.LargestPlus
	if cl.LargestMinus > largest {
		largest = cl.LargestMinus
	}
	return Stats{
		HappyFraction:          m.eng.Proc.HappyFraction(),
		UnhappyCount:           m.eng.Proc.UnhappyCount(),
		InterfaceDensity:       measure.InterfaceDensityView(v, open),
		MeanSameFraction:       measure.MeanSameFractionView(v, m.cfg.W, open),
		LargestClusterFraction: float64(largest) / float64(m.lat.Sites()),
		Magnetization:          measure.MagnetizationView(v),
		Flips:                  m.Flips(),
	}
}

// View returns a read-only view of the current configuration. Every
// engine keeps the reference lattice in lockstep, so the view is live:
// it reflects the state after the most recent step.
func (m *Model) View() grid.LatticeView { return m.lat }

// String renders the Stats compactly.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "happy=%.3f unhappy=%d interface=%.3f same=%.3f largest=%.3f magnetization=%+.3f flips=%d",
		s.HappyFraction, s.UnhappyCount, s.InterfaceDensity, s.MeanSameFraction,
		s.LargestClusterFraction, s.Magnetization, s.Flips)
	return b.String()
}

// MonoRegionSize returns M(u): the size of the largest monochromatic
// neighborhood (square of odd side) containing the agent at (x, y) —
// the observable of Theorem 1.
func (m *Model) MonoRegionSize(x, y int) int {
	radii := measure.CenteredRadii(m.lat)
	return measure.MonoRegionSize(m.lat, radii, m.lat.Torus().WrapPoint(geom.Point{X: x, Y: y}))
}

// AlmostMonoRegionSize returns M'(u): the size of the largest
// neighborhood containing (x, y) whose minority/majority ratio is at
// most beta — the observable of Theorem 2 (the paper takes
// beta = e^{-eps N}).
func (m *Model) AlmostMonoRegionSize(x, y int, beta float64) int {
	pre := grid.NewPrefix(m.lat)
	return measure.AlmostMonoSize(m.lat, pre, m.lat.Torus().WrapPoint(geom.Point{X: x, Y: y}), beta, 0)
}

// ASCII renders the configuration with happiness marks: '#' happy +1,
// '.' happy -1, 'P' unhappy +1, 'm' unhappy -1, ' ' vacant. The
// happiness marks come from the live engine, so every scenario
// (truncated edge windows, vacancies, per-site thresholds) renders
// faithfully.
func (m *Model) ASCII() string {
	return viz.ASCIIWith(m.lat, m.eng.Proc.Happy)
}

// String renders the raw configuration as '+'/'-' rows.
func (m *Model) String() string { return m.lat.String() }

// WritePNG renders the configuration in the paper's Figure 1 palette
// (green/blue happy, white/yellow unhappy, grey vacant) at the given
// pixel scale, with happiness marks from the live engine.
func (m *Model) WritePNG(out io.Writer, scale int) error {
	return png.Encode(out, viz.RenderWith(m.lat, m.eng.Proc.Happy, scale))
}

// ---- Theory facade -------------------------------------------------

// Tau1 returns the critical intolerance tau1 ~= 0.433 of Eq. (1): the
// lower endpoint of the Theorem 1 monochromatic interval.
func Tau1() float64 { return theory.Tau1() }

// Tau2 returns the critical intolerance tau2 = 0.34375 of Eq. (3): the
// lower endpoint of the Theorem 2 almost-monochromatic interval.
func Tau2() float64 { return theory.Tau2 }

// TriggerEpsilon returns f(tau) from Eq. (10): the infimum margin eps'
// for which a radical region can trigger the segregation cascade
// (Fig. 6). NaN outside (0, 1/2].
func TriggerEpsilon(tau float64) float64 { return theory.FEpsilon(tau) }

// Exponents returns the asymptotic exponent multipliers (a, b) of
// Theorems 1 and 2 at the given intolerance (Fig. 3):
// 2^{aN - o(N)} <= E[M] <= 2^{bN + o(N)}. NaN outside
// (tau2, 1-tau2) \ {1/2}.
func Exponents(tau float64) (a, b float64) { return theory.Exponents(tau) }

// ClassifyTau names the regime of an intolerance value per the paper
// and the cited prior work: "static", "open (1/4, tau2]",
// "almost monochromatic", "monochromatic", or "open (tau = 1/2)".
func ClassifyTau(tau float64) string { return theory.Classify(tau).String() }

// Interval is an intolerance range with a regime label (Fig. 2).
type Interval struct {
	Lo, Hi float64
	Label  string
}

// Intervals returns the Fig. 2 interval structure.
func Intervals() []Interval {
	var out []Interval
	for _, iv := range theory.Intervals() {
		out = append(out, Interval{Lo: iv.Lo, Hi: iv.Hi, Label: iv.Label})
	}
	return out
}

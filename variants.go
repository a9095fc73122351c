package gridseg

import (
	"errors"
	"fmt"

	"gridseg/internal/dynamics"
	"gridseg/internal/geom"
	"gridseg/internal/grid"
	"gridseg/internal/measure"
	"gridseg/internal/rng"
)

// VariantConfig specifies a generalized model with the variations the
// paper discusses in Sections I.A and V: per-type intolerances, a
// both-sided discomfort window, and rule-violating noise.
type VariantConfig struct {
	// N is the torus side length; W the horizon.
	N, W int
	// TauPlus and TauMinus are the per-type lower intolerances (the
	// two-threshold model of Barmpalias et al., cited as [26]).
	TauPlus, TauMinus float64
	// UpperPlus and UpperMinus, when set below 1, make agents unhappy
	// also as saturated majorities (Sec. V's "uncomfortable being ...
	// a majority"). 0 means 1 (off).
	UpperPlus, UpperMinus float64
	// Noise in [0, 1) is the probability a ringing agent acts against
	// the rule's prescription (Sec. I.A variation). Noise > 0 removes
	// the termination guarantee; Run requires a budget.
	Noise float64
	// P is the initial Bernoulli density (0 means 1/2).
	P float64
	// Seed determines all randomness.
	Seed uint64
}

// VariantModel is a running instance of the generalized process.
type VariantModel struct {
	cfg VariantConfig
	lat *grid.Lattice
	v   *dynamics.Variant
}

// NewVariant builds a generalized model and draws its initial
// configuration.
func NewVariant(cfg VariantConfig) (*VariantModel, error) {
	if cfg.P == 0 {
		cfg.P = 0.5
	}
	if cfg.N < 3 {
		return nil, errors.New("gridseg: N must be at least 3")
	}
	if cfg.P < 0 || cfg.P > 1 {
		return nil, errors.New("gridseg: P must be in [0, 1]")
	}
	src := rng.New(cfg.Seed)
	lat := grid.Random(cfg.N, cfg.P, src.Split(1))
	v, err := dynamics.NewVariant(lat, cfg.W, dynamics.VariantOptions{
		TauPlus:    cfg.TauPlus,
		TauMinus:   cfg.TauMinus,
		UpperPlus:  cfg.UpperPlus,
		UpperMinus: cfg.UpperMinus,
		Noise:      cfg.Noise,
	}, src.Split(2))
	if err != nil {
		return nil, fmt.Errorf("gridseg: %w", err)
	}
	return &VariantModel{cfg: cfg, lat: lat, v: v}, nil
}

// Config returns the configuration with defaults resolved.
func (m *VariantModel) Config() VariantConfig { return m.cfg }

// Step performs one effective event; it reports whether the process can
// still move (a noisy process always can).
func (m *VariantModel) Step() bool {
	_, ok := m.v.Step()
	return ok
}

// Run advances by at most maxEvents events (required when Noise > 0).
// It returns the number performed and whether a noise-free fixation was
// reached.
func (m *VariantModel) Run(maxEvents int64) (int64, bool, error) {
	return m.v.Run(maxEvents)
}

// Flips returns the rule-driven flip count; NoiseFlips the noise-driven
// count.
func (m *VariantModel) Flips() int64 { return m.v.Flips() }

// NoiseFlips returns the number of noise-driven flips.
func (m *VariantModel) NoiseFlips() int64 { return m.v.NoiseFlips() }

// Time returns elapsed continuous time.
func (m *VariantModel) Time() float64 { return m.v.Time() }

// UnhappyCount returns the number of currently unhappy agents.
func (m *VariantModel) UnhappyCount() int { return m.v.UnhappyCount() }

// Spin returns +1/-1 at (x, y) with wrap-around.
func (m *VariantModel) Spin(x, y int) int {
	return int(m.lat.Spin(geom.Point{X: x, Y: y}))
}

// SegregationStats summarizes the current configuration.
func (m *VariantModel) SegregationStats() Stats {
	cl := measure.ClusterStatsView(m.lat, false)
	largest := cl.LargestPlus
	if cl.LargestMinus > largest {
		largest = cl.LargestMinus
	}
	sites := m.lat.Sites()
	return Stats{
		HappyFraction:          1 - float64(m.v.UnhappyCount())/float64(sites),
		UnhappyCount:           m.v.UnhappyCount(),
		InterfaceDensity:       measure.InterfaceDensityView(m.lat, false),
		MeanSameFraction:       measure.MeanSameFractionView(m.lat, m.cfg.W, false),
		LargestClusterFraction: float64(largest) / float64(sites),
		Magnetization:          measure.MagnetizationView(m.lat),
		Flips:                  m.v.Flips() + m.v.NoiseFlips(),
	}
}

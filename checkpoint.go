package gridseg

import (
	"fmt"

	"gridseg/internal/grid"
	"gridseg/internal/measure"
	"gridseg/internal/rng"
	"gridseg/internal/topology"
)

// MarshalConfiguration encodes the model's current agent configuration
// into a self-describing checksummed binary blob (the lattice only, not
// the clock state). Use NewFromConfiguration to resume from it.
func (m *Model) MarshalConfiguration() ([]byte, error) {
	data, err := m.lat.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("gridseg: %w", err)
	}
	return data, nil
}

// NewFromConfiguration builds a model whose initial configuration is a
// previously marshaled one, with fresh dynamics parameterized by cfg
// (cfg.N is ignored: the configuration fixes the lattice; cfg.P only
// affects the reported Config, which resolves it to the documented 1/2
// default like New does).
func NewFromConfiguration(data []byte, cfg Config) (*Model, error) {
	lat, err := grid.UnmarshalBinary(data)
	if err != nil {
		return nil, fmt.Errorf("gridseg: %w", err)
	}
	cfg = cfg.withDefaults()
	cfg.N = lat.N()
	return newModel(cfg, topology.Scenario{}, lat, nil, rng.New(cfg.Seed).Split(2))
}

// Indices holds the block-level residential-segregation indices from
// the empirical literature.
type Indices struct {
	Dissimilarity float64 // Duncan & Duncan D in [0, 1]
	Isolation     float64 // plus-type isolation in (0, 1]
	Exposure      float64 // plus-type exposure to minus, 1 - Isolation
}

// SegregationIndices computes the classic indices over an m x m census
// partition of the torus (m must divide N). It fails on monochromatic
// configurations, where the indices are undefined.
func (m *Model) SegregationIndices(blockSide int) (Indices, error) {
	bc, err := measure.CountBlocks(m.lat, blockSide)
	if err != nil {
		return Indices{}, fmt.Errorf("gridseg: %w", err)
	}
	d, err := bc.Dissimilarity()
	if err != nil {
		return Indices{}, fmt.Errorf("gridseg: %w", err)
	}
	iso, err := bc.Isolation()
	if err != nil {
		return Indices{}, fmt.Errorf("gridseg: %w", err)
	}
	return Indices{Dissimilarity: d, Isolation: iso, Exposure: 1 - iso}, nil
}

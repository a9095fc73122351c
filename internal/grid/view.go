package grid

// LatticeView is the read-only lattice interface shared by both
// storage layouts: the reference spin array (Lattice) and the flat
// bit-packed layout (fastgrid.Lattice) satisfy it. Code written
// against LatticeView runs unchanged on either; the measurement
// pass packs any view into bit planes without materializing a
// reference copy first.
//
// Site indices are row-major: site (x, y) is y*N()+x. A vacant site
// reports SpinAt = None and OccupiedAt = false; on layouts without a
// vacancy plane OccupiedAt is constantly true.
type LatticeView interface {
	// N returns the side length.
	N() int
	// Sites returns the number of sites, N()^2.
	Sites() int
	// SpinAt returns the spin at row-major index i (None if vacant).
	SpinAt(i int) Spin
	// OccupiedAt reports whether site i holds an agent.
	OccupiedAt(i int) bool
	// HasVacancies reports whether any site can be vacant.
	HasVacancies() bool
}

// The reference lattice is itself a view.
var _ LatticeView = (*Lattice)(nil)

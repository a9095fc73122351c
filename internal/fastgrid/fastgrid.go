// Package fastgrid implements the bit-packed representation of the
// lattice used by the fast engines: one spin per bit in []uint64 row
// words (+1 agents are set bits), with window counts streamed row by
// row in the packed 16-bit lane form the engines keep them in (see
// lanes.go). Vacancy scenarios add a
// second bit plane of the same shape recording occupancy (set bit =
// site holds an agent), and the open boundary replaces the torus wrap
// by clamped (edge-truncated) row and column windows. It mirrors the
// semantics of internal/grid exactly — the same site indexing, the
// same wrap or clamp — so a packed lattice and its reference twin can
// be kept in lockstep and compared bit for bit.
package fastgrid

import (
	"fmt"
	"math/bits"

	"gridseg/internal/grid"
)

// Lattice is an n x n lattice of spins packed one per bit, row-major:
// site (x, y) lives at bit x&63 of word y*WordsPerRow()+x>>6, and a set
// bit means +1. On vacancy lattices a parallel occupancy plane marks
// the sites holding an agent (vacant sites read as 0 in both planes,
// like Minus — the occupancy plane is what tells them apart). The zero
// value is not usable; construct with FromLattice or NewPacked.
type Lattice struct {
	n     int
	wpr   int // words per row
	words []uint64
	// occ is the occupancy bit plane, same layout as words; nil on
	// fully occupied lattices (the paper's setting).
	occ []uint64
}

// NewPacked returns an all-minus, fully occupied packed lattice of
// side n.
func NewPacked(n int) *Lattice {
	wpr := (n + 63) / 64
	return &Lattice{n: n, wpr: wpr, words: make([]uint64, n*wpr)}
}

// FromLattice packs the spins of a reference lattice, together with an
// occupancy plane when the lattice has vacant sites.
func FromLattice(l *grid.Lattice) *Lattice {
	p := NewPacked(l.N())
	if l.HasVacancies() {
		p.occ = make([]uint64, len(p.words))
	}
	PackPlanes(l, p.words, p.occ)
	return p
}

// PackPlanes writes the spin plane of any lattice view in the flat
// layout — row y in words [y*wpr, (y+1)*wpr) with wpr = (n+63)/64, a
// set bit for every +1 agent, padding bits above column n-1 zero — and,
// when occ is non-nil, its occupancy plane in the same layout. Each
// plane must be n*wpr words long; its contents are overwritten. This
// is the one packing loop shared by the fast engines and the packed
// measurement pass.
func PackPlanes(v grid.LatticeView, spin, occ []uint64) {
	n := v.N()
	wpr := (n + 63) / 64
	// The reference lattice gets its own loop so that SpinAt inlines.
	ref, isRef := v.(*grid.Lattice)
	for y := 0; y < n; y++ {
		for k := 0; k < wpr; k++ {
			base, width := y*n+k*64, min(64, n-k*64)
			// Branch-free over the spin values: (s+1)>>1 is 1 only
			// for Plus (+1), s&1 is 1 for both agents (+1, -1) and 0
			// for None.
			var sw, ow uint64
			if isRef {
				for b := range width {
					s := ref.SpinAt(base + b)
					sw |= uint64(s+1) >> 1 << b
					ow |= uint64(s&1) << b
				}
			} else {
				for b := range width {
					s := v.SpinAt(base + b)
					sw |= uint64(s+1) >> 1 << b
					ow |= uint64(s&1) << b
				}
			}
			spin[y*wpr+k] = sw
			if occ != nil {
				occ[y*wpr+k] = ow
			}
		}
	}
}

// N returns the side length.
func (p *Lattice) N() int { return p.n }

// Sites returns the number of sites, n^2.
func (p *Lattice) Sites() int { return p.n * p.n }

// WordsPerRow returns the packed row stride in words.
func (p *Lattice) WordsPerRow() int { return p.wpr }

// Bit reports whether the spin at row-major site index i is +1.
func (p *Lattice) Bit(i int) bool {
	x, y := i%p.n, i/p.n
	return p.words[y*p.wpr+x>>6]>>uint(x&63)&1 != 0
}

// HasVacancies reports whether the lattice carries an occupancy plane.
func (p *Lattice) HasVacancies() bool { return p.occ != nil }

// OccupiedBit reports whether the site at row-major index i holds an
// agent (always true on fully occupied lattices).
func (p *Lattice) OccupiedBit(i int) bool {
	if p.occ == nil {
		return true
	}
	x, y := i%p.n, i/p.n
	return p.occ[y*p.wpr+x>>6]>>uint(x&63)&1 != 0
}

// OccupiedAt is OccupiedBit under the grid.LatticeView name.
func (p *Lattice) OccupiedAt(i int) bool { return p.OccupiedBit(i) }

// SpinWord returns the k-th packed spin word (rows are WordsPerRow
// words long; bits past the row width are zero). Hot window loops read
// a word once and shift lanes out instead of re-indexing per site.
func (p *Lattice) SpinWord(k int) uint64 { return p.words[k] }

// OccupiedWord returns the k-th packed occupancy word, with every bit
// set when the lattice carries no vacancy plane.
func (p *Lattice) OccupiedWord(k int) uint64 {
	if p.occ == nil {
		return ^uint64(0)
	}
	return p.occ[k]
}

// SpinAt returns the spin at row-major index i in the reference
// representation (None for a vacant site).
func (p *Lattice) SpinAt(i int) grid.Spin {
	if !p.OccupiedBit(i) {
		return grid.None
	}
	if p.Bit(i) {
		return grid.Plus
	}
	return grid.Minus
}

// The packed lattice satisfies the shared read interface.
var _ grid.LatticeView = (*Lattice)(nil)

// FlipBit negates the spin at row-major site index i and reports
// whether the new spin is +1.
func (p *Lattice) FlipBit(i int) bool {
	x, y := i%p.n, i/p.n
	w := y*p.wpr + x>>6
	mask := uint64(1) << uint(x&63)
	p.words[w] ^= mask
	return p.words[w]&mask != 0
}

// SetSpinBit writes the spin bit at row-major site index i (true = +1).
// Relocation engines use it together with SetOccupiedBit to vacate and
// occupy sites; flip engines use FlipBit.
func (p *Lattice) SetSpinBit(i int, plus bool) {
	x, y := i%p.n, i/p.n
	w := y*p.wpr + x>>6
	mask := uint64(1) << uint(x&63)
	if plus {
		p.words[w] |= mask
	} else {
		p.words[w] &^= mask
	}
}

// SetOccupiedBit writes the occupancy bit at row-major site index i.
// It panics on a lattice without an occupancy plane — only vacancy
// scenarios relocate agents.
func (p *Lattice) SetOccupiedBit(i int, occupied bool) {
	if p.occ == nil {
		panic("fastgrid: SetOccupiedBit on a lattice without an occupancy plane")
	}
	x, y := i%p.n, i/p.n
	w := y*p.wpr + x>>6
	mask := uint64(1) << uint(x&63)
	if occupied {
		p.occ[w] |= mask
	} else {
		p.occ[w] &^= mask
	}
}

// CountOccupied returns the number of occupied sites: a popcount of
// the occupancy plane, or n^2 when the lattice has none.
func (p *Lattice) CountOccupied() int {
	if p.occ == nil {
		return p.n * p.n
	}
	c := 0
	for _, w := range p.occ {
		c += bits.OnesCount64(w)
	}
	return c
}

// PlusSites returns the +1 agents as a site bitset: bit i&63 of word
// i>>6 is set iff site i = y*n + x holds a +1 agent. The samplers of
// the fast engines index sites this way.
func (p *Lattice) PlusSites() []uint64 {
	return p.sites(p.words)
}

// VacantSites returns the vacant sites as a site bitset like
// PlusSites (all clear on a fully occupied lattice).
func (p *Lattice) VacantSites() []uint64 {
	if p.occ == nil {
		return make([]uint64, (p.n*p.n+63)/64)
	}
	set := p.sites(p.occ)
	for i := range set {
		set[i] = ^set[i]
	}
	if r := p.n * p.n & 63; r != 0 {
		set[len(set)-1] &= 1<<uint(r) - 1
	}
	return set
}

// sites copies a plane's rows end to end into a site bitset.
func (p *Lattice) sites(plane []uint64) []uint64 {
	n := p.n
	set := make([]uint64, (n*n+63)/64+1) // one word of slack for orBits
	for y := 0; y < n; y++ {
		orBits(set, y*n, plane[y*p.wpr:], 0, n)
	}
	return set[:len(set)-1]
}

// CountPlus returns the total number of +1 agents via popcount.
func (p *Lattice) CountPlus() int {
	c := 0
	for _, w := range p.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// OnesInRowRange returns the number of +1 agents in row y, columns
// [lo, hi] (no wrap; 0 <= lo <= hi < n), using masked popcounts.
func (p *Lattice) OnesInRowRange(y, lo, hi int) int {
	return p.planeRowRange(p.words, y, lo, hi)
}

// planeRowRange counts the set bits of an arbitrary plane in row y,
// columns [lo, hi] (no wrap), using masked popcounts.
func (p *Lattice) planeRowRange(plane []uint64, y, lo, hi int) int {
	row := y * p.wpr
	w0, w1 := lo>>6, hi>>6
	loMask := ^uint64(0) << uint(lo&63)
	hiMask := ^uint64(0) >> uint(63-hi&63)
	if w0 == w1 {
		return bits.OnesCount64(plane[row+w0] & loMask & hiMask)
	}
	c := bits.OnesCount64(plane[row+w0] & loMask)
	for k := w0 + 1; k < w1; k++ {
		c += bits.OnesCount64(plane[row+k])
	}
	return c + bits.OnesCount64(plane[row+w1]&hiMask)
}

// planeRow returns row y of a plane in the flat layout.
func (p *Lattice) planeRow(plane []uint64) func(y int) []uint64 {
	return func(y int) []uint64 { return plane[y*p.wpr : (y+1)*p.wpr] }
}

// occupiedRows returns the row source of the occupancy plane: the
// plane's rows, or one row of n occupied columns for every y when the
// lattice carries no plane.
func (p *Lattice) occupiedRows() func(y int) []uint64 {
	if p.occ != nil {
		return p.planeRow(p.occ)
	}
	full := fullRow(p.n)
	return func(int) []uint64 { return full }
}

// PlusWindowCounts returns the per-site +1 counts under either
// boundary: wrapped windows on the torus, edge-clamped windows when
// open — the popcount equivalent of grid.Lattice.PlusWindowCounts. It
// panics if a torus window wraps onto itself (2*radius+1 > n).
func (p *Lattice) PlusWindowCounts(radius int, open bool) []int32 {
	return windowCounts(p.n, radius, open, p.planeRow(p.words))
}

// OccupiedWindowCounts returns the per-site occupied-site counts —
// the popcount equivalent of grid.Lattice.OccupiedWindowCounts. On a
// fully occupied lattice this is the geometric window area.
func (p *Lattice) OccupiedWindowCounts(radius int, open bool) []int32 {
	if p.occ == nil {
		return grid.WindowAreas(p.n, radius, open)
	}
	return windowCounts(p.n, radius, open, p.planeRow(p.occ))
}

// VisitPlusWindowLanes streams the per-site +1 window counts one row at
// a time in ascending row order and in the packed 16-bit lane form of
// the fast engines (site x in lane x&3 of word x>>2 of the row's
// LaneWords(n) words, lanes past column n-1 zero), without
// materializing the n^2 output: the buffer passed to visit is only
// valid during the call and must not be modified. The window area
// (2*radius+1)^2 must fit a lane; the fast engines' neighborhoods do.
func (p *Lattice) VisitPlusWindowLanes(radius int, open bool, visit func(y int, lanes []uint64)) {
	visitLanes(p.n, radius, open, p.planeRow(p.words), visit)
}

// VisitOccupiedWindowLanes streams the per-site occupied-site window
// counts like VisitPlusWindowLanes. On a fully occupied lattice the
// rows hold the geometric window areas.
func (p *Lattice) VisitOccupiedWindowLanes(radius int, open bool, visit func(y int, lanes []uint64)) {
	visitLanes(p.n, radius, open, p.occupiedRows(), visit)
}

func wrap(a, n int) int {
	a %= n
	if a < 0 {
		a += n
	}
	return a
}

// EqualLattice verifies bit-for-bit agreement with a reference lattice
// and returns a descriptive error on the first mismatch. It is the
// consistency check between the packed hot-path state and its mirror.
func (p *Lattice) EqualLattice(l *grid.Lattice) error {
	if l.N() != p.n {
		return fmt.Errorf("fastgrid: side %d != reference side %d", p.n, l.N())
	}
	for i := 0; i < p.n*p.n; i++ {
		plus := l.SpinAt(i) == grid.Plus
		if p.Bit(i) != plus {
			return fmt.Errorf("fastgrid: spin mismatch at site %d: packed %v, reference %v", i, p.Bit(i), plus)
		}
		if p.OccupiedBit(i) != l.OccupiedAt(i) {
			return fmt.Errorf("fastgrid: occupancy mismatch at site %d: packed %v, reference %v", i, p.OccupiedBit(i), l.OccupiedAt(i))
		}
	}
	return nil
}

// Package fastgrid implements the bit-packed representation of the
// lattice used by the fast engines: one spin per bit in []uint64 row
// words (+1 agents are set bits), with popcount-based
// (math/bits.OnesCount64) window counting. Vacancy scenarios add a
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
	"gridseg/internal/scratch"
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

// planeRowWindow counts the set bits of a plane in row y over the
// column window [x-radius, x+radius], wrapped on the torus or clamped
// to [0, n) under the open boundary.
func (p *Lattice) planeRowWindow(plane []uint64, y, x, radius int, open bool) int {
	lo, hi := x-radius, x+radius
	if open {
		if lo < 0 {
			lo = 0
		}
		if hi >= p.n {
			hi = p.n - 1
		}
		return p.planeRowRange(plane, y, lo, hi)
	}
	switch {
	case lo < 0:
		return p.planeRowRange(plane, y, 0, hi) + p.planeRowRange(plane, y, p.n+lo, p.n-1)
	case hi >= p.n:
		return p.planeRowRange(plane, y, lo, p.n-1) + p.planeRowRange(plane, y, 0, hi-p.n)
	default:
		return p.planeRowRange(plane, y, lo, hi)
	}
}

// visitWindowCounts is the streaming window-count core shared by the
// flat and tiled layouts: it emits per-site window counts one row at a
// time, in ascending row order, holding only a ring of the 2*radius+1
// live horizontal row sums plus one accumulator row — O(n*radius)
// scratch from the free lists, independent of the n^2 output size.
// rowWindows(y, row) must fill row[x] with the count of the row-y
// column window centered at x (wrapped or clamped per the boundary);
// visit receives each output row in a buffer that is only valid during
// the call.
func visitWindowCounts(n, radius int, open bool, rowWindows func(y int, row []int32), visit func(y int, row []int32)) {
	if !open && 2*radius+1 > n {
		panic("fastgrid: window larger than torus")
	}
	span := 2*radius + 1
	bp := scratch.I32(n * span)
	buf := *bp
	op := scratch.I32(2 * n)
	acc := (*op)[:n]
	out := (*op)[n : 2*n]
	for x := range acc {
		acc[x] = 0
	}
	// slot returns the ring row of the unwrapped row index y; load
	// fills it from the plane (wrapping y on the torus). Rows enter the
	// ring in ascending unwrapped order and stay live for exactly span
	// emissions, so consecutive indices never collide.
	slot := func(y int) []int32 {
		r := y % span
		if r < 0 {
			r += span
		}
		return buf[r*n : r*n+n]
	}
	load := func(y int) []int32 {
		row := slot(y)
		yy := y
		if !open {
			yy = wrap(y, n)
		}
		rowWindows(yy, row)
		return row
	}
	// Pre-accumulate the rows above the first output row: unwrapped
	// rows -radius..radius-1 on the torus, the clamped prefix
	// 0..min(radius, n)-1 under the open boundary.
	first, last := -radius, radius-1
	if open {
		first = 0
		if last > n-1 {
			last = n - 1
		}
	}
	for y := first; y <= last; y++ {
		for x, v := range load(y) {
			acc[x] += v
		}
	}
	for y := 0; y < n; y++ {
		if enter := y + radius; !open || enter < n {
			for x, v := range load(enter) {
				acc[x] += v
			}
		}
		copy(out, acc)
		visit(y, out)
		if leave := y - radius; !open || leave >= 0 {
			for x, v := range slot(leave) {
				acc[x] -= v
			}
		}
	}
	scratch.PutI32(op)
	scratch.PutI32(bp)
}

// planeWindowCounts materializes the streaming counts of a bit plane
// into a freshly allocated per-site array (the non-streaming
// convenience form).
func (p *Lattice) planeWindowCounts(plane []uint64, radius int, open bool) []int32 {
	out := make([]int32, p.n*p.n)
	p.planeWindowCountsVisit(plane, radius, open, func(y int, row []int32) {
		copy(out[y*p.n:(y+1)*p.n], row)
	})
	return out
}

// planeWindowCountsVisit streams the window counts of a bit plane
// through visitWindowCounts.
func (p *Lattice) planeWindowCountsVisit(plane []uint64, radius int, open bool, visit func(y int, row []int32)) {
	visitWindowCounts(p.n, radius, open, func(y int, row []int32) {
		p.planeRowWindows(plane, y, radius, open, row)
	}, visit)
}

// planeRowWindows fills row[x] with planeRowWindow(plane, y, x, radius,
// open) for every column x. Only the first window takes masked
// popcounts; each later one slides a column to the right, adding the
// bit that enters and dropping the bit that leaves, so a row costs
// O(n) bit reads whatever the radius.
func (p *Lattice) planeRowWindows(plane []uint64, y, radius int, open bool, row []int32) {
	n := p.n
	words := plane[y*p.wpr : (y+1)*p.wpr]
	bit := func(x int) int32 { return int32(words[x>>6] >> uint(x&63) & 1) }
	c := int32(p.planeRowWindow(plane, y, 0, radius, open))
	row[0] = c
	for x := 1; x < n; x++ {
		in, out := x+radius, x-radius-1
		if open {
			if in < n {
				c += bit(in)
			}
			if out >= 0 {
				c -= bit(out)
			}
		} else {
			// The torus window fits the row (2*radius+1 <= n), so one
			// wrap brings both columns back into [0, n).
			if in >= n {
				in -= n
			}
			if out < 0 {
				out += n
			}
			c += bit(in) - bit(out)
		}
		row[x] = c
	}
}

// WindowCounts returns, for every site u (row-major), the number of +1
// agents in the Chebyshev ball of the given radius centered at u —
// the popcount-based equivalent of grid.Lattice.WindowCounts. It
// panics if the window wraps onto itself (2*radius+1 > n).
func (p *Lattice) WindowCounts(radius int) []int32 {
	return p.planeWindowCounts(p.words, radius, false)
}

// PlusWindowCounts returns the per-site +1 counts under either
// boundary: wrapped windows on the torus, edge-clamped windows when
// open — the popcount equivalent of grid.Lattice.PlusWindowCounts.
func (p *Lattice) PlusWindowCounts(radius int, open bool) []int32 {
	return p.planeWindowCounts(p.words, radius, open)
}

// OccupiedWindowCounts returns the per-site occupied-site counts —
// the popcount equivalent of grid.Lattice.OccupiedWindowCounts. On a
// fully occupied lattice this is the geometric window area.
func (p *Lattice) OccupiedWindowCounts(radius int, open bool) []int32 {
	if p.occ == nil {
		return grid.WindowAreas(p.n, radius, open)
	}
	return p.planeWindowCounts(p.occ, radius, open)
}

// VisitPlusWindowCounts streams the per-site +1 window counts one row
// at a time in ascending row order, without materializing the n^2
// output: the row buffer passed to visit is reused across calls. This
// is the bounded-memory form the fast engines build their count lanes
// from on giant grids.
func (p *Lattice) VisitPlusWindowCounts(radius int, open bool, visit func(y int, row []int32)) {
	p.planeWindowCountsVisit(p.words, radius, open, visit)
}

// VisitOccupiedWindowCounts streams the per-site occupied-site window
// counts like VisitPlusWindowCounts. On a fully occupied lattice the
// rows hold the geometric window areas.
func (p *Lattice) VisitOccupiedWindowCounts(radius int, open bool, visit func(y int, row []int32)) {
	if p.occ != nil {
		p.planeWindowCountsVisit(p.occ, radius, open, visit)
		return
	}
	visitWindowAreas(p.n, radius, open, visit)
}

// visitWindowAreas streams the geometric window areas row by row — the
// occupied counts of a fully occupied lattice, with no plane to scan.
func visitWindowAreas(n, radius int, open bool, visit func(y int, row []int32)) {
	rp := scratch.I32(n)
	row := *rp
	if !open {
		if 2*radius+1 > n {
			panic("fastgrid: window larger than torus")
		}
		full := int32((2*radius + 1) * (2*radius + 1))
		for x := range row {
			row[x] = full
		}
		for y := 0; y < n; y++ {
			visit(y, row)
		}
		scratch.PutI32(rp)
		return
	}
	span := func(a int) int32 {
		lo, hi := a-radius, a+radius
		if lo < 0 {
			lo = 0
		}
		if hi > n-1 {
			hi = n - 1
		}
		return int32(hi - lo + 1)
	}
	sp := scratch.I32(n)
	xspan := *sp
	for x := range xspan {
		xspan[x] = span(x)
	}
	for y := 0; y < n; y++ {
		ys := span(y)
		for x := range row {
			row[x] = ys * xspan[x]
		}
		visit(y, row)
	}
	scratch.PutI32(sp)
	scratch.PutI32(rp)
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

package fastgrid

import (
	"fmt"
	"math/bits"

	"gridseg/internal/grid"
)

// DefaultTileSide is the tile side used when a caller passes 0: a
// 64x64 tile is one cache line of spin words per tile row block and
// keeps a whole tile's plane in 512 bytes.
const DefaultTileSide = 64

// Tiled is the tile-blocked packed layout for giant grids: the n x n
// lattice is cut into square tiles of side ts (a multiple of 64), and
// each tile stores its spin bits — plus, under vacancy scenarios, its
// occupancy bits — contiguously, so a window pass over a tile touches
// one small resident block instead of striding across n-bit rows whose
// ends evict each other from cache once n is large.
//
// The halo story is explicit: edge tiles are zero-padded — bits at
// global coordinates >= n exist in the last tile row/column but always
// read 0 and are never set — and every row-range query clamps its
// column span to [0, n). Window counts gather each lattice row from
// its tiles and run the flat layout's streaming core, which applies
// the torus wrap or the open-boundary clamp.
//
// Tiled satisfies grid.LatticeView, so the streaming observables in
// internal/measure run on it unchanged. The zero value is not usable;
// construct with NewTiled or TiledFromView.
type Tiled struct {
	n      int // lattice side
	ts     int // tile side (multiple of 64)
	tpr    int // tiles per row/column = ceil(n/ts)
	wpt    int // words per tile row = ts/64
	twords int // words per tile = ts*wpt
	spin   []uint64
	// occ is the occupancy plane, same layout; nil when fully occupied.
	occ []uint64
}

// NewTiled returns an all-minus, fully occupied tiled lattice of side
// n with the given tile side (0 means DefaultTileSide). The tile side
// must be a positive multiple of 64 so tile rows stay word-aligned.
func NewTiled(n, ts int) (*Tiled, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fastgrid: tiled side %d must be positive", n)
	}
	if ts == 0 {
		ts = DefaultTileSide
	}
	if ts < 64 || ts%64 != 0 {
		return nil, fmt.Errorf("fastgrid: tile side %d must be a positive multiple of 64", ts)
	}
	tpr := (n + ts - 1) / ts
	wpt := ts / 64
	t := &Tiled{n: n, ts: ts, tpr: tpr, wpt: wpt, twords: ts * wpt}
	t.spin = make([]uint64, tpr*tpr*t.twords)
	return t, nil
}

// TiledFromView packs any lattice view into the tiled layout,
// materializing an occupancy plane iff the view has vacancies.
func TiledFromView(v grid.LatticeView, ts int) (*Tiled, error) {
	t, err := NewTiled(v.N(), ts)
	if err != nil {
		return nil, err
	}
	if v.HasVacancies() {
		t.occ = make([]uint64, len(t.spin))
	}
	n := t.n
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			i := y*n + x
			switch v.SpinAt(i) {
			case grid.Plus:
				t.SetSpinBit(i, true)
				if t.occ != nil {
					t.SetOccupiedBit(i, true)
				}
			case grid.Minus:
				if t.occ != nil {
					t.SetOccupiedBit(i, true)
				}
			}
		}
	}
	return t, nil
}

// N returns the side length.
func (t *Tiled) N() int { return t.n }

// Sites returns the number of sites, n^2.
func (t *Tiled) Sites() int { return t.n * t.n }

// TileSide returns the tile side length.
func (t *Tiled) TileSide() int { return t.ts }

// Tiles returns the number of tiles per row (and per column).
func (t *Tiled) Tiles() int { return t.tpr }

// HasVacancies reports whether the lattice carries an occupancy plane.
func (t *Tiled) HasVacancies() bool { return t.occ != nil }

// word returns the word index and bit mask of global coordinates
// (x, y) within a plane.
func (t *Tiled) word(x, y int) (int, uint64) {
	tx, ty := x/t.ts, y/t.ts
	lx, ly := x-tx*t.ts, y-ty*t.ts
	return (ty*t.tpr+tx)*t.twords + ly*t.wpt + lx>>6, 1 << uint(lx&63)
}

// Bit reports whether the spin at row-major site index i is +1.
func (t *Tiled) Bit(i int) bool {
	w, m := t.word(i%t.n, i/t.n)
	return t.spin[w]&m != 0
}

// OccupiedBit reports whether site i holds an agent (always true
// without an occupancy plane).
func (t *Tiled) OccupiedBit(i int) bool {
	if t.occ == nil {
		return true
	}
	w, m := t.word(i%t.n, i/t.n)
	return t.occ[w]&m != 0
}

// OccupiedAt is OccupiedBit under the grid.LatticeView name.
func (t *Tiled) OccupiedAt(i int) bool { return t.OccupiedBit(i) }

// SpinAt returns the spin at row-major index i in the reference
// representation (None for a vacant site).
func (t *Tiled) SpinAt(i int) grid.Spin {
	if !t.OccupiedBit(i) {
		return grid.None
	}
	if t.Bit(i) {
		return grid.Plus
	}
	return grid.Minus
}

// The tiled lattice satisfies the shared read interface.
var _ grid.LatticeView = (*Tiled)(nil)

// SetSpinBit writes the spin bit at row-major site index i (true = +1).
func (t *Tiled) SetSpinBit(i int, plus bool) {
	w, m := t.word(i%t.n, i/t.n)
	if plus {
		t.spin[w] |= m
	} else {
		t.spin[w] &^= m
	}
}

// SetOccupiedBit writes the occupancy bit at row-major site index i.
// It panics without an occupancy plane.
func (t *Tiled) SetOccupiedBit(i int, occupied bool) {
	if t.occ == nil {
		panic("fastgrid: SetOccupiedBit on a tiled lattice without an occupancy plane")
	}
	w, m := t.word(i%t.n, i/t.n)
	if occupied {
		t.occ[w] |= m
	} else {
		t.occ[w] &^= m
	}
}

// FlipBit negates the spin at row-major site index i and reports
// whether the new spin is +1.
func (t *Tiled) FlipBit(i int) bool {
	w, m := t.word(i%t.n, i/t.n)
	t.spin[w] ^= m
	return t.spin[w]&m != 0
}

// planeRowRange counts the set bits of a plane in row y, columns
// [lo, hi] (no wrap; 0 <= lo <= hi < n), walking the tiles the span
// crosses with masked popcounts inside each.
func (t *Tiled) planeRowRange(plane []uint64, y, lo, hi int) int {
	ty := y / t.ts
	ly := y - ty*t.ts
	c := 0
	for tx := lo / t.ts; tx <= hi/t.ts; tx++ {
		base := (ty*t.tpr+tx)*t.twords + ly*t.wpt
		a, b := lo-tx*t.ts, hi-tx*t.ts
		if a < 0 {
			a = 0
		}
		if b > t.ts-1 {
			b = t.ts - 1
		}
		w0, w1 := a>>6, b>>6
		loMask := ^uint64(0) << uint(a&63)
		hiMask := ^uint64(0) >> uint(63-b&63)
		if w0 == w1 {
			c += bits.OnesCount64(plane[base+w0] & loMask & hiMask)
			continue
		}
		c += bits.OnesCount64(plane[base+w0] & loMask)
		for k := w0 + 1; k < w1; k++ {
			c += bits.OnesCount64(plane[base+k])
		}
		c += bits.OnesCount64(plane[base+w1] & hiMask)
	}
	return c
}

// OnesInRowRange returns the number of +1 agents in row y, columns
// [lo, hi] (no wrap), mirroring the flat layout's method.
func (t *Tiled) OnesInRowRange(y, lo, hi int) int {
	return t.planeRowRange(t.spin, y, lo, hi)
}

// CountPlus returns the total number of +1 agents via popcount (the
// zero-padded halo bits of edge tiles never hold agents).
func (t *Tiled) CountPlus() int {
	c := 0
	for _, w := range t.spin {
		c += bits.OnesCount64(w)
	}
	return c
}

// planeRows returns the row source of a plane for the shared
// streaming core: row y gathered from its tiles into one flat row
// buffer (the zero-padded halo of edge tiles past column n-1 is left
// out).
func (t *Tiled) planeRows(plane []uint64) func(y int) []uint64 {
	row := make([]uint64, t.tpr*t.wpt)
	wpr := (t.n + 63) / 64
	return func(y int) []uint64 {
		ty, ly := y/t.ts, y%t.ts
		for tx := 0; tx < t.tpr; tx++ {
			base := (ty*t.tpr+tx)*t.twords + ly*t.wpt
			copy(row[tx*t.wpt:(tx+1)*t.wpt], plane[base:base+t.wpt])
		}
		return row[:wpr]
	}
}

// PlusWindowCounts returns the per-site +1 window counts under either
// boundary, matching the flat layout bit for bit.
func (t *Tiled) PlusWindowCounts(radius int, open bool) []int32 {
	return windowCounts(t.n, radius, open, t.planeRows(t.spin))
}

// OccupiedWindowCounts returns the per-site occupied-site window
// counts, matching the flat layout bit for bit.
func (t *Tiled) OccupiedWindowCounts(radius int, open bool) []int32 {
	if t.occ == nil {
		return grid.WindowAreas(t.n, radius, open)
	}
	return windowCounts(t.n, radius, open, t.planeRows(t.occ))
}

// TileCounts returns, per tile in tile-row-major order, the number of
// +1 agents and the number of occupied sites — the per-block summary
// the sampler debug dump prints (on a fully occupied lattice occ is
// the in-bounds tile area).
func (t *Tiled) TileCounts() (plus, occ []int32) {
	nt := t.tpr * t.tpr
	plus = make([]int32, nt)
	occ = make([]int32, nt)
	for ti := 0; ti < nt; ti++ {
		base := ti * t.twords
		for _, w := range t.spin[base : base+t.twords] {
			plus[ti] += int32(bits.OnesCount64(w))
		}
		if t.occ != nil {
			for _, w := range t.occ[base : base+t.twords] {
				occ[ti] += int32(bits.OnesCount64(w))
			}
			continue
		}
		// Fully occupied: the in-bounds area of this (possibly edge)
		// tile.
		tx, ty := ti%t.tpr, ti/t.tpr
		wdt, hgt := t.n-tx*t.ts, t.n-ty*t.ts
		if wdt > t.ts {
			wdt = t.ts
		}
		if hgt > t.ts {
			hgt = t.ts
		}
		occ[ti] = int32(wdt * hgt)
	}
	return plus, occ
}

// EqualView verifies site-for-site agreement with any lattice view and
// returns a descriptive error on the first mismatch.
func (t *Tiled) EqualView(v grid.LatticeView) error {
	if v.N() != t.n {
		return fmt.Errorf("fastgrid: tiled side %d != view side %d", t.n, v.N())
	}
	for i := 0; i < t.n*t.n; i++ {
		if got, want := t.SpinAt(i), v.SpinAt(i); got != want {
			return fmt.Errorf("fastgrid: tiled spin mismatch at site %d: %v, view %v", i, got, want)
		}
	}
	return nil
}

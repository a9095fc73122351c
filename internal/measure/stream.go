package measure

import (
	"math/bits"

	"gridseg/internal/fastgrid"
	"gridseg/internal/grid"
	"gridseg/internal/scratch"
)

// The segregation observables are computed from one bit-packed copy of
// the lattice in the fastgrid layout: a plus plane (set bit = +1 agent)
// and an occupancy plane (set bit = agent), row y in words
// [y*stride, (y+1)*stride), column x at bit x%64 of word x/64, padding
// bits above column n-1 zero. Pack reads the view once, site by site;
// every kernel after that works on whole words. Magnetization and
// interface density are popcounts; the mean same-type fraction and Phi
// slide column sums down the rows; clusters come from a run-based
// union-find (clusters.go). Scratch is the two planes (n^2/4 bytes),
// O(n+w) column sums, O(n) per live row of runs, and one union-find
// node per run that starts a new component. The observables are
// scenario-aware — open boundaries clamp windows and drop the seam
// pairs, and only agents are measured on vacancy lattices — and
// reduce exactly to the classic torus definitions on a fully occupied
// torus (open=false). They keep the integer counts and the float
// summation order of the per-site scalar forms they replaced (the
// oracles in scalar_test.go), which keeps artifacts byte-stable.

// Packed is a bit-packed copy of a lattice view. Its planes come from
// the scratch free list: call Release when done measuring.
type Packed struct {
	n, stride int
	plus, occ []uint64
	buf       *[]uint64
}

// Pack copies any lattice view (reference or flat packed) into
// pooled bit planes.
func Pack(v grid.LatticeView) *Packed {
	n := v.N()
	stride := (n + 63) / 64
	words := n * stride
	bp := scratch.U64(2 * words)
	p := &Packed{n: n, stride: stride, plus: (*bp)[:words:words], occ: (*bp)[words:], buf: bp}
	fastgrid.PackPlanes(v, p.plus, p.occ)
	return p
}

// Release returns the planes to the free list. The Packed must not be
// used afterwards.
func (p *Packed) Release() {
	scratch.PutU64(p.buf)
	p.buf, p.plus, p.occ = nil, nil, nil
}

// Segregation holds the segregation observables of one configuration.
type Segregation struct {
	// InterfaceDensity is the domain-wall density: the fraction of
	// 4-adjacent agent-agent pairs with opposite types, skipping vacant
	// partners and, when open, the wrapping pairs. It is 0 on a
	// monochromatic lattice and ~1/2 on an independent half-half one.
	InterfaceDensity float64
	// MeanSameFraction is the average over agents of s(u): the
	// fraction of same-type agents among the occupied sites of u's
	// radius-w window (clamped at the edges when open), including u.
	// It is 1 on a monochromatic lattice, ~1/2 on an independent
	// half-half one, and 0 on an empty lattice.
	MeanSameFraction float64
	// Magnetization is (plus - minus) / agents, 0 on an empty lattice.
	Magnetization float64
	// Clusters are the connected same-type clusters.
	Clusters ClusterStats
}

// SegregationView packs a view once and measures every segregation
// observable with radius-w windows.
func SegregationView(v grid.LatticeView, w int, open bool) Segregation {
	p := Pack(v)
	defer p.Release()
	return p.Segregation(w, open)
}

// Segregation measures every segregation observable with radius-w
// windows. It panics if a torus window wraps onto itself
// (2w+1 > n).
func (p *Packed) Segregation(w int, open bool) Segregation {
	return Segregation{
		InterfaceDensity: p.interfaceDensity(open),
		MeanSameFraction: p.meanSameFraction(w, open),
		Magnetization:    p.magnetization(),
		Clusters:         p.clusters(open),
	}
}

// PhiView returns the paper's Lyapunov function — the sum over agents
// u of the same-type count of N(u), including u — of any lattice view.
// It agrees exactly with the engines' maintained Phi.
func PhiView(v grid.LatticeView, w int, open bool) int64 {
	p := Pack(v)
	defer p.Release()
	phi, _, _ := p.sameSums(w, open)
	return phi
}

func (p *Packed) magnetization() float64 {
	plus, agents := 0, 0
	for i := range p.plus {
		plus += bits.OnesCount64(p.plus[i])
		agents += bits.OnesCount64(p.occ[i])
	}
	if agents == 0 {
		return 0
	}
	minus := agents - plus
	return float64(plus-minus) / float64(plus+minus)
}

// rightNeighbours returns, for word k of a row of the plane, the word
// whose bit b holds the neighbour to the right of bit b: column 0
// wraps onto column n-1 on the torus, and column n-1 has no right
// neighbour (a zero bit) when open.
func (p *Packed) rightNeighbours(plane []uint64, row, k int, open bool) uint64 {
	x := plane[row+k] >> 1
	if k+1 < p.stride {
		return x | plane[row+k+1]<<63
	}
	if !open {
		x |= (plane[row] & 1) << (uint(p.n-1) & 63)
	}
	return x
}

func (p *Packed) interfaceDensity(open bool) float64 {
	n, st := p.n, p.stride
	mismatched, pairs := 0, 0
	for y := 0; y < n; y++ {
		row := y * st
		down := (y + 1) % n * st
		vertical := !open || y+1 < n
		for k := 0; k < st; k++ {
			s, o := p.plus[row+k], p.occ[row+k]
			both := o & p.rightNeighbours(p.occ, row, k, open)
			pairs += bits.OnesCount64(both)
			mismatched += bits.OnesCount64((s ^ p.rightNeighbours(p.plus, row, k, open)) & both)
			if vertical {
				both = o & p.occ[down+k]
				pairs += bits.OnesCount64(both)
				mismatched += bits.OnesCount64((s ^ p.plus[down+k]) & both)
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	return float64(mismatched) / float64(pairs)
}

func (p *Packed) meanSameFraction(w int, open bool) float64 {
	_, acc, agents := p.sameSums(w, open)
	if agents == 0 {
		return 0
	}
	return acc / float64(agents)
}

// sameSums returns, over the agents in row-major order, the sum of
// their same-type counts over their radius-w windows (wrapped on the
// torus, clamped when open), the sum of their same-type fractions
// float64(same)/float64(occupied), and the number of agents.
func (p *Packed) sameSums(w int, open bool) (phi int64, frac float64, agents int) {
	st := p.stride
	p.visitWindowRows(w, open, func(y int, counts []uint64) {
		// Accumulate in locals: the captured sums live in memory, and
		// a store and reload per agent would lengthen the add chain.
		// The summation order is unchanged.
		ph, fr := phi, frac
		row := y * st
		for k := 0; k < st; k++ {
			s, o := p.plus[row+k], p.occ[row+k]
			agents += bits.OnesCount64(o)
			c := counts[k*64:]
			for o != 0 {
				b := bits.TrailingZeros64(o)
				o &= o - 1
				// same = plus for a +1 agent, occ - plus for a -1 one.
				plus, occ := uint32(c[b]), uint32(c[b]>>32)
				same := occ - plus + uint32(s>>uint(b)&1)*(2*plus-occ)
				ph += int64(same)
				fr += float64(same) / float64(occ)
			}
		}
		phi, frac = ph, fr
	})
	return phi, frac, agents
}

// visitWindowRows streams, for every row y in ascending order, the
// window counts of each site of the row: the +1 agents of its
// radius-r Chebyshev window in the low 32 bits and its occupied sites
// in the high 32 (wrapped on the torus, clamped when open), so one
// add moves both counts and any sum of counts stays exact in modular
// arithmetic. It keeps one row of column sums over the 2r+1 live
// rows: moving down a row adds the bits of the entering row and
// subtracts those of the leaving row, touching only the columns where
// the two differ, and each output row is one horizontal slide over the
// column sums. The row passed to visit is only valid during the call.
func (p *Packed) visitWindowRows(r int, open bool, visit func(y int, counts []uint64)) {
	n, st := p.n, p.stride
	if !open && 2*r+1 > n {
		panic("measure: window larger than torus")
	}
	bp := scratch.U64(2*n + 2*r)
	// cols holds the column sums at offset r, with the r columns either
	// side wrapped around (torus) or zero (open): the window of column
	// x is cols[x : x+2r+1].
	cols := (*bp)[:n+2*r]
	counts := (*bp)[n+2*r:]
	clear(cols)
	mid := cols[r : r+n]
	// rowAt returns the first word of unwrapped row y, or -1 for a row
	// outside [0, n) under the open boundary, which is empty.
	rowAt := func(y int) int {
		if !open {
			return (y%n + n) % n * st
		}
		if y < 0 || y >= n {
			return -1
		}
		return y * st
	}
	// move adds the row at word ri to the column sums and subtracts the
	// row at word ro; -1 stands for an empty row.
	move := func(ri, ro int) {
		for k := 0; k < st; k++ {
			var ip, io, op, oo uint64
			if ri >= 0 {
				ip, io = p.plus[ri+k], p.occ[ri+k]
			}
			if ro >= 0 {
				op, oo = p.plus[ro+k], p.occ[ro+k]
			}
			sums := mid[k*64:]
			for m := ip &^ op; m != 0; m &= m - 1 {
				sums[bits.TrailingZeros64(m)]++
			}
			for m := op &^ ip; m != 0; m &= m - 1 {
				sums[bits.TrailingZeros64(m)]--
			}
			for m := io &^ oo; m != 0; m &= m - 1 {
				sums[bits.TrailingZeros64(m)] += 1 << 32
			}
			for m := oo &^ io; m != 0; m &= m - 1 {
				sums[bits.TrailingZeros64(m)] -= 1 << 32
			}
		}
	}
	// Rows -r..r-1 are in the window before the first output row.
	for y := -r; y < r; y++ {
		move(rowAt(y), -1)
	}
	for y := 0; y < n; y++ {
		out := -1
		if y > 0 {
			out = rowAt(y - 1 - r)
		}
		move(rowAt(y+r), out)
		if !open {
			copy(cols[:r], mid[n-r:])
			copy(cols[r+n:], mid[:r])
		}
		var c uint64
		for _, v := range cols[:2*r] {
			c += v
		}
		for x := range counts {
			c += cols[x+2*r]
			counts[x] = c
			c -= cols[x]
		}
		visit(y, counts)
	}
	scratch.PutU64(bp)
}

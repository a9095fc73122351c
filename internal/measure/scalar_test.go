package measure

import (
	"sort"

	"gridseg/internal/grid"
	"gridseg/internal/scratch"
)

// Scalar forms of the segregation observables: per-site passes over
// grid.LatticeView, one observable per pass. They are the oracles for
// the packed kernels, which must reproduce them exactly — the same
// integer counts, the same float summation order and, for clusters,
// the same Sizes order.

// scalarPlusOccCounts streams, for every row y in ascending order, the
// per-site +1 window counts and occupied-site window counts of the
// radius-`radius` Chebyshev windows (wrapped on the torus, clamped
// when open). The two row buffers are reused across calls and only
// valid during the visit.
func scalarPlusOccCounts(v grid.LatticeView, radius int, open bool, visit func(y int, plusRow, occRow []int32)) {
	n := v.N()
	if !open && 2*radius+1 > n {
		panic("measure: window larger than torus")
	}
	span := 2*radius + 1
	bp := scratch.I32(2 * n * span)
	buf := *bp
	ap := scratch.I32(4 * n)
	accP := (*ap)[0*n : 1*n]
	accO := (*ap)[1*n : 2*n]
	outP := (*ap)[2*n : 3*n]
	outO := (*ap)[3*n : 4*n]
	pp := scratch.I32(2 * (n + 1))
	preP := (*pp)[: n+1 : n+1]
	preO := (*pp)[n+1:]
	for x := 0; x < n; x++ {
		accP[x], accO[x] = 0, 0
	}
	slot := func(y int) (p, o []int32) {
		r := y % span
		if r < 0 {
			r += span
		}
		off := 2 * r * n
		return buf[off : off+n], buf[off+n : off+2*n]
	}
	// load fills the ring rows of unwrapped row index y with the
	// horizontal window sums of lattice row wrap(y), via one prefix-sum
	// scan of the row's spins.
	load := func(y int) (p, o []int32) {
		rowP, rowO := slot(y)
		yy := y
		if !open {
			yy = ((y % n) + n) % n
		}
		base := yy * n
		preP[0], preO[0] = 0, 0
		for x := 0; x < n; x++ {
			preP[x+1], preO[x+1] = preP[x], preO[x]
			switch v.SpinAt(base + x) {
			case grid.Plus:
				preP[x+1]++
				preO[x+1]++
			case grid.Minus:
				preO[x+1]++
			}
		}
		for x := 0; x < n; x++ {
			lo, hi := x-radius, x+radius+1
			switch {
			case open:
				if lo < 0 {
					lo = 0
				}
				if hi > n {
					hi = n
				}
				rowP[x] = preP[hi] - preP[lo]
				rowO[x] = preO[hi] - preO[lo]
			case lo < 0:
				rowP[x] = preP[hi] + preP[n] - preP[n+lo]
				rowO[x] = preO[hi] + preO[n] - preO[n+lo]
			case hi > n:
				rowP[x] = preP[n] - preP[lo] + preP[hi-n]
				rowO[x] = preO[n] - preO[lo] + preO[hi-n]
			default:
				rowP[x] = preP[hi] - preP[lo]
				rowO[x] = preO[hi] - preO[lo]
			}
		}
		return rowP, rowO
	}
	first, last := -radius, radius-1
	if open {
		first = 0
		if last > n-1 {
			last = n - 1
		}
	}
	for y := first; y <= last; y++ {
		p, o := load(y)
		for x := 0; x < n; x++ {
			accP[x] += p[x]
			accO[x] += o[x]
		}
	}
	for y := 0; y < n; y++ {
		if enter := y + radius; !open || enter < n {
			p, o := load(enter)
			for x := 0; x < n; x++ {
				accP[x] += p[x]
				accO[x] += o[x]
			}
		}
		copy(outP, accP)
		copy(outO, accO)
		visit(y, outP, outO)
		if leave := y - radius; !open || leave >= 0 {
			p, o := slot(leave)
			for x := 0; x < n; x++ {
				accP[x] -= p[x]
				accO[x] -= o[x]
			}
		}
	}
	scratch.PutI32(pp)
	scratch.PutI32(ap)
	scratch.PutI32(bp)
}

// scalarPhi returns the paper's Lyapunov function — the sum over agents
// u of the same-type count of N(u), including u — computed from any
// lattice view in one streaming pass. It agrees exactly with the
// engines' maintained Phi.
func scalarPhi(v grid.LatticeView, w int, open bool) int64 {
	n := v.N()
	var phi int64
	scalarPlusOccCounts(v, w, open, func(y int, plus, occ []int32) {
		base := y * n
		for x := 0; x < n; x++ {
			switch v.SpinAt(base + x) {
			case grid.Plus:
				phi += int64(plus[x])
			case grid.Minus:
				phi += int64(occ[x] - plus[x])
			}
		}
	})
	return phi
}

// scalarMeanSameFraction returns the average over agents of s(u): the
// fraction of same-type agents among the occupied sites of u's
// radius-w window (clamped at the edges when open), including u. It is
// 1 on a monochromatic lattice and ~1/2 on an independent half-half
// one; 0 on an empty lattice.
func scalarMeanSameFraction(v grid.LatticeView, w int, open bool) float64 {
	n := v.N()
	var acc float64
	agents := 0
	scalarPlusOccCounts(v, w, open, func(y int, plus, occ []int32) {
		base := y * n
		for x := 0; x < n; x++ {
			switch v.SpinAt(base + x) {
			case grid.Plus:
				acc += float64(plus[x]) / float64(occ[x])
			case grid.Minus:
				acc += float64(occ[x]-plus[x]) / float64(occ[x])
			default:
				continue
			}
			agents++
		}
	})
	if agents == 0 {
		return 0
	}
	return acc / float64(agents)
}

// scalarInterfaceDensity returns the domain-wall density: the fraction
// of 4-adjacent agent-agent pairs with opposite types, skipping vacant
// partners and, when open, wrapping pairs. It is 0 on a monochromatic
// lattice and ~1/2 on an independent half-half one. It reads each
// row's spins O(1) sites ahead, with no temporaries.
func scalarInterfaceDensity(v grid.LatticeView, open bool) float64 {
	n := v.N()
	mismatched, pairs := 0, 0
	at := func(x, y int) grid.Spin {
		if x >= n {
			x -= n
		}
		if y >= n {
			y -= n
		}
		return v.SpinAt(y*n + x)
	}
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			s := v.SpinAt(y*n + x)
			if s == grid.None {
				continue
			}
			if !open || x+1 < n {
				if o := at(x+1, y); o != grid.None {
					pairs++
					if o != s {
						mismatched++
					}
				}
			}
			if !open || y+1 < n {
				if o := at(x, y+1); o != grid.None {
					pairs++
					if o != s {
						mismatched++
					}
				}
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	return float64(mismatched) / float64(pairs)
}

// scalarMagnetization returns the occupied-site magnetization
// (plus - minus) / agents, 0 on an empty lattice.
func scalarMagnetization(v grid.LatticeView) float64 {
	plus, minus := 0, 0
	for i, sites := 0, v.Sites(); i < sites; i++ {
		switch v.SpinAt(i) {
		case grid.Plus:
			plus++
		case grid.Minus:
			minus++
		}
	}
	if plus+minus == 0 {
		return 0
	}
	return float64(plus-minus) / float64(plus+minus)
}

// scalarClusterStats computes the connected same-type cluster statistics
// (4-adjacency) of any lattice view with a streaming two-row
// union-find: labels live for two rows only, and per-cluster metadata
// is O(number of clusters) instead of O(n^2) label and queue fields.
// Sizes are emitted in ascending order of each cluster's minimal site
// index — exactly the discovery order of a row-major BFS labelling
// (the oracle in the tests), so the two agree element for element. On
// vacancy lattices the vacant sites form their own clusters, reported
// in Count and Sizes but never in LargestPlus or LargestMinus. The
// torus closes the seams by unioning the last column/row back onto the
// first; open=true leaves them apart.
func scalarClusterStats(v grid.LatticeView, open bool) ClusterStats {
	n := v.N()
	// Union-find with path halving; size, minimal site, and spin are
	// maintained at the roots.
	var parent, csize []int32
	var cmin []int32
	var cspin []grid.Spin
	find := func(i int32) int32 {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int32) int32 {
		a, b = find(a), find(b)
		if a == b {
			return a
		}
		if csize[a] < csize[b] {
			a, b = b, a
		}
		parent[b] = a
		csize[a] += csize[b]
		if cmin[b] < cmin[a] {
			cmin[a] = cmin[b]
		}
		return a
	}
	lp := scratch.I32(2 * n)
	prev := (*lp)[:n]
	cur := (*lp)[n:]
	frp := scratch.I32(n)
	firstRow := *frp
	prevSpin := make([]grid.Spin, n)
	curSpin := make([]grid.Spin, n)
	firstSpin := make([]grid.Spin, n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			s := v.SpinAt(y*n + x)
			id := int32(-1)
			if x > 0 && curSpin[x-1] == s {
				id = find(cur[x-1])
			}
			if y > 0 && prevSpin[x] == s {
				up := find(prev[x])
				if id == -1 {
					id = up
				} else if up != id {
					id = union(id, up)
				}
			}
			if id == -1 {
				id = int32(len(parent))
				parent = append(parent, id)
				csize = append(csize, 1)
				cmin = append(cmin, int32(y*n+x))
				cspin = append(cspin, s)
			} else {
				csize[id]++
			}
			cur[x] = id
			curSpin[x] = s
		}
		if !open && n > 1 && curSpin[0] == curSpin[n-1] {
			union(cur[0], cur[n-1])
		}
		if y == 0 {
			copy(firstRow, cur)
			copy(firstSpin, curSpin)
		}
		prev, cur = cur, prev
		prevSpin, curSpin = curSpin, prevSpin
	}
	// prev now holds the last row; close the vertical seam.
	if !open && n > 1 {
		for x := 0; x < n; x++ {
			if firstSpin[x] == prevSpin[x] {
				union(firstRow[x], prev[x])
			}
		}
	}
	type cluster struct {
		min, size int32
		spin      grid.Spin
	}
	roots := make([]cluster, 0, 16)
	for i := range parent {
		if parent[i] == int32(i) {
			roots = append(roots, cluster{min: cmin[i], size: csize[i], spin: cspin[i]})
		}
	}
	sort.Slice(roots, func(a, b int) bool { return roots[a].min < roots[b].min })
	var stats ClusterStats
	stats.Count = len(roots)
	stats.Sizes = make([]int, len(roots))
	for i, c := range roots {
		stats.Sizes[i] = int(c.size)
		switch c.spin {
		case grid.Plus:
			if int(c.size) > stats.LargestPlus {
				stats.LargestPlus = int(c.size)
			}
		case grid.Minus:
			if int(c.size) > stats.LargestMinus {
				stats.LargestMinus = int(c.size)
			}
		}
	}
	scratch.PutI32(frp)
	scratch.PutI32(lp)
	return stats
}

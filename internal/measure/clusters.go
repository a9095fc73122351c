package measure

import "math/bits"

// ClusterStats summarizes the connected same-type clusters of a lattice
// under 4-adjacency.
type ClusterStats struct {
	Count        int   // number of clusters
	Sizes        []int // size of every cluster, by ascending minimal site
	LargestPlus  int   // largest +1 cluster size (0 if none)
	LargestMinus int   // largest -1 cluster size (0 if none)
}

// Largest returns the size of the largest agent cluster of either type.
func (c ClusterStats) Largest() int { return max(c.LargestPlus, c.LargestMinus) }

// Site colours of the cluster labelling: the occupancy bit plus twice
// the spin bit, so vacant, Minus and Plus sites never share a colour.
const (
	colourMinus = 1
	colourPlus  = 3
)

// runRow is one row of maximal same-colour horizontal runs: a bit
// per column where a run starts, the number of runs starting in the
// words before each word, and the cluster node of each run.
type runRow struct {
	starts []uint64
	rank   []int32
	label  []int32
}

// at returns the index of the run covering column x.
func (r *runRow) at(x int) int {
	k, b := x>>6, uint(x&63)
	return int(r.rank[k]) + bits.OnesCount64(r.starts[k]&(2<<b-1)) - 1
}

func (r *runRow) copyFrom(o *runRow) {
	copy(r.starts, o.starts)
	copy(r.rank, o.rank)
	r.label = append(r.label[:0], o.label...)
}

// forest is the union-find over cluster nodes. Nodes are created in
// row-major order of the run that starts them, and a union always
// keeps the older root, so every root is its cluster's oldest node and
// sits at the cluster's minimal site.
type forest struct {
	parent, size []int32
	colour       []uint8
}

func (f *forest) add(size int32, colour uint8) int32 {
	id := int32(len(f.parent))
	f.parent = append(f.parent, id)
	f.size = append(f.size, size)
	f.colour = append(f.colour, colour)
	return id
}

// find returns the root of node i, halving the path on the way.
func (f *forest) find(i int32) int32 {
	for f.parent[i] != i {
		f.parent[i] = f.parent[f.parent[i]]
		i = f.parent[i]
	}
	return i
}

// union merges the trees of roots a and b under the older of the two
// and returns it.
func (f *forest) union(a, b int32) int32 {
	if a == b {
		return a
	}
	if b < a {
		a, b = b, a
	}
	f.parent[b] = a
	f.size[a] += f.size[b]
	return a
}

// clusters labels the connected same-colour clusters (4-adjacency)
// run by run, streaming two rows of runs. A row's runs start at column
// 0 and after every set bit of its colour-change mask. Where a run and
// a run of the row above overlap with the same colour, every column of
// the overlap is vertically same-coloured, and its first column starts
// one of the two runs; so the same-colour mask of the two rows, ANDed
// with both rows' start masks, has exactly one bit per pair of runs to
// merge. A run that merges with none starts a new node. On the torus
// the first and last run of each row merge when they share a colour,
// and the last and first row merge like adjacent rows. Sizes come out in ascending order of each
// cluster's minimal site — the discovery order of a row-major BFS
// labelling — with no sort. Vacant sites form their own clusters,
// reported in Count and Sizes but never in LargestPlus or
// LargestMinus.
func (p *Packed) clusters(open bool) ClusterStats {
	n, st := p.n, p.stride
	f := forest{
		parent: make([]int32, 0, n),
		size:   make([]int32, 0, n),
		colour: make([]uint8, 0, n),
	}
	newRow := func() *runRow {
		return &runRow{starts: make([]uint64, st), rank: make([]int32, st), label: make([]int32, 0, n)}
	}
	first, prev, cur := newRow(), newRow(), newRow()
	for y := 0; y < n; y++ {
		p.rowStarts(y, cur)
		row, up := y*st, (y-1)*st
		id, lo := int32(-1), 0
		// closeRun ends the run [lo, hi): a run that merged with no run
		// above becomes a new node.
		closeRun := func(hi int) {
			if id < 0 {
				id = f.add(int32(hi-lo), p.colour(row, lo))
			} else {
				f.size[id] += int32(hi - lo)
			}
			cur.label = append(cur.label, id)
		}
		for k := 0; k < st; k++ {
			c := cur.starts[k]
			var merge uint64
			if y > 0 {
				same := ^((p.plus[row+k] ^ p.plus[up+k]) | (p.occ[row+k] ^ p.occ[up+k]))
				merge = same & (c | prev.starts[k])
			}
			for m := c | merge; m != 0; m &= m - 1 {
				b := uint(bits.TrailingZeros64(m))
				x := k*64 + int(b)
				if c>>b&1 != 0 && x > 0 {
					closeRun(x)
					id, lo = -1, x
				}
				if merge>>b&1 != 0 {
					if above := f.find(prev.label[prev.at(x)]); id < 0 {
						id = above
					} else {
						id = f.union(id, above)
					}
				}
			}
		}
		closeRun(n)
		if last := len(cur.label) - 1; !open && last > 0 && p.colour(row, 0) == p.colour(row, n-1) {
			f.union(f.find(cur.label[0]), f.find(cur.label[last]))
		}
		if y == 0 {
			first.copyFrom(cur)
		}
		prev, cur = cur, prev
	}
	if !open && n > 1 {
		// prev holds the last row; close the vertical seam.
		row := (n - 1) * st
		for k := 0; k < st; k++ {
			same := ^((p.plus[row+k] ^ p.plus[k]) | (p.occ[row+k] ^ p.occ[k]))
			for m := same & (prev.starts[k] | first.starts[k]); m != 0; m &= m - 1 {
				x := k*64 + bits.TrailingZeros64(m)
				f.union(f.find(prev.label[prev.at(x)]), f.find(first.label[first.at(x)]))
			}
		}
	}
	var stats ClusterStats
	for i, parent := range f.parent {
		if parent == int32(i) {
			stats.Count++
		}
	}
	stats.Sizes = make([]int, 0, stats.Count)
	for i, parent := range f.parent {
		if parent != int32(i) {
			continue
		}
		size := int(f.size[i])
		stats.Sizes = append(stats.Sizes, size)
		switch f.colour[i] {
		case colourPlus:
			stats.LargestPlus = max(stats.LargestPlus, size)
		case colourMinus:
			stats.LargestMinus = max(stats.LargestMinus, size)
		}
	}
	return stats
}

// colour returns the colour of column x of the row starting at word
// row.
func (p *Packed) colour(row, x int) uint8 {
	k, b := row+x>>6, uint(x&63)
	return uint8(p.occ[k]>>b&1 | (p.plus[k]>>b&1)<<1)
}

// rowStarts fills r with the run starts of row y and empties its
// labels. Bit x of the colour-change mask is set when columns x and
// x+1 differ in spin or occupancy, so a run starts at column 0 and one
// column after every set bit.
func (p *Packed) rowStarts(y int, r *runRow) {
	n, st := p.n, p.stride
	row := y * st
	carry := uint64(1) // column 0 starts a run
	runs := int32(0)
	for k := 0; k < st; k++ {
		s, o := p.plus[row+k], p.occ[row+k]
		var ns, no uint64 // bit 0 of the next word, moved to bit 63
		if k+1 < st {
			ns, no = p.plus[row+k+1]<<63, p.occ[row+k+1]<<63
		}
		change := ((s>>1 | ns) ^ s) | ((o>>1 | no) ^ o)
		if k+1 == st {
			// Column n-1 ends the row: no run starts after it.
			change &= lastWordMask(n) >> 1
		}
		r.starts[k] = change<<1 | carry
		carry = change >> 63
		r.rank[k] = runs
		runs += int32(bits.OnesCount64(r.starts[k]))
	}
	r.label = r.label[:0]
}

package measure

import (
	"math"
	"math/bits"

	"gridseg/internal/grid"
	"gridseg/internal/scratch"
)

// The opposite-distance field is computed by bit-parallel Chebyshev
// dilation. The lattice is split into one-bit-per-site planes: row y
// of a plane occupies the stride = ceil(n/64) words [y*stride,
// (y+1)*stride), column x sits at bit x%64 of word x/64, and the
// padding bits above column n-1 in a row's last word are always zero.
// One 3x3 dilation step on the torus is a horizontal shift-OR of every
// row followed by an OR of three wrapped rows, so the Chebyshev
// distance D_s(c) from site c to the nearest site of spin s is the
// smallest k with c in dilate^k(plane_s): each site is assigned the
// step that first covers it.

// oppositeField writes, for every site, value(D) = D - offset where D
// is the Chebyshev torus distance to the nearest agent of the opposite
// type: Plus sites measure the distance to Minus, every other site
// (vacancies included) the distance to Plus. Sites whose target spin
// is absent from the lattice get unreached instead. It returns the
// largest value written, counting unreached too when it was written.
func oppositeField(dst []int32, l *grid.Lattice, offset, unreached int32) int32 {
	n := l.N()
	stride := (n + 63) / 64
	words := n * stride
	bp := scratch.U64(3 * words)
	buf := *bp
	plus, minus, h := buf[:words], buf[words:2*words], buf[2*words:]
	for y := 0; y < n; y++ {
		for i := 0; i < stride; i++ {
			// Branch-free packing: spin s in {-1, 0, 1} gives
			// (s+1)>>1 = [s == Plus] and (1-s)>>1 = [s == Minus].
			var pw, mw uint64
			base := y*n + i*64
			for b := range min(64, n-i*64) {
				s := l.SpinAt(base + b)
				pw |= uint64(s+1) >> 1 << b
				mw |= uint64(1-s) >> 1 << b
			}
			plus[y*stride+i], minus[y*stride+i] = pw, mw
		}
	}
	// Plus sites: dilate the Minus plane in place.
	hi := dilateInto(dst, minus, plus, h, n, offset, unreached)
	// Every other site: the complement of the Plus plane, built in the
	// spent Minus buffer, while the Plus plane is dilated in place.
	need := minus
	last := lastWordMask(n)
	for y := 0; y < n; y++ {
		for i := 0; i < stride; i++ {
			need[y*stride+i] = ^plus[y*stride+i]
		}
		need[y*stride+stride-1] &= last
	}
	hi = max(hi, dilateInto(dst, plus, need, h, n, offset, unreached))
	scratch.PutU64(bp)
	return hi
}

// lastWordMask returns the mask of the valid bits in a row's last word.
func lastWordMask(n int) uint64 { return ^uint64(0) >> (63 - uint(n-1)&63) }

// dilateInto grows the target plane cur one Chebyshev step at a time
// (in place, using h as the row scratch) and writes step - offset into
// dst for every site of the need plane at the step that first covers
// it, stopping as soon as every such site is covered. The need plane
// must be disjoint from the target. With an empty target every need
// site gets unreached. It returns the largest value written, or
// math.MinInt32 when the need plane is empty.
func dilateInto(dst []int32, cur, need, h []uint64, n int, offset, unreached int32) int32 {
	stride := len(cur) / n
	remaining, targets := 0, 0
	for i := range need {
		remaining += bits.OnesCount64(need[i])
		targets += bits.OnesCount64(cur[i])
	}
	hi := int32(math.MinInt32)
	if remaining == 0 {
		return hi
	}
	if targets == 0 {
		// No target spin: a site that needs this field is unreachable.
		for y := 0; y < n; y++ {
			for i := 0; i < stride; i++ {
				writeBits(dst, need[y*stride+i], y*n+i*64, unreached)
			}
		}
		return unreached
	}
	// A non-empty target covers the whole torus within n/2 steps, so
	// the loop always ends with every need site assigned.
	for k := int32(1); remaining > 0; k++ {
		for y := 0; y < n; y++ {
			dilateRow(h[y*stride:(y+1)*stride], cur[y*stride:(y+1)*stride], n)
		}
		for y := 0; y < n; y++ {
			up, down := (y+n-1)%n*stride, (y+1)%n*stride
			mid := y * stride
			for i := 0; i < stride; i++ {
				next := h[up+i] | h[mid+i] | h[down+i]
				if fresh := next &^ cur[mid+i] & need[mid+i]; fresh != 0 {
					remaining -= bits.OnesCount64(fresh)
					writeBits(dst, fresh, y*n+i*64, k-offset)
				}
				cur[mid+i] = next
			}
		}
		hi = k - offset
	}
	return hi
}

// writeBits stores v at dst[base+b] for every set bit b of word.
func writeBits(dst []int32, word uint64, base int, v int32) {
	for word != 0 {
		dst[base+bits.TrailingZeros64(word)] = v
		word &= word - 1
	}
}

// dilateRow writes the horizontal 3-site dilation of one n-bit torus
// row: column x of dst is set iff column x-1, x or x+1 (mod n) of src
// is. Padding bits stay zero.
func dilateRow(dst, src []uint64, n int) {
	w := len(src)
	top := uint(n-1) & 63 // bit of column n-1 in the last word
	// Column n-1 is the left neighbour of column 0, and column 0 the
	// right neighbour of column n-1.
	carry := src[w-1] >> top & 1
	for i := 0; i < w-1; i++ {
		x := src[i]
		dst[i] = x | x<<1 | carry | x>>1 | src[i+1]<<63
		carry = x >> 63
	}
	x := src[w-1]
	dst[w-1] = (x | x<<1 | carry | x>>1 | (src[0]&1)<<top) & lastWordMask(n)
}

package fastgrid

import (
	"math/bits"

	"gridseg/internal/scratch"
)

// Window counts are streamed in the lane form the fast engines keep
// them in: the counts of row y are LaneWords(n) words, site x in the
// 16-bit lane x&3 of word x>>2, lanes past column n-1 zero. Both
// directions of the window sum run on whole words:
//
//   - Horizontally, the row's bits are copied once into an extended
//     row that carries the wrapped (torus) or zero (open) halo columns,
//     so every column window is a plain bit range. With P the prefix
//     popcount of that row, the window counts of columns x..x+3 are
//     P[x+2r+1+l] - P[x+l] for lanes l = 0..3: a broadcast scalar, the
//     count of the window at x, plus and minus the in-nibble prefix
//     sums of the nibbles entering at x+2r+1 and leaving at x, looked
//     up in a 16-entry table.
//   - Vertically, a ring of the 2r+1 live horizontal lane rows slides
//     down the lattice: one word add for the row that enters and one
//     word subtract for the row that leaves.
//
// A lane never exceeds the window area (2r+1)^2, which the callers
// keep at or below 0xffff, and every partial sum and difference is
// itself a count of bits, so no lane ever carries or borrows into its
// neighbor.

const (
	laneOnes = 0x0001_0001_0001_0001
	// maxLaneRadius is the largest radius whose window area fits a
	// 16-bit lane.
	maxLaneRadius = 127
)

// nibblePrefix[b] holds, in lane l, the number of set bits of the
// nibble b below bit l: the exclusive in-nibble prefix sum.
var nibblePrefix [16]uint64

func init() {
	for b := range nibblePrefix {
		s := 0
		for l := 0; l < 4; l++ {
			nibblePrefix[b] |= uint64(s) << uint(16*l)
			s += b >> uint(l) & 1
		}
	}
}

// LaneWords returns the number of packed 16-bit lane words per row of
// side n: ceil(n/4).
func LaneWords(n int) int { return (n + 3) / 4 }

// visitLanes is the one window-count streaming core of the package: it
// emits the window counts of every row, in ascending row order, in
// lane form. rowBits(y) returns the words of bit row y in the flat
// layout (bits past column n-1 zero); the slice is read before the
// next call. visit receives each output row in a buffer that is only
// valid during the call and must not be modified. Scratch is
// O(n*radius) words, independent of the n^2 output.
func visitLanes(n, radius int, open bool, rowBits func(y int) []uint64, visit func(y int, lanes []uint64)) {
	span := 2*radius + 1
	if !open && span > n {
		panic("fastgrid: window larger than torus")
	}
	if radius > maxLaneRadius {
		panic("fastgrid: window area exceeds the 16-bit count lanes")
	}
	cpr := LaneWords(n)
	// The extended row holds bit x+radius for column x in
	// [-radius, n+radius), and the slide reads nibbles up to bit
	// 4*cpr+2*radius+4, plus one word of slack for straddling reads.
	extWords := (4*cpr+span+4)/64 + 2
	bp := scratch.U64((span+1)*cpr + extWords)
	buf := *bp
	ring, acc, ext := buf[:span*cpr], buf[span*cpr:(span+1)*cpr], buf[(span+1)*cpr:]
	clear(acc)
	var lastMask uint64 = ^uint64(0)
	if r := n & 3; r != 0 {
		lastMask = 1<<uint(16*r) - 1
	}
	// slot returns the ring row of the unwrapped row index y; load
	// fills it (wrapping y on the torus). Rows enter the ring in
	// ascending unwrapped order and stay live for exactly span
	// emissions, so consecutive indices never collide.
	slot := func(y int) []uint64 {
		r := y % span
		if r < 0 {
			r += span
		}
		return ring[r*cpr : r*cpr+cpr]
	}
	load := func(y int) []uint64 {
		row := slot(y)
		yy := y
		if !open {
			yy = wrap(y, n)
		}
		rowLanes(rowBits(yy), n, radius, open, ext, row)
		row[cpr-1] &= lastMask
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
		for k, v := range load(y) {
			acc[k] += v
		}
	}
	for y := 0; y < n; y++ {
		if enter := y + radius; !open || enter < n {
			for k, v := range load(enter) {
				acc[k] += v
			}
		}
		visit(y, acc)
		if leave := y - radius; !open || leave >= 0 {
			for k, v := range slot(leave) {
				acc[k] -= v
			}
		}
	}
	scratch.PutU64(bp)
}

// rowLanes writes the horizontal window counts of one bit row — the
// count of columns [x-radius, x+radius], wrapped or clamped — into
// out in lane form, using ext as the extended-row scratch. Lanes past
// column n-1 of the last word are left for the caller to clear.
func rowLanes(row []uint64, n, radius int, open bool, ext, out []uint64) {
	clear(ext)
	orBits(ext, radius, row, 0, n)
	if !open {
		// The torus window fits the row (2*radius+1 <= n): the halo
		// columns are the row's last and first radius columns.
		orBits(ext, 0, row, n-radius, radius)
		orBits(ext, n+radius, row, 0, radius)
	}
	span := 2*radius + 1
	d := uint64(0)
	for k := 0; k < span>>6; k++ {
		d += uint64(bits.OnesCount64(ext[k]))
	}
	if r := span & 63; r != 0 {
		d += uint64(bits.OnesCount64(ext[span>>6] & (1<<uint(r) - 1)))
	}
	// lo is a multiple of 4, so its nibble never straddles a word; hi
	// = lo + span may.
	hi := span
	for k := range out {
		lo := 4 * k
		ln := ext[lo>>6] >> uint(lo&63) & 0xf
		s := uint(hi & 63)
		hn := (ext[hi>>6]>>s | ext[hi>>6+1]<<(63-s)<<1) & 0xf
		out[k] = d*laneOnes + nibblePrefix[hn] - nibblePrefix[ln]
		d += uint64(bits.OnesCount8(uint8(hn))) - uint64(bits.OnesCount8(uint8(ln)))
		hi += 4
	}
}

// orBits ORs the cnt bits of src starting at bit from into dst starting
// at bit at. dst must have a word of slack past the last bit written.
func orBits(dst []uint64, at int, src []uint64, from, cnt int) {
	for cnt > 0 {
		m := min(64, cnt)
		s := uint(from & 63)
		v := src[from>>6] >> s
		if s != 0 && int(s)+m > 64 {
			v |= src[from>>6+1] << (64 - s)
		}
		if m < 64 {
			v &= 1<<uint(m) - 1
		}
		t := uint(at & 63)
		dst[at>>6] |= v << t
		if t != 0 {
			dst[at>>6+1] |= v >> (64 - t)
		}
		from += m
		at += m
		cnt -= m
	}
}

// windowCounts unpacks the lane stream into a freshly allocated
// row-major array of one int32 count per site: the materialized form
// the invariant checks and tests compare against.
func windowCounts(n, radius int, open bool, rowBits func(y int) []uint64) []int32 {
	out := make([]int32, n*n)
	visitLanes(n, radius, open, rowBits, func(y int, lanes []uint64) {
		row := out[y*n : (y+1)*n]
		for x := range row {
			row[x] = int32(lanes[x>>2] >> uint(16*(x&3)) & 0xffff)
		}
	})
	return out
}

// fullRow returns the bit row of n occupied columns: the occupancy row
// of a lattice without vacancies.
func fullRow(n int) []uint64 {
	row := make([]uint64, (n+63)/64)
	for x := 0; x < n; x += 64 {
		row[x>>6] = ^uint64(0) >> uint(64-min(64, n-x))
	}
	return row
}

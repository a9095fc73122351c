// Package pareng is the domain-decomposed parallel trajectory engine:
// it partitions the lattice into horizontal strips, runs the bit-packed
// Glauber updates of internal/dynamics/fastglauber concurrently on
// non-adjacent strips, and merges the cross-strip effects so the
// process stays a well-defined kinetic Monte Carlo trajectory.
//
// A flip only affects happiness inside the (2w+1)^2 window, so updates
// on sites more than 2w rows apart commute; the strip layout makes that
// independence structural. The engine runs synchronous sublattice
// KMC: cycles of two phases (even strips, then odd strips), each active
// strip advancing its local clock over a fixed horizon with its own
// per-(cycle, phase, strip) random stream, and a serial merge barrier
// re-deriving the strip-boundary bands in a canonical order. The
// trajectory is a pure function of (seed, parameters, strip count) —
// the worker count only changes how the strips of a phase are
// scheduled, never the result. Different strip counts give different
// trajectories of the same process; the statistical-equivalence suite
// pins their distributional agreement with the sequential engine.
//
// The engine needs at least two strips: the engine table
// (internal/dynamics/engines) resolves a one-strip request, explicit
// or automatic, to the sequential fast engine.
package pareng

import (
	"errors"
	"fmt"
)

// MaxStrips caps the automatic strip count. The cap is a fixed
// constant — never derived from the machine — so auto-stripped
// trajectories are reproducible everywhere.
const MaxStrips = 16

// Partition is the strip decomposition of an n x n lattice: strips of
// near-equal height owning contiguous row ranges, each with a halo of
// the foreign rows its sites' windows read. Construct with
// NewPartition.
type Partition struct {
	// N and W are the lattice side and horizon.
	N, W int
	// Strips is the number of strips.
	Strips int
	// Open marks the hard-wall boundary: halos clamp at the grid edges
	// instead of wrapping.
	Open bool
	// bounds are the row cuts: strip k owns rows [bounds[k], bounds[k+1]).
	bounds []int
}

// NewPartition builds the strip partition. Beyond basic validity
// (1 <= strips, 2w+1 <= n), a multi-strip partition must satisfy the
// concurrency-safety minima of the shard layer: every strip at least
// max(2w, ceil(64/n)) rows tall — so strips two apart never touch the
// same memory word — and an even strip count on the torus, where the
// first and last strips are adjacent across the seam.
func NewPartition(n, w, strips int, open bool) (Partition, error) {
	if w < 1 {
		return Partition{}, errors.New("pareng: horizon must be >= 1")
	}
	if 2*w+1 > n {
		return Partition{}, fmt.Errorf("pareng: neighborhood side %d exceeds lattice side %d", 2*w+1, n)
	}
	if strips < 1 {
		return Partition{}, errors.New("pareng: strip count must be >= 1")
	}
	pt := Partition{N: n, W: w, Strips: strips, Open: open}
	if strips == 1 {
		pt.bounds = []int{0, n}
		return pt, nil
	}
	if !open && strips%2 != 0 {
		return Partition{}, fmt.Errorf("pareng: %d strips on the torus: the phase schedule needs an even count (the first and last strips are adjacent)", strips)
	}
	minH := 2 * w
	if need := (63 + n) / n; need > minH {
		minH = need
	}
	if n/strips < minH {
		return Partition{}, fmt.Errorf("pareng: %d strips of side-%d lattice: strips would be %d rows tall, need >= %d (2w and one bitset word)", strips, n, n/strips, minH)
	}
	pt.bounds = make([]int, strips+1)
	base, rem := n/strips, n%strips
	for k := 0; k < strips; k++ {
		h := base
		if k < rem {
			h++
		}
		pt.bounds[k+1] = pt.bounds[k] + h
	}
	return pt, nil
}

// AutoStrips returns the machine-independent default strip count for a
// side-n, horizon-w lattice: as many strips as the safety minima allow,
// capped at MaxStrips and rounded down to even, or 1 when the lattice
// is too small to decompose (n < 64 or fewer than two valid strips).
func AutoStrips(n, w int) int {
	if w < 1 || n < 64 || 2*w+1 > n {
		return 1
	}
	s := n / (2 * w)
	if s > MaxStrips {
		s = MaxStrips
	}
	s -= s % 2
	if s < 2 {
		return 1
	}
	return s
}

// Bounds returns the row cuts: strip k owns rows [Bounds()[k], Bounds()[k+1]).
func (pt Partition) Bounds() []int { return append([]int(nil), pt.bounds...) }

// OwnedRows returns the half-open row range [lo, hi) owned by strip k.
func (pt Partition) OwnedRows(k int) (lo, hi int) { return pt.bounds[k], pt.bounds[k+1] }

// Owner returns the strip owning row y.
func (pt Partition) Owner(y int) int {
	for k := 1; k < len(pt.bounds); k++ {
		if y < pt.bounds[k] {
			return k - 1
		}
	}
	return pt.Strips - 1
}

// HaloRows returns, in ascending order, the foreign rows whose state
// strip k's sites depend on: every row within Chebyshev distance W of
// an owned row — wrapped on the torus, clamped at the grid edges under
// the open boundary — excluding the owned rows themselves. Together
// with the owned rows this covers exactly the (2W+1)^2 dependency
// region of every owned site.
func (pt Partition) HaloRows(k int) []int {
	lo, hi := pt.OwnedRows(k)
	in := make([]bool, pt.N)
	for d := 1; d <= pt.W; d++ {
		for _, y := range []int{lo - d, hi - 1 + d} {
			if pt.Open {
				if y < 0 || y >= pt.N {
					continue
				}
			} else {
				y = ((y % pt.N) + pt.N) % pt.N
			}
			if y < lo || y >= hi {
				in[y] = true
			}
		}
	}
	var rows []int
	for y, ok := range in {
		if ok {
			rows = append(rows, y)
		}
	}
	return rows
}

// Package measure computes the segregation observables the paper's
// theorems are about: the monochromatic region M(u) of an agent (the
// largest-radius neighborhood of a single type containing u, Section
// II.A), the almost monochromatic region M'(u) (minority/majority ratio
// below a vanishing bound), connected same-type clusters, and summary
// segregation indices used by the experiment harness.
package measure

import (
	"gridseg/internal/geom"
	"gridseg/internal/grid"
	"gridseg/internal/scratch"
)

// Unreachable marks sites with no opposite-type agent on the lattice
// (monochromatic lattice) in distance fields.
const Unreachable = int32(-1)

// SamplePoints returns a deterministic spread of k probe agents on an
// n x n torus. The paper's theorems hold for an arbitrary fixed agent,
// so any deterministic sample is a valid estimator of E[M]; the
// experiment harness and the grid sweep share this one so their E[M]
// estimates stay comparable.
func SamplePoints(n, k int) []geom.Point {
	pts := make([]geom.Point, 0, k)
	for i := 0; i < k; i++ {
		pts = append(pts, geom.Point{
			X: (i*2*n/(2*k) + n/(2*k)) % n,
			Y: ((i*7 + 3) * n / (k*7 + 3)) % n,
		})
	}
	return pts
}

// OppositeDistances returns, for every site, the Chebyshev torus
// distance to the nearest agent of the opposite type (>= 1), or
// Unreachable on a lattice without one. Plus sites measure the
// distance to Minus; every other site, vacancies included, measures
// the distance to Plus.
func OppositeDistances(l *grid.Lattice) []int32 {
	out := make([]int32, l.Sites())
	oppositeField(out, l, 0, Unreachable)
	return out
}

// maxRadiusCap returns the largest neighborhood radius that does not wrap
// the torus onto itself: (n-1)/2.
func maxRadiusCap(n int) int { return (n - 1) / 2 }

// CenteredRadii returns, for every site c, the largest radius r such that
// the neighborhood N_r(c) is monochromatic, capped at (n-1)/2. On a
// monochromatic lattice every entry equals the cap.
func CenteredRadii(l *grid.Lattice) []int32 {
	out := make([]int32, l.Sites())
	centeredRadiiInto(out, l)
	return out
}

// centeredRadiiInto fills dst with the centered-radii field and returns
// its maximum. The radius is the opposite distance minus one, or the
// cap where no opposite agent exists; a torus distance never exceeds
// n/2, so no finite radius exceeds the cap.
func centeredRadiiInto(dst []int32, l *grid.Lattice) int {
	return int(oppositeField(dst, l, 1, int32(maxRadiusCap(l.N()))))
}

// MeanMonoRegionSize returns the mean M(u) over the probe points: the
// estimator of E[M] the grid sweeps measure at fixation. It computes
// the centered-radii field on a pooled buffer and recycles it before
// returning, so per-cell measurement allocates nothing beyond pooled
// scratch (ownership of the pooled buffers never leaves this package).
func MeanMonoRegionSize(l *grid.Lattice, pts []geom.Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	rp := scratch.I32(l.Sites())
	radii := *rp
	rmax := centeredRadiiInto(radii, l)
	var mean float64
	for _, pt := range pts {
		mean += float64(monoRegionSize(l, radii, pt, rmax))
	}
	scratch.PutI32(rp)
	return mean / float64(len(pts))
}

// MonoRegionSize returns M(u): the size (agent count) of the largest
// monochromatic neighborhood (square of odd side) that contains u, using
// precomputed centered radii. The minimum is 1 (the agent itself).
//
// M(u) = max over centers c with cheb(u,c) <= r(c) of (2 r(c)+1)^2:
// any monochromatic square of radius r(c) centered at c contains u
// exactly when u is within Chebyshev distance r(c) of c.
func MonoRegionSize(l *grid.Lattice, radii []int32, u geom.Point) int {
	rmax := int32(0)
	for _, r := range radii {
		rmax = max(rmax, r)
	}
	return monoRegionSize(l, radii, u, int(rmax))
}

// monoRegionSize is MonoRegionSize given the field's maximum radius
// rmax. It scans rings of centers outward from u; a center at ring d
// qualifies iff r(c) >= d, so no center beyond ring rmax qualifies and
// none can beat a best of rmax: the scan stops at either bound.
func monoRegionSize(l *grid.Lattice, radii []int32, u geom.Point, rmax int) int {
	tor := l.Torus()
	best := radii[tor.Index(u)] // r(u) >= 0 always qualifies at d = 0
	for d := 1; d <= rmax && int(best) < rmax; d++ {
		tor.SquarePerimeter(u, d, func(p geom.Point) {
			if r := radii[tor.Index(p)]; int(r) >= d && r > best {
				best = r
			}
		})
	}
	return geom.SquareSize(int(best))
}

// MonoRegionRadius returns the radius of the largest monochromatic
// neighborhood containing u; see MonoRegionSize.
func MonoRegionRadius(l *grid.Lattice, radii []int32, u geom.Point) int {
	size := MonoRegionSize(l, radii, u)
	// size = (2r+1)^2; invert.
	side := 1
	for side*side < size {
		side += 2
	}
	return (side - 1) / 2
}

// AlmostMonoSize returns M'(u): the size of the largest neighborhood
// (square of odd side, radius at most rcap) containing u whose
// minority/majority agent-count ratio is at most beta — the paper's
// almost monochromatic region with beta = e^{-eps N}. The prefix must be
// a snapshot of l. The minimum is 1. rcap <= 0 means the torus maximum.
func AlmostMonoSize(l *grid.Lattice, pre *grid.Prefix, u geom.Point, beta float64, rcap int) int {
	tor := l.Torus()
	maxR := maxRadiusCap(l.N())
	if rcap > 0 && rcap < maxR {
		maxR = rcap
	}
	best := 0
	// For each candidate radius rho (descending), look for any center
	// within distance rho of u whose square of radius rho satisfies the
	// ratio bound. Descending order lets us stop at the first success.
	for rho := maxR; rho >= 0; rho-- {
		found := false
		for dy := -rho; dy <= rho && !found; dy++ {
			for dx := -rho; dx <= rho && !found; dx++ {
				c := tor.Add(u, dx, dy)
				if pre.MinorityRatioInSquare(c, rho) <= beta {
					found = true
				}
			}
		}
		if found {
			best = rho
			break
		}
	}
	return geom.SquareSize(best)
}

// HappyFraction returns the fraction of agents with same-type count at
// least thresh in their radius-w neighborhood, computed from scratch
// (no process needed).
func HappyFraction(l *grid.Lattice, w, thresh int) float64 {
	counts := l.WindowCounts(w)
	nbhd := geom.SquareSize(w)
	happy := 0
	for i := 0; i < l.Sites(); i++ {
		same := int(counts[i])
		if l.SpinAt(i) != grid.Plus {
			same = nbhd - same
		}
		if same >= thresh {
			happy++
		}
	}
	return float64(happy) / float64(l.Sites())
}

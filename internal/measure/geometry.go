package measure

import "gridseg/internal/grid"

// Geometry observables of the +/- interface, in streaming *View form
// over any lattice layout. The morphogenesis literature characterizes
// final Schelling configurations by the shape of the phase boundary,
// not just its density: total interface length measures how much
// boundary exists, and boundary curvature measures how crooked it is —
// a labyrinthine spinodal pattern and a single flat slab can have
// similar interface densities but very different curvatures. Both are
// opt-in sweep columns (geom=true) and per-sample live observables;
// neither participates in the default column schema, so default
// artifacts are untouched.

// InterfaceLengthView returns the total +/- interface length of the
// view: the number of 4-adjacent agent pairs with opposite types, i.e.
// the number of unit lattice edges the phase boundary crosses. It is
// the unnormalized numerator of Segregation.InterfaceDensity and
// counts the same pairs (right and down neighbors, wrapping on the
// torus, clipped when open; pairs with a vacant partner never count).
func InterfaceLengthView(v grid.LatticeView, open bool) float64 {
	n := v.N()
	at := func(x, y int) grid.Spin {
		if x >= n {
			x -= n
		}
		if y >= n {
			y -= n
		}
		return v.SpinAt(y*n + x)
	}
	mismatched := 0
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			s := v.SpinAt(y*n + x)
			if s == grid.None {
				continue
			}
			if !open || x+1 < n {
				if o := at(x+1, y); o != grid.None && o != s {
					mismatched++
				}
			}
			if !open || y+1 < n {
				if o := at(x, y+1); o != grid.None && o != s {
					mismatched++
				}
			}
		}
	}
	return float64(mismatched)
}

// BoundaryCurvatureView estimates the mean absolute curvature of the
// +/- interface: corners per unit of interface length, computed by
// classifying every fully-occupied 2x2 plaquette of the view. A
// plaquette with one or three plus-agents contributes one corner; a
// diagonal two-two split contributes two (the boundary turns twice); a
// side-by-side split is a straight segment and contributes none. The
// result is corners / InterfaceLengthView — 0 for a flat slab boundary
// aligned with the lattice, 1 for a maximally crooked (checkerboard)
// one — and 0 when the view has no interface at all.
// Plaquettes containing a vacancy are skipped: the boundary geometry
// against a vacuum is not a +/- interface. On the torus all n^2
// plaquettes (wrapping) are classified; open boundaries clip to the
// (n-1)^2 interior plaquettes.
func BoundaryCurvatureView(v grid.LatticeView, open bool) float64 {
	length := InterfaceLengthView(v, open)
	if length == 0 {
		return 0
	}
	n := v.N()
	at := func(x, y int) grid.Spin {
		if x >= n {
			x -= n
		}
		if y >= n {
			y -= n
		}
		return v.SpinAt(y*n + x)
	}
	limit := n
	if open {
		limit = n - 1
	}
	corners := 0
	for y := 0; y < limit; y++ {
		for x := 0; x < limit; x++ {
			a := at(x, y)
			b := at(x+1, y)
			c := at(x, y+1)
			d := at(x+1, y+1)
			if a == grid.None || b == grid.None || c == grid.None || d == grid.None {
				continue
			}
			plus := 0
			if a == grid.Plus {
				plus++
			}
			if b == grid.Plus {
				plus++
			}
			if c == grid.Plus {
				plus++
			}
			if d == grid.Plus {
				plus++
			}
			switch plus {
			case 1, 3:
				corners++
			case 2:
				if a == d { // diagonal split: the boundary turns twice
					corners += 2
				}
			}
		}
	}
	return float64(corners) / length
}

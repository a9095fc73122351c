package measure

import (
	"testing"

	"gridseg/internal/fastgrid"
	"gridseg/internal/grid"
	"gridseg/internal/rng"
)

// TestInterfaceLengthHandCases pins the edge count on configurations
// small enough to count by hand.
func TestInterfaceLengthHandCases(t *testing.T) {
	cases := []struct {
		name       string
		grid       string
		open       bool
		wantLength float64
	}{
		// A vertical slab: two mismatched edges per row on the torus
		// (the interior boundary and the wrapping seam), one when open.
		{"slab torus", "++--\n++--\n++--\n++--", false, 8},
		{"slab open", "++--\n++--\n++--\n++--", true, 4},
		// A single + in a sea of -: its four edges.
		{"singleton torus", "----\n-+--\n----\n----", false, 4},
		// Checkerboard: every one of the 2n^2 torus edges mismatches.
		{"checkerboard torus", "+-+-\n-+-+\n+-+-\n-+-+", false, 32},
		// Vacant partners never count: the + is fully walled in.
		{"vacancy walled", "....\n.+..\n....\n....", false, 0},
		// Monochromatic: no interface.
		{"mono", "++++\n++++\n++++\n++++", false, 0},
	}
	for _, tc := range cases {
		lat, err := grid.Parse(tc.grid)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := InterfaceLengthView(lat, tc.open); got != tc.wantLength {
			t.Errorf("%s: InterfaceLengthView = %v, want %v", tc.name, got, tc.wantLength)
		}
	}
}

// TestBoundaryCurvatureHandCases pins the plaquette corner estimator.
func TestBoundaryCurvatureHandCases(t *testing.T) {
	cases := []struct {
		name string
		grid string
		open bool
		want float64
	}{
		// A flat axis-aligned slab boundary has no corners.
		{"slab torus", "++--\n++--\n++--\n++--", false, 0},
		{"slab open", "++--\n++--\n++--\n++--", true, 0},
		// A singleton +: four corner plaquettes around four edges.
		{"singleton", "----\n-+--\n----\n----", false, 1},
		// Checkerboard: every plaquette is a diagonal split (2 corners),
		// 32 corners over 32 edges.
		{"checkerboard", "+-+-\n-+-+\n+-+-\n-+-+", false, 1},
		// No interface at all: defined as 0, not NaN.
		{"mono", "++++\n++++\n++++\n++++", false, 0},
		// A 2x2 + block in a 6x6 sea: 8 boundary edges, 4 corner
		// plaquettes (the block's corners); the edge-adjacent plaquettes
		// are straight 2-2 splits.
		{"block", "------\n-++---\n-++---\n------\n------\n------", false, 0.5},
	}
	for _, tc := range cases {
		lat, err := grid.Parse(tc.grid)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := BoundaryCurvatureView(lat, tc.open); got != tc.want {
			t.Errorf("%s: BoundaryCurvatureView = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestGeometryVacancySkipsPlaquettes checks that plaquettes touching a
// vacancy contribute no corners even when a genuine +/- interface runs
// beside them.
func TestGeometryVacancySkipsPlaquettes(t *testing.T) {
	// The + column meets the - column (interface), and a vacancy sits
	// in the corner plaquette's path.
	lat, err := grid.Parse("+-..\n+-..\n....\n....")
	if err != nil {
		t.Fatal(err)
	}
	length := InterfaceLengthView(lat, true)
	if length != 2 {
		t.Fatalf("InterfaceLengthView = %v, want 2", length)
	}
	// Every plaquette includes a vacancy except the top-left one, which
	// is a straight 2-2 split: curvature must be 0.
	if got := BoundaryCurvatureView(lat, true); got != 0 {
		t.Errorf("BoundaryCurvatureView = %v, want 0", got)
	}
}

// TestGeometryAcrossLayouts checks the estimators agree across the
// reference and packed storage layouts and stay consistent
// with the interface density (length = density * total agent pairs).
func TestGeometryAcrossLayouts(t *testing.T) {
	for _, tc := range streamCases {
		lat := grid.RandomScenario(tc.n, 0.5, tc.rho, rng.New(uint64(tc.n*2000+tc.w)))
		packed := fastgrid.FromLattice(lat)
		wantLen := InterfaceLengthView(lat, tc.open)
		wantCurv := BoundaryCurvatureView(lat, tc.open)
		for name, v := range map[string]grid.LatticeView{"packed": packed} {
			if got := InterfaceLengthView(v, tc.open); got != wantLen {
				t.Errorf("n=%d open=%v %s: InterfaceLengthView = %v, want %v", tc.n, tc.open, name, got, wantLen)
			}
			if got := BoundaryCurvatureView(v, tc.open); got != wantCurv {
				t.Errorf("n=%d open=%v %s: BoundaryCurvatureView = %v, want %v", tc.n, tc.open, name, got, wantCurv)
			}
		}
		// Consistency with the density form: count agent pairs directly.
		pairs := countAgentPairs(lat, tc.open)
		if pairs > 0 {
			density := SegregationView(lat, 0, tc.open).InterfaceDensity
			if got := wantLen / float64(pairs); got != density {
				t.Errorf("n=%d open=%v: length/pairs = %v, density = %v", tc.n, tc.open, got, density)
			}
		}
	}
}

// countAgentPairs counts 4-adjacent agent-agent pairs the same way the
// density walk does.
func countAgentPairs(v grid.LatticeView, open bool) int {
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
	pairs := 0
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			if v.SpinAt(y*n+x) == grid.None {
				continue
			}
			if (!open || x+1 < n) && at(x+1, y) != grid.None {
				pairs++
			}
			if (!open || y+1 < n) && at(x, y+1) != grid.None {
				pairs++
			}
		}
	}
	return pairs
}

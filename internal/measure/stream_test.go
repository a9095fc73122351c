package measure

import (
	"math"
	"testing"

	"gridseg/internal/fastgrid"
	"gridseg/internal/geom"
	"gridseg/internal/grid"
	"gridseg/internal/rng"
)

// streamCases spans both boundaries, vacancies, window radii crossing
// word and tile seams, and open windows larger than the grid.
var streamCases = []struct {
	n, w int
	rho  float64
	open bool
}{
	{5, 1, 0, false}, {5, 2, 0.2, true}, {9, 4, 0.1, false},
	{31, 15, 0.1, true}, {64, 3, 0.05, false}, {65, 32, 0.2, true},
	{100, 10, 0.1, true}, {100, 10, 0, false}, {16, 20, 0.1, true},
	{130, 4, 0.3, false},
}

// TestStreamingAgainstMaterialized pins every streaming view
// observable to a brute-force oracle, on the reference lattice and on
// the packed and tiled layouts of the same configuration.
func TestStreamingAgainstMaterialized(t *testing.T) {
	for _, tc := range streamCases {
		lat := grid.RandomScenario(tc.n, 0.5, tc.rho, rng.New(uint64(tc.n*1000+tc.w)))
		packed := fastgrid.FromLattice(lat)
		tiled, err := fastgrid.TiledFromView(lat, 64)
		if err != nil {
			t.Fatal(err)
		}
		views := map[string]grid.LatticeView{"reference": lat, "packed": packed, "tiled": tiled}

		// Reference values by brute force over the reference lattice.
		plus := lat.PlusWindowCounts(tc.w, tc.open)
		occ := lat.OccupiedWindowCounts(tc.w, tc.open)
		var wantPhi int64
		var wantSame float64
		agents := 0
		for i := 0; i < lat.Sites(); i++ {
			switch lat.SpinAt(i) {
			case grid.Plus:
				wantPhi += int64(plus[i])
				wantSame += float64(plus[i]) / float64(occ[i])
			case grid.Minus:
				wantPhi += int64(occ[i] - plus[i])
				wantSame += float64(occ[i]-plus[i]) / float64(occ[i])
			default:
				continue
			}
			agents++
		}
		if agents > 0 {
			wantSame /= float64(agents)
		}
		wantCl, _ := bfsClusters(lat, tc.open)
		// Interface density: every agent's right and down neighbour,
		// wrapping on the torus, skipping vacant partners.
		mismatched, pairs := 0, 0
		for y := 0; y < tc.n; y++ {
			for x := 0; x < tc.n; x++ {
				s := lat.Spin(geom.Point{X: x, Y: y})
				for _, q := range []geom.Point{{X: x + 1, Y: y}, {X: x, Y: y + 1}} {
					if tc.open && (q.X == tc.n || q.Y == tc.n) {
						continue
					}
					if o := lat.Spin(q); s != grid.None && o != grid.None {
						pairs++
						if o != s {
							mismatched++
						}
					}
				}
			}
		}
		var wantIface, wantMag float64
		if pairs > 0 {
			wantIface = float64(mismatched) / float64(pairs)
		}
		if agents > 0 {
			// Magnetization: (plus - minus) / agents.
			wantMag = float64(2*lat.CountPlus()-agents) / float64(agents)
		}

		for name, v := range views {
			if got := PhiView(v, tc.w, tc.open); got != wantPhi {
				t.Fatalf("%+v %s: PhiView = %d, want %d", tc, name, got, wantPhi)
			}
			if got := MeanSameFractionView(v, tc.w, tc.open); got != wantSame {
				t.Fatalf("%+v %s: MeanSameFractionView = %v, want %v", tc, name, got, wantSame)
			}
			if got := InterfaceDensityView(v, tc.open); got != wantIface {
				t.Fatalf("%+v %s: InterfaceDensityView = %v, want %v", tc, name, got, wantIface)
			}
			if got := MagnetizationView(v); got != wantMag {
				t.Fatalf("%+v %s: MagnetizationView = %v, want %v", tc, name, got, wantMag)
			}
			got := ClusterStatsView(v, tc.open)
			if got.Count != wantCl.Count || got.LargestPlus != wantCl.LargestPlus || got.LargestMinus != wantCl.LargestMinus {
				t.Fatalf("%+v %s: ClusterStatsView = %+v, want %+v", tc, name, got, wantCl)
			}
			if len(got.Sizes) != len(wantCl.Sizes) {
				t.Fatalf("%+v %s: %d cluster sizes, want %d", tc, name, len(got.Sizes), len(wantCl.Sizes))
			}
			for k := range got.Sizes {
				if got.Sizes[k] != wantCl.Sizes[k] {
					t.Fatalf("%+v %s: Sizes[%d] = %d, want %d (order must match BFS discovery)", tc, name, k, got.Sizes[k], wantCl.Sizes[k])
				}
			}
		}
	}
}

// TestStreamingDegenerate covers empty and single-site lattices.
func TestStreamingDegenerate(t *testing.T) {
	empty, err := grid.Parse(".")
	if err != nil {
		t.Fatal(err)
	}
	if got := MeanSameFractionView(empty, 0, true); got != 0 {
		t.Fatalf("empty MeanSameFraction = %v", got)
	}
	if got := MagnetizationView(empty); got != 0 {
		t.Fatalf("empty Magnetization = %v", got)
	}
	if got := PhiView(empty, 0, true); got != 0 {
		t.Fatalf("empty Phi = %d", got)
	}
	cl := ClusterStatsView(empty, true)
	if cl.Count != 1 || cl.LargestPlus != 0 || cl.LargestMinus != 0 {
		t.Fatalf("empty clusters = %+v", cl)
	}
	if !math.IsNaN(0*InterfaceDensityView(empty, true)) && InterfaceDensityView(empty, true) != 0 {
		t.Fatalf("empty interface = %v", InterfaceDensityView(empty, true))
	}
}

package measure

import (
	"fmt"
	"reflect"
	"testing"

	"gridseg/internal/fastgrid"
	"gridseg/internal/geom"
	"gridseg/internal/grid"
	"gridseg/internal/rng"
)

// streamCases spans both boundaries, vacancies, window radii crossing
// word seams, and open windows larger than the grid.
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

// TestStreamingAgainstMaterialized pins every packed observable to a
// brute-force oracle, packing the reference lattice and the packed
// layout of the same configuration.
func TestStreamingAgainstMaterialized(t *testing.T) {
	for _, tc := range streamCases {
		lat := grid.RandomScenario(tc.n, 0.5, tc.rho, rng.New(uint64(tc.n*1000+tc.w)))
		packed := fastgrid.FromLattice(lat)
		views := map[string]grid.LatticeView{"reference": lat, "packed": packed}

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
			seg := SegregationView(v, tc.w, tc.open)
			if got := seg.MeanSameFraction; got != wantSame {
				t.Fatalf("%+v %s: MeanSameFraction = %v, want %v", tc, name, got, wantSame)
			}
			if got := seg.InterfaceDensity; got != wantIface {
				t.Fatalf("%+v %s: InterfaceDensity = %v, want %v", tc, name, got, wantIface)
			}
			if got := seg.Magnetization; got != wantMag {
				t.Fatalf("%+v %s: Magnetization = %v, want %v", tc, name, got, wantMag)
			}
			got := seg.Clusters
			if got.Count != wantCl.Count || got.LargestPlus != wantCl.LargestPlus || got.LargestMinus != wantCl.LargestMinus {
				t.Fatalf("%+v %s: Clusters = %+v, want %+v", tc, name, got, wantCl)
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
	seg := SegregationView(empty, 0, true)
	if seg.MeanSameFraction != 0 || seg.Magnetization != 0 || seg.InterfaceDensity != 0 {
		t.Fatalf("empty observables = %+v", seg)
	}
	if got := PhiView(empty, 0, true); got != 0 {
		t.Fatalf("empty Phi = %d", got)
	}
	if cl := seg.Clusters; cl.Count != 1 || cl.LargestPlus != 0 || cl.LargestMinus != 0 {
		t.Fatalf("empty clusters = %+v", cl)
	}
}

// checkSegregation requires the packed kernels to reproduce the scalar
// forms exactly on l: every float bit for bit, Phi, and the cluster
// statistics with Sizes element for element.
func checkSegregation(t testing.TB, l *grid.Lattice, w int, open bool, label string) {
	t.Helper()
	got := SegregationView(l, w, open)
	want := Segregation{
		InterfaceDensity: scalarInterfaceDensity(l, open),
		MeanSameFraction: scalarMeanSameFraction(l, w, open),
		Magnetization:    scalarMagnetization(l),
		Clusters:         scalarClusterStats(l, open),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: packed %+v, scalar %+v", label, got, want)
	}
	if got, want := PhiView(l, w, open), scalarPhi(l, w, open); got != want {
		t.Fatalf("%s: PhiView = %d, scalar %d", label, got, want)
	}
}

// The packed kernels against the scalar forms on random lattices:
// row widths below, at and across the 64-bit word boundary, monochrome
// and one-type-plus-vacancy compositions, both boundaries, and window
// radii up to the largest the torus admits.
func TestSegregationMatchesScalarRandom(t *testing.T) {
	seed := uint64(1)
	for _, n := range []int{3, 4, 5, 63, 64, 65, 127, 128, 129} {
		for _, p := range []float64{0, 0.02, 0.5, 1} {
			for _, rho := range []float64{0, 0.05, 0.5} {
				seed++
				l := grid.RandomScenario(n, p, rho, rng.New(seed))
				for _, open := range []bool{false, true} {
					for _, w := range []int{1, 2, 5} {
						if !open && 2*w+1 > n {
							continue
						}
						checkSegregation(t, l, w, open, fmt.Sprintf("n=%d p=%v rho=%v open=%v w=%d", n, p, rho, open, w))
					}
				}
			}
		}
	}
}

// Fixated Glauber, Kawasaki and Move lattices — long runs and large
// clusters crossing word seams — and one wide window (w >= 40) whose
// same-fraction terms span thousands of occupied counts.
func TestSegregationMatchesScalarFixated(t *testing.T) {
	for i, c := range []struct {
		dyn  string
		n, w int
		tau  float64
		rho  float64
		open bool
	}{
		{"glauber", 130, 1, 0.40, 0, false},
		{"glauber", 200, 2, 0.45, 0.05, true},
		{"kawasaki", 129, 1, 0.45, 0, false},
		{"kawasaki", 130, 2, 0.45, 0.05, true},
		{"move", 128, 1, 0.45, 0.1, true},
		{"move", 200, 2, 0.40, 0.05, false},
		{"glauber", 100, 45, 0.45, 0.05, false},
	} {
		l := fixatedLattice(t, c.dyn, c.n, c.w, c.tau, c.rho, c.open, uint64(7+i))
		for _, open := range []bool{c.open, !c.open} {
			checkSegregation(t, l, c.w, open, fmt.Sprintf("%+v open=%v", c, open))
		}
	}
}

// FuzzSegregationStats checks the packed kernels against the scalar
// forms on random scenario lattices of arbitrary side, composition,
// boundary and window radius.
func FuzzSegregationStats(f *testing.F) {
	f.Add(64, 0.5, 0.0, false, 1, uint64(1))
	f.Add(65, 0.02, 0.05, true, 2, uint64(2))
	f.Add(3, 1.0, 0.5, false, 1, uint64(3))
	f.Add(129, 0.5, 0.3, true, 70, uint64(4))
	f.Fuzz(func(t *testing.T, n int, p, rho float64, open bool, w int, seed uint64) {
		n = 1 + int(uint(n)%200)
		w = int(uint(w) % uint(n+2))
		if !open {
			w = int(uint(w) % uint((n+1)/2))
		}
		l := grid.RandomScenario(n, unit(p), unit(rho), rng.New(seed))
		checkSegregation(t, l, w, open, fmt.Sprintf("n=%d p=%v rho=%v open=%v w=%d seed=%d", n, p, rho, open, w, seed))
	})
}

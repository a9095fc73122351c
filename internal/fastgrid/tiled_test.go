package fastgrid

import (
	"testing"

	"gridseg/internal/grid"
	"gridseg/internal/rng"
)

// TestTiledRoundTrip verifies that tiling any view preserves every
// spin, across sides that exercise edge tiles (n not a multiple of the
// tile side), multi-tile rows, and tiles larger than the grid.
func TestTiledRoundTrip(t *testing.T) {
	for _, tc := range []struct{ n, ts int }{
		{3, 0}, {31, 64}, {64, 64}, {65, 64}, {100, 64}, {130, 64},
		{100, 128}, {130, 128}, {200, 64},
	} {
		for _, rho := range []float64{0, 0.15} {
			lat := grid.RandomScenario(tc.n, 0.5, rho, rng.New(uint64(tc.n)))
			tl, err := TiledFromView(lat, tc.ts)
			if err != nil {
				t.Fatalf("n=%d ts=%d: %v", tc.n, tc.ts, err)
			}
			if tl.HasVacancies() != lat.HasVacancies() {
				t.Fatalf("n=%d ts=%d rho=%v: vacancy plane mismatch", tc.n, tc.ts, rho)
			}
			if err := tl.EqualView(lat); err != nil {
				t.Fatalf("n=%d ts=%d rho=%v: %v", tc.n, tc.ts, rho, err)
			}
			if got, want := tl.CountPlus(), lat.CountPlus(); got != want {
				t.Fatalf("n=%d ts=%d rho=%v: CountPlus = %d, want %d", tc.n, tc.ts, rho, got, want)
			}
			// And tiling the flat packed layout gives the same result:
			// both storage layouts satisfy the same view.
			tl2, err := TiledFromView(FromLattice(lat), tc.ts)
			if err != nil {
				t.Fatal(err)
			}
			if err := tl2.EqualView(lat); err != nil {
				t.Fatalf("n=%d ts=%d rho=%v (from packed): %v", tc.n, tc.ts, rho, err)
			}
		}
	}
}

// TestTiledInvalidTileSide verifies the word-alignment requirement.
func TestTiledInvalidTileSide(t *testing.T) {
	for _, ts := range []int{-64, 1, 32, 63, 65, 100} {
		if _, err := NewTiled(128, ts); err == nil {
			t.Fatalf("tile side %d accepted", ts)
		}
	}
	if _, err := NewTiled(0, 64); err == nil {
		t.Fatal("side 0 accepted")
	}
}

// TestTiledSetBits churns spin and occupancy bits against a reference
// lattice, crossing tile boundaries.
func TestTiledSetBits(t *testing.T) {
	n := 130
	lat := grid.RandomScenario(n, 0.5, 0.2, rng.New(3))
	tl, err := TiledFromView(lat, 64)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(4)
	for k := 0; k < 2000; k++ {
		i := src.Intn(n * n)
		switch src.Intn(3) {
		case 0:
			plus := src.Bernoulli(0.5)
			tl.SetSpinBit(i, plus)
			tl.SetOccupiedBit(i, true)
			if plus {
				lat.SetAt(i, grid.Plus)
			} else {
				lat.SetAt(i, grid.Minus)
			}
		case 1:
			tl.SetSpinBit(i, false)
			tl.SetOccupiedBit(i, false)
			lat.SetAt(i, grid.None)
		case 2:
			if lat.OccupiedAt(i) {
				got := tl.FlipBit(i)
				if want := lat.Flip(i) == grid.Plus; got != want {
					t.Fatalf("flip at %d: tiled %v, reference %v", i, got, want)
				}
			}
		}
	}
	if err := tl.EqualView(lat); err != nil {
		t.Fatal(err)
	}
}

// TestTiledWindowCounts pins the tiled window counting — both
// indicators, both boundaries, windows spanning tile seams and
// wrapping the torus — to the reference grid implementation.
func TestTiledWindowCounts(t *testing.T) {
	cases := []struct {
		n, w, ts int
		rho      float64
		open     bool
	}{
		{5, 2, 0, 0.2, true}, {9, 4, 64, 0.1, false},
		{64, 3, 64, 0.05, false}, {65, 32, 64, 0.2, true},
		{100, 10, 64, 0.1, true}, {130, 64, 64, 0.3, false},
		{130, 10, 128, 0, false}, {16, 20, 64, 0.1, true},
		{200, 70, 64, 0.1, false},
	}
	for _, tc := range cases {
		lat := grid.RandomScenario(tc.n, 0.5, tc.rho, rng.New(uint64(tc.n*100+tc.w)))
		tl, err := TiledFromView(lat, tc.ts)
		if err != nil {
			t.Fatal(err)
		}
		gotPlus := tl.PlusWindowCounts(tc.w, tc.open)
		wantPlus := lat.PlusWindowCounts(tc.w, tc.open)
		gotOcc := tl.OccupiedWindowCounts(tc.w, tc.open)
		wantOcc := lat.OccupiedWindowCounts(tc.w, tc.open)
		for i := range wantPlus {
			if gotPlus[i] != wantPlus[i] {
				t.Fatalf("%+v: PlusWindowCounts[%d] = %d, want %d", tc, i, gotPlus[i], wantPlus[i])
			}
			if gotOcc[i] != wantOcc[i] {
				t.Fatalf("%+v: OccupiedWindowCounts[%d] = %d, want %d", tc, i, gotOcc[i], wantOcc[i])
			}
		}
	}
}

// TestTiledRowRange cross-checks the tile-walking masked popcounts
// against direct enumeration across tile seams.
func TestTiledRowRange(t *testing.T) {
	n := 200
	lat := grid.Random(n, 0.5, rng.New(9))
	tl, err := TiledFromView(lat, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{0, 0}, {0, 63}, {0, 64}, {63, 64}, {63, 128}, {120, 199}, {0, 199}, {128, 128}, {65, 191}} {
		for _, y := range []int{0, 63, 64, 130, 199} {
			want := 0
			for x := r[0]; x <= r[1]; x++ {
				if lat.SpinAt(y*n+x) == grid.Plus {
					want++
				}
			}
			if got := tl.OnesInRowRange(y, r[0], r[1]); got != want {
				t.Fatalf("OnesInRowRange(%d, %d, %d) = %d, want %d", y, r[0], r[1], got, want)
			}
		}
	}
}

// TestTileCounts verifies the per-tile summaries sum to the lattice
// totals and respect edge-tile truncation.
func TestTileCounts(t *testing.T) {
	for _, rho := range []float64{0, 0.2} {
		n := 150
		lat := grid.RandomScenario(n, 0.5, rho, rng.New(11))
		tl, err := TiledFromView(lat, 64)
		if err != nil {
			t.Fatal(err)
		}
		plus, occ := tl.TileCounts()
		if len(plus) != tl.Tiles()*tl.Tiles() {
			t.Fatalf("got %d tiles, want %d", len(plus), tl.Tiles()*tl.Tiles())
		}
		var sumPlus, sumOcc int32
		for i := range plus {
			sumPlus += plus[i]
			sumOcc += occ[i]
		}
		if int(sumPlus) != lat.CountPlus() {
			t.Fatalf("rho=%v: tile plus sum %d, want %d", rho, sumPlus, lat.CountPlus())
		}
		if int(sumOcc) != lat.CountOccupied() {
			t.Fatalf("rho=%v: tile occ sum %d, want %d", rho, sumOcc, lat.CountOccupied())
		}
	}
}

// TestVisitStreamsMatchMaterialized pins the streaming lane forms to
// the reference counts, row by row and lane by lane — partial last
// words (n%4 != 0), both boundaries, full and vacancy lattices, and
// windows from w=1 to one wider than the lattice — and checks that
// the lanes past column n-1 stay zero.
func TestVisitStreamsMatchMaterialized(t *testing.T) {
	for _, n := range []int{5, 7, 63, 65, 100, 129} {
		for _, rho := range []float64{0, 0.1} {
			lat := grid.RandomScenario(n, 0.5, rho, rng.New(uint64(21+n)))
			p := FromLattice(lat)
			for _, w := range []int{1, 2, 5, 40} {
				for _, open := range []bool{false, true} {
					if !open && 2*w+1 > n {
						continue
					}
					check := func(name string, ref []int32, visit func(int, bool, func(int, []uint64))) {
						rows := 0
						visit(w, open, func(y int, lanes []uint64) {
							if y != rows || len(lanes) != LaneWords(n) {
								t.Fatalf("%s n=%d w=%d open=%v: row %d (len %d), want row %d (len %d)", name, n, w, open, y, len(lanes), rows, LaneWords(n))
							}
							for k, word := range lanes {
								for l := 0; l < 4; l++ {
									x, v := 4*k+l, int32(word>>uint(16*l)&0xffff)
									want := int32(0)
									if x < n {
										want = ref[y*n+x]
									}
									if v != want {
										t.Fatalf("%s n=%d w=%d open=%v rho=%v: lane (%d, %d) = %d, want %d", name, n, w, open, rho, x, y, v, want)
									}
								}
							}
							rows++
						})
						if rows != n {
							t.Fatalf("%s: visited %d rows, want %d", name, rows, n)
						}
					}
					check("plus", lat.PlusWindowCounts(w, open), p.VisitPlusWindowLanes)
					check("occupied", lat.OccupiedWindowCounts(w, open), p.VisitOccupiedWindowLanes)
				}
			}
		}
	}
}

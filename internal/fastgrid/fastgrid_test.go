package fastgrid

import (
	"testing"

	"gridseg/internal/grid"
	"gridseg/internal/rng"
)

// TestPackRoundTrip verifies that packing preserves every spin, across
// sides that exercise partial last words (n%64 != 0) and multi-word rows.
func TestPackRoundTrip(t *testing.T) {
	for _, n := range []int{3, 7, 31, 63, 64, 65, 100, 130} {
		lat := grid.Random(n, 0.5, rng.New(uint64(n)))
		p := FromLattice(lat)
		if err := p.EqualLattice(lat); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got, want := p.CountPlus(), lat.CountPlus(); got != want {
			t.Fatalf("n=%d: CountPlus = %d, want %d", n, got, want)
		}
	}
}

// TestFlipBit verifies flips agree with the reference lattice.
func TestFlipBit(t *testing.T) {
	n := 67
	lat := grid.Random(n, 0.5, rng.New(1))
	p := FromLattice(lat)
	src := rng.New(2)
	for k := 0; k < 500; k++ {
		i := src.Intn(n * n)
		got := p.FlipBit(i)
		want := lat.Flip(i) == grid.Plus
		if got != want {
			t.Fatalf("flip %d at site %d: packed %v, reference %v", k, i, got, want)
		}
	}
	if err := p.EqualLattice(lat); err != nil {
		t.Fatal(err)
	}
}

// TestWindowCounts pins the popcount-based window counting to the
// reference sliding-window implementation, including windows that span
// word boundaries and wrap the torus (2w+1 == n).
func TestWindowCounts(t *testing.T) {
	cases := []struct{ n, w int }{
		{5, 1}, {5, 2}, {9, 4}, {31, 15}, {64, 3}, {65, 32}, {100, 10}, {130, 64},
	}
	for _, tc := range cases {
		lat := grid.Random(tc.n, 0.5, rng.New(uint64(tc.n*100+tc.w)))
		p := FromLattice(lat)
		got := p.WindowCounts(tc.w)
		want := lat.WindowCounts(tc.w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d w=%d: WindowCounts[%d] = %d, want %d", tc.n, tc.w, i, got[i], want[i])
			}
		}
	}
}

// TestWindowCountsPanics verifies the self-wrapping window is rejected
// like the reference implementation.
func TestWindowCountsPanics(t *testing.T) {
	p := FromLattice(grid.New(5, grid.Minus))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 2w+1 > n")
		}
	}()
	p.WindowCounts(3)
}

// TestScenarioPackRoundTrip verifies packing preserves spins and
// occupancy on vacancy lattices, across partial-word and multi-word
// rows.
func TestScenarioPackRoundTrip(t *testing.T) {
	for _, n := range []int{3, 7, 31, 63, 64, 65, 100, 130} {
		lat := grid.RandomScenario(n, 0.5, 0.15, rng.New(uint64(n)))
		p := FromLattice(lat)
		if !p.HasVacancies() {
			t.Fatalf("n=%d: vacancy lattice packed without an occupancy plane", n)
		}
		if err := p.EqualLattice(lat); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
	if FromLattice(grid.Random(16, 0.5, rng.New(1))).HasVacancies() {
		t.Fatal("fully occupied lattice grew an occupancy plane")
	}
}

// TestScenarioWindowCounts pins the scenario window counting — both
// indicators (plus agents, occupied sites), both boundaries (wrapped,
// clamped) — to the reference grid implementations, including windows
// spanning word boundaries, rows on either side of the 64-bit word
// width where the sliding row windows wrap, torus-spanning windows and,
// under the open boundary, windows larger than the grid.
func TestScenarioWindowCounts(t *testing.T) {
	cases := []struct {
		n, w int
		rho  float64
		open bool
	}{
		{5, 1, 0, true}, {5, 2, 0.2, true}, {9, 4, 0.1, false},
		{31, 15, 0.1, true}, {64, 3, 0.05, false}, {65, 32, 0.2, true},
		{100, 10, 0.1, true}, {130, 64, 0.3, false}, {16, 20, 0.1, true},
		{3, 1, 0.2, false}, {63, 1, 0.2, false}, {66, 1, 0.2, false},
		{66, 2, 0.2, true}, {127, 63, 0.2, false}, {128, 1, 0.2, true},
		{129, 2, 0.2, false}, {7, 9, 0.2, true},
	}
	for _, tc := range cases {
		lat := grid.RandomScenario(tc.n, 0.5, tc.rho, rng.New(uint64(tc.n*100+tc.w)))
		p := FromLattice(lat)
		gotPlus := p.PlusWindowCounts(tc.w, tc.open)
		wantPlus := lat.PlusWindowCounts(tc.w, tc.open)
		gotOcc := p.OccupiedWindowCounts(tc.w, tc.open)
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

// TestOnesInRowRange cross-checks masked popcounts against direct
// enumeration at word boundaries.
func TestOnesInRowRange(t *testing.T) {
	n := 130
	lat := grid.Random(n, 0.5, rng.New(9))
	p := FromLattice(lat)
	for _, r := range [][2]int{{0, 0}, {0, 63}, {0, 64}, {63, 64}, {64, 127}, {120, 129}, {0, 129}, {65, 65}} {
		for y := 0; y < 3; y++ {
			want := 0
			for x := r[0]; x <= r[1]; x++ {
				if lat.SpinAt(y*n+x) == grid.Plus {
					want++
				}
			}
			if got := p.OnesInRowRange(y, r[0], r[1]); got != want {
				t.Fatalf("OnesInRowRange(%d, %d, %d) = %d, want %d", y, r[0], r[1], got, want)
			}
		}
	}
}

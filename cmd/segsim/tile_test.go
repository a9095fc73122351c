package main

import (
	"testing"

	"gridseg"
)

// TestTileSummaryPinned pins the -tile report line byte for byte on
// seeded configurations: whole tiles (n=128), zero-padded edge tiles
// (n=200 at sides 64 and 128), and vacancy lattices, where a tile's
// majority is taken over its occupied sites only.
func TestTileSummaryPinned(t *testing.T) {
	cases := []struct {
		n, w, tile int
		p, rho     float64
		open       bool
		seed       uint64
		fixate     bool
		want       string
	}{
		{n: 128, w: 4, tile: 64, p: 0.9, seed: 1, fixate: true,
			want: "tiles 2x2 side=64: plus-dom=4 minus-dom=0 mixed=0"},
		{n: 128, w: 4, tile: 64, p: 0.9, rho: 0.1, seed: 3,
			want: "tiles 2x2 side=64: plus-dom=2 minus-dom=0 mixed=2"},
		{n: 200, w: 4, tile: 64, p: 0.9, seed: 2,
			want: "tiles 4x4 side=64: plus-dom=6 minus-dom=0 mixed=10"},
		{n: 200, w: 4, tile: 128, p: 0.9, seed: 2,
			want: "tiles 2x2 side=128: plus-dom=3 minus-dom=0 mixed=1"},
		{n: 200, w: 4, tile: 64, p: 0.1, rho: 0.1, seed: 3,
			want: "tiles 4x4 side=64: plus-dom=0 minus-dom=10 mixed=6"},
		{n: 200, w: 10, tile: 64, p: 0.5, rho: 0.1, open: true, seed: 6, fixate: true,
			want: "tiles 4x4 side=64: plus-dom=7 minus-dom=1 mixed=8"},
	}
	for _, c := range cases {
		b := gridseg.BoundaryTorus
		if c.open {
			b = gridseg.BoundaryOpen
		}
		m, err := gridseg.New(gridseg.Config{N: c.n, W: c.w, Tau: 0.42, P: c.p, Rho: c.rho, Boundary: b, Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		if c.fixate {
			m.Run(0)
		}
		if got := tileSummary(m, c.tile); got != c.want {
			t.Errorf("n=%d p=%v rho=%v tile=%d: got %q, want %q", c.n, c.p, c.rho, c.tile, got, c.want)
		}
	}
}

package batch

import (
	"math"
	"strings"
	"testing"

	"gridseg/internal/dynamics/engines"
)

// TestParseGridRangeRegressions pins the parser hardening: the
// full-int-range spec whose value count wraps uint64 must error (not
// be accepted as an empty axis), and float ranges stay inclusive of hi
// without overstepping it.
func TestParseGridRangeRegressions(t *testing.T) {
	if _, err := ParseGrid("n=-9223372036854775808:9223372036854775807 w=1 tau=0.45"); err == nil {
		t.Error("full int range accepted (count wrapped to 0)")
	}
	// The same range with a huge step is a legitimate 3-value axis
	// ({lo, -1, hi-1}): intermediate wrap cancels because the true
	// values fit in int. (No w axis here: pairing these nonsense sides
	// with a horizon would now trip the semantic window check, which
	// TestParseGridWindowValidation covers.)
	g3, err := ParseGrid("n=-9223372036854775808:9223372036854775807:9223372036854775807")
	if err != nil {
		t.Errorf("3-value extreme range rejected: %v", err)
	} else if len(g3.Ns) != 3 || g3.Ns[1] != -1 {
		t.Errorf("extreme range = %v, want [min, -1, max-1]", g3.Ns)
	}
	g, err := ParseGrid("tau=0.40:0.48:0.03")
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0.40, 0.43, 0.46}; len(g.Taus) != len(want) || g.Taus[2] != want[2] {
		t.Errorf("non-divisible float range = %v, want %v (inclusive up to hi, no overshoot)", g.Taus, want)
	}
	g, err = ParseGrid("tau=0.40:0.48:0.02")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Taus) != 5 || g.Taus[4] != 0.48 {
		t.Errorf("divisible float range = %v, want endpoint 0.48 included", g.Taus)
	}
}

// FuzzParseGrid drives the grid-spec parser with arbitrary input. The
// contract under test: ParseGrid never panics and never hangs — every
// malformed, hostile, or degenerate spec returns an error — and every
// accepted grid is well-formed (finite floats in range, bounded axis
// expansion, bounded total size, positive replicates).
func FuzzParseGrid(f *testing.F) {
	seeds := []string{
		// The documented syntax.
		"n=96,240 w=2:4 tau=0.40:0.48:0.02 reps=8",
		"n=240 w=4 tau=0.45 dyn=glauber,kawasaki reps=16",
		"n=64 w=1 tau=0.5 p=0.1,0.5,0.9 engine=fast",
		"n=10:100:10 w=1,2,3 tau=0.42 replicates=4 dynamic=kawasaki",
		"engine=reference",
		"",
		// Scenario axes.
		"n=64 w=2 tau=0.42 boundary=torus,open rho=0:0.2:0.05",
		"n=32 w=1 tau=0.42 taudist=global|mix:0.35,0.45:0.5|uniform:0.3:0.5",
		"n=32 w=1 tau=0.42 dyn=move rho=0.1",
		"boundary=klein",
		"rho=1",
		"rho=-0.5",
		"taudist=mix:2,3:4",
		"taudist=mix",
		"n=3 w=5 tau=0.4",
		"dyn=move",
		// Malformed shapes that must error, not panic.
		"n=",
		"=5",
		"n==5",
		"n=1:",
		"n=:1",
		"n=1:2:0",
		"n=5:1",
		"tau=0.4:0.5",
		"tau=0.5:0.4:0.01",
		"n=1:1000000000",
		"reps=99999999999999999999",
		"tau=NaN",
		"tau=+Inf",
		"p=-Inf",
		"tau=1e300:2e300:1e-300",
		"tau=0:1:1e-18",
		"n=9223372036854775807",
		"n=-9223372036854775808:9223372036854775807",
		"n=-9223372036854775808:9223372036854775807:9223372036854775807",
		"w=0x10",
		"dyn=ising",
		"engine=turbo",
		"n=5 n=6",
		"dyn=glauber dynamic=kawasaki",
		"unknown=1",
		"n=1,2,3,4 w=1,2,3,4 tau=0,0.5,1 p=0,0.5,1 reps=1048576",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		g, err := ParseGrid(spec)
		if err != nil {
			return
		}
		// Accepted grids must be safe to expand and enumerate.
		if g.boundedSize() > MaxGridCells {
			t.Fatalf("accepted grid expands to %d cells (max %d): %q", g.boundedSize(), MaxGridCells, spec)
		}
		for _, axis := range [][]float64{g.Taus, g.Ps} {
			if len(axis) > MaxAxisValues {
				t.Fatalf("accepted axis has %d values: %q", len(axis), spec)
			}
			for _, v := range axis {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1 {
					t.Fatalf("accepted out-of-range value %v: %q", v, spec)
				}
			}
		}
		if len(g.Ns) > MaxAxisValues || len(g.Ws) > MaxAxisValues {
			t.Fatalf("accepted int axis too large: %q", spec)
		}
		if g.Replicates < 0 {
			t.Fatalf("accepted negative replicates %d: %q", g.Replicates, spec)
		}
		if kind, err := engines.Parse(g.Engine); err != nil || (g.Engine != "" && g.Engine != kind.String()) {
			t.Fatalf("accepted non-canonical engine %q: %q", g.Engine, spec)
		}
		for _, d := range g.Dynamics {
			if d != Glauber && d != Kawasaki && d != Move {
				t.Fatalf("accepted unknown dynamic %q: %q", d, spec)
			}
		}
		for _, b := range g.Boundaries {
			if b != BoundaryTorus && b != BoundaryOpen {
				t.Fatalf("accepted unknown boundary %q: %q", b, spec)
			}
		}
		for _, rho := range g.Rhos {
			if math.IsNaN(rho) || rho < 0 || rho >= 1 {
				t.Fatalf("accepted out-of-range rho %v: %q", rho, spec)
			}
		}
		for _, n := range g.Ns {
			for _, w := range g.Ws {
				if 2*w+1 > n {
					t.Fatalf("accepted self-wrapping window n=%d w=%d: %q", n, w, spec)
				}
			}
		}
		cells := g.Cells()
		if len(cells) != g.Size() {
			t.Fatalf("Cells/Size mismatch %d != %d: %q", len(cells), g.Size(), spec)
		}
		// Cell decodes any index to the cell Cells enumerates there.
		for i := 0; i < len(cells); i += 1 + len(cells)/64 {
			if c := g.Cell(i); c != cells[i] {
				t.Fatalf("Cell(%d) = %+v, Cells()[%d] = %+v: %q", i, c, i, cells[i], spec)
			}
		}
		if n := len(cells); n > 0 && g.Cell(n-1) != cells[n-1] {
			t.Fatalf("Cell(%d) = %+v, want the last cell %+v: %q", n-1, g.Cell(n-1), cells[n-1], spec)
		}
		_ = strings.TrimSpace(spec)
	})
}

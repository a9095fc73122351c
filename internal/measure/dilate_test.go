package measure

import (
	"fmt"
	"math"
	"testing"

	"gridseg/internal/dynamics"
	"gridseg/internal/dynamics/fastglauber"
	"gridseg/internal/geom"
	"gridseg/internal/grid"
	"gridseg/internal/rng"
)

// bfsDistanceToSpin is the test oracle for the dilation kernel: the
// Chebyshev torus distance from every site to the nearest site of spin
// s by multi-source BFS over the 8 wrapped neighbours, Unreachable
// everywhere when the lattice has no site of that spin.
func bfsDistanceToSpin(l *grid.Lattice, s grid.Spin) []int32 {
	n := l.N()
	dist := make([]int32, l.Sites())
	var queue []int
	for i := range dist {
		dist[i] = Unreachable
		if l.SpinAt(i) == s {
			dist[i] = 0
			queue = append(queue, i)
		}
	}
	for head := 0; head < len(queue); head++ {
		i := queue[head]
		x0, y0 := i%n, i/n
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				j := (y0+dy+n)%n*n + (x0+dx+n)%n
				if dist[j] == Unreachable {
					dist[j] = dist[i] + 1
					queue = append(queue, j)
				}
			}
		}
	}
	return dist
}

// bfsOppositeDistances is the oracle for OppositeDistances: Plus sites
// take the distance to Minus, all other sites the distance to Plus.
func bfsOppositeDistances(l *grid.Lattice) []int32 {
	toPlus, toMinus := bfsDistanceToSpin(l, grid.Plus), bfsDistanceToSpin(l, grid.Minus)
	for i := range toPlus {
		if l.SpinAt(i) == grid.Plus {
			toPlus[i] = toMinus[i]
		}
	}
	return toPlus
}

// bfsCenteredRadii is the oracle for CenteredRadii: distance minus one,
// Unreachable mapped to the cap, every radius clamped at the cap.
func bfsCenteredRadii(l *grid.Lattice) []int32 {
	cap32 := int32(maxRadiusCap(l.N()))
	radii := bfsOppositeDistances(l)
	for i, d := range radii {
		if d == Unreachable || d-1 > cap32 {
			radii[i] = cap32
		} else {
			radii[i] = d - 1
		}
	}
	return radii
}

// ringScanMonoRegionSize is the oracle for MonoRegionSize: the ring
// scan over every ring out to the cap, with no early stop.
func ringScanMonoRegionSize(l *grid.Lattice, radii []int32, u geom.Point) int {
	tor := l.Torus()
	best := radii[tor.Index(u)]
	for d := 1; d <= maxRadiusCap(l.N()); d++ {
		tor.SquarePerimeter(u, d, func(p geom.Point) {
			if r := radii[tor.Index(p)]; int(r) >= d && r > best {
				best = r
			}
		})
	}
	return geom.SquareSize(int(best))
}

// checkAgainstOracle compares the kernel's distance and radius fields
// and M(u) at a spread of probes, and the sweep's mean over its five
// probes, with the BFS oracle.
func checkAgainstOracle(t testing.TB, l *grid.Lattice, label string) {
	t.Helper()
	want := bfsOppositeDistances(l)
	for i, d := range OppositeDistances(l) {
		if d != want[i] {
			t.Fatalf("%s: site %d: distance %d, oracle %d", label, i, d, want[i])
		}
	}
	wantR := bfsCenteredRadii(l)
	radii := CenteredRadii(l)
	for i, r := range radii {
		if r != wantR[i] {
			t.Fatalf("%s: site %d: radius %d, oracle %d", label, i, r, wantR[i])
		}
	}
	for _, u := range SamplePoints(l.N(), 13) {
		if got, want := MonoRegionSize(l, radii, u), ringScanMonoRegionSize(l, wantR, u); got != want {
			t.Fatalf("%s: M(%v) = %d, oracle %d", label, u, got, want)
		}
	}
	pts := SamplePoints(l.N(), 5)
	var mean float64
	for _, u := range pts {
		mean += float64(ringScanMonoRegionSize(l, wantR, u))
	}
	mean /= float64(len(pts))
	if got := MeanMonoRegionSize(l, pts); got != mean {
		t.Fatalf("%s: mean M = %v, oracle %v", label, got, mean)
	}
}

// Random lattices across row widths below, at and across the 64-bit
// word boundary, including monochrome (p = 0 or 1 at rho = 0) and
// one-type-plus-vacancy (p = 0 or 1 at rho > 0) lattices.
func TestDilationMatchesOracleRandom(t *testing.T) {
	seed := uint64(1)
	for _, n := range []int{3, 4, 5, 31, 63, 64, 65, 127, 128, 129} {
		for _, p := range []float64{0, 0.02, 0.5, 1} {
			for _, rho := range []float64{0, 0.05, 0.5} {
				seed++
				l := grid.RandomScenario(n, p, rho, rng.New(seed))
				checkAgainstOracle(t, l, fmt.Sprintf("n=%d p=%v rho=%v seed=%d", n, p, rho, seed))
			}
		}
	}
}

// fixatedLattice runs a half-half lattice with vacancy fraction rho to
// its terminal state under the given dynamic, with the attempt budget
// the model facade uses for the swap and move dynamics.
func fixatedLattice(tb testing.TB, dyn string, n, w int, tau, rho float64, open bool, seed uint64) *grid.Lattice {
	tb.Helper()
	l := grid.RandomScenario(n, 0.5, rho, rng.New(seed))
	sc := dynamics.Scenario{Open: open}
	src := rng.New(seed + 1)
	n2 := int64(n) * int64(n)
	var err error
	switch dyn {
	case "glauber":
		var p *fastglauber.Process
		if p, err = fastglauber.NewScenario(l, w, tau, sc, src); err == nil {
			p.Run(0)
		}
	case "kawasaki":
		var k *fastglauber.Kawasaki
		if k, err = fastglauber.NewKawasakiScenario(l, w, tau, sc, src); err == nil {
			k.Run(20*n2, n2)
		}
	case "move":
		var m *fastglauber.Move
		if m, err = fastglauber.NewMove(l, w, tau, sc, src); err == nil {
			m.Run(20*n2, n2)
		}
	default:
		err = fmt.Errorf("unknown dynamic %q", dyn)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return l
}

// Fixated lattices, the configurations the sweeps measure: multi-word
// rows with large monochromatic regions, including open-boundary swap
// and move cells with vacancies (the kernel still measures torus
// distances there).
func TestDilationMatchesOracleFixated(t *testing.T) {
	cases := []struct {
		dyn  string
		w    int
		tau  float64
		rho  float64
		open bool
	}{
		{"glauber", 1, 0.40, 0, false},
		{"glauber", 2, 0.45, 0.05, true},
		{"kawasaki", 1, 0.45, 0, true},
		{"kawasaki", 2, 0.45, 0.05, true},
		{"move", 1, 0.45, 0.1, true},
		{"move", 2, 0.40, 0.05, false},
	}
	for _, n := range []int{65, 130, 200} {
		for i, c := range cases {
			l := fixatedLattice(t, c.dyn, n, c.w, c.tau, c.rho, c.open, uint64(100*n+i))
			checkAgainstOracle(t, l, fmt.Sprintf("n=%d %+v", n, c))
		}
	}
}

// FuzzCenteredRadii checks the kernel against the BFS oracle on random
// scenario lattices of arbitrary side, composition and seed.
func FuzzCenteredRadii(f *testing.F) {
	f.Add(64, 0.5, 0.0, uint64(1))
	f.Add(65, 0.02, 0.05, uint64(2))
	f.Add(3, 1.0, 0.5, uint64(3))
	f.Add(129, 0.0, 0.0, uint64(4))
	f.Fuzz(func(t *testing.T, n int, p, rho float64, seed uint64) {
		n = 3 + int(uint(n)%198)
		l := grid.RandomScenario(n, unit(p), unit(rho), rng.New(seed))
		checkAgainstOracle(t, l, fmt.Sprintf("n=%d p=%v rho=%v seed=%d", n, p, rho, seed))
	})
}

// unit maps an arbitrary float into [0, 1].
func unit(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0.5
	}
	return math.Abs(v - math.Trunc(v))
}

var (
	sinkMeanM float64
	sinkSeg   Segregation
)

// benchLattices are the fixated lattices the measurement benchmarks
// share: the shapes sweep cells measure.
var benchLattices = []struct {
	name string
	n, w int
	tau  float64
	rho  float64
}{
	{"n=512/w=1/tau=0.40", 512, 1, 0.40, 0},
	{"n=1024/w=1/tau=0.44/rho=0.05", 1024, 1, 0.44, 0.05},
}

// BenchmarkMeanMonoRegionSize measures the sweep's mean_M column on
// fixated lattices like the ones sweep cells measure.
func BenchmarkMeanMonoRegionSize(b *testing.B) {
	for _, c := range benchLattices {
		b.Run(c.name, func(b *testing.B) {
			l := fixatedLattice(b, "glauber", c.n, c.w, c.tau, c.rho, false, 1)
			pts := SamplePoints(c.n, 5)
			for b.Loop() {
				sinkMeanM = MeanMonoRegionSize(l, pts)
			}
		})
	}
}

// BenchmarkSegregationStats measures the packed segregation pass —
// packing included — on the same fixated lattices.
func BenchmarkSegregationStats(b *testing.B) {
	for _, c := range benchLattices {
		b.Run(c.name, func(b *testing.B) {
			l := fixatedLattice(b, "glauber", c.n, c.w, c.tau, c.rho, false, 1)
			for b.Loop() {
				sinkSeg = SegregationView(l, c.w, false)
			}
		})
	}
}

package measure

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"gridseg/internal/geom"
	"gridseg/internal/grid"
	"gridseg/internal/rng"
)

func mustParse(t *testing.T, s string) *grid.Lattice {
	t.Helper()
	l, err := grid.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestOppositeDistancesMonochromatic(t *testing.T) {
	l := grid.New(5, grid.Plus)
	for i, d := range OppositeDistances(l) {
		if d != Unreachable {
			t.Fatalf("site %d: distance %d, want Unreachable", i, d)
		}
	}
}

func TestOppositeDistancesHandCase(t *testing.T) {
	l := mustParse(t, `
		-----
		-----
		--+--
		-----
		-----
	`)
	opp := OppositeDistances(l)
	tor := l.Torus()
	center := geom.Point{X: 2, Y: 2}
	for i := 0; i < l.Sites(); i++ {
		p := tor.At(i)
		want := int32(tor.Cheb(p, center))
		if p == center {
			// The + agent's nearest opposite is any adjacent -.
			want = 1
		}
		if opp[i] != want {
			t.Fatalf("site %v: distance %d, want %d", p, opp[i], want)
		}
	}
}

func TestOppositeDistancesMatchBruteForce(t *testing.T) {
	l := grid.Random(11, 0.5, rng.New(3))
	opp := OppositeDistances(l)
	tor := l.Torus()
	for i := 0; i < l.Sites(); i++ {
		p := tor.At(i)
		want := int32(math.MaxInt32)
		for j := 0; j < l.Sites(); j++ {
			if l.SpinAt(j) != l.SpinAt(i) {
				if d := int32(tor.Cheb(p, tor.At(j))); d < want {
					want = d
				}
			}
		}
		if opp[i] != want {
			t.Fatalf("site %v: kernel %d, brute %d", p, opp[i], want)
		}
	}
}

func TestCenteredRadii(t *testing.T) {
	l := mustParse(t, `
		+++++++
		+++++++
		+++++++
		+++-+++
		+++++++
		+++++++
		+++++++
	`)
	radii := CenteredRadii(l)
	tor := l.Torus()
	// The minus agent at (3,3): centered radius 0 (its own square of
	// radius 1 contains + agents).
	if r := radii[tor.Index(geom.Point{X: 3, Y: 3})]; r != 0 {
		t.Fatalf("minus center radius = %d, want 0", r)
	}
	// A + agent at (0,0) is at Chebyshev distance 3 from the minus
	// (torus-wrapped), so its centered monochromatic radius is 2.
	if r := radii[tor.Index(geom.Point{X: 0, Y: 0})]; r != 2 {
		t.Fatalf("corner radius = %d, want 2", r)
	}
}

func TestCenteredRadiiMonochromaticCapped(t *testing.T) {
	l := grid.New(9, grid.Minus)
	radii := CenteredRadii(l)
	for i, r := range radii {
		if r != 4 { // (9-1)/2
			t.Fatalf("site %d: radius %d, want cap 4", i, r)
		}
	}
}

func TestMonoRegionSizeHandCase(t *testing.T) {
	// 9x9 with a 5x5 + block in the top-left corner (centered at (2,2))
	// in a sea of -.
	l := grid.New(9, grid.Minus)
	tor := l.Torus()
	tor.Square(geom.Point{X: 2, Y: 2}, 2, func(p geom.Point) { l.Set(p, grid.Plus) })
	radii := CenteredRadii(l)
	// The block's center has centered radius 2 => M >= 25. No larger
	// monochromatic square exists anywhere near it; but the far-away
	// minus sea has its own larger squares, which must NOT count for a
	// + agent inside the block.
	if got := MonoRegionSize(l, radii, geom.Point{X: 2, Y: 2}); got != 25 {
		t.Fatalf("M(block center) = %d, want 25", got)
	}
	// A corner agent of the + block is contained in the same 5x5 block.
	if got := MonoRegionSize(l, radii, geom.Point{X: 0, Y: 0}); got != 25 {
		t.Fatalf("M(block corner) = %d, want 25", got)
	}
	if got := MonoRegionRadius(l, radii, geom.Point{X: 0, Y: 0}); got != 2 {
		t.Fatalf("radius = %d, want 2", got)
	}
}

// A minus agent far from the block sits in a large minus region: the
// largest monochromatic square avoiding the 5x5 block.
func TestMonoRegionSizeOfSeaAgent(t *testing.T) {
	l := grid.New(15, grid.Minus)
	tor := l.Torus()
	tor.Square(geom.Point{X: 2, Y: 2}, 2, func(p geom.Point) { l.Set(p, grid.Plus) })
	radii := CenteredRadii(l)
	u := geom.Point{X: 9, Y: 9}
	got := MonoRegionSize(l, radii, u)
	// The + block occupies [0,4]^2 on a 15-torus. The circular distance
	// from any x to the interval [0,4] is at most 5 (attained mid-gap),
	// so no center is Chebyshev distance >= 6 from every + site and no
	// minus square of radius 5 exists anywhere. Centers like (9,9) or
	// (10,10) attain distance 5 => centered radius 4 => M = 81.
	if got != 81 {
		t.Fatalf("M(sea agent) = %d, want 81", got)
	}
}

func TestMonoRegionSizeSingleton(t *testing.T) {
	// Checkerboard: every agent is its own monochromatic region.
	l := grid.New(8, grid.Minus)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			if (x+y)%2 == 0 {
				l.Set(geom.Point{X: x, Y: y}, grid.Plus)
			}
		}
	}
	radii := CenteredRadii(l)
	if got := MonoRegionSize(l, radii, geom.Point{X: 3, Y: 3}); got != 1 {
		t.Fatalf("checkerboard M = %d, want 1", got)
	}
}

func TestAlmostMonoSizeExactMonochromatic(t *testing.T) {
	// With beta = 0 the almost-mono region coincides with the mono one.
	l := grid.New(9, grid.Minus)
	tor := l.Torus()
	tor.Square(geom.Point{X: 2, Y: 2}, 2, func(p geom.Point) { l.Set(p, grid.Plus) })
	pre := grid.NewPrefix(l)
	radii := CenteredRadii(l)
	u := geom.Point{X: 1, Y: 1}
	if got, want := AlmostMonoSize(l, pre, u, 0, 0), MonoRegionSize(l, radii, u); got != want {
		t.Fatalf("beta=0 almost-mono %d != mono %d", got, want)
	}
}

func TestAlmostMonoSizeToleratesMinority(t *testing.T) {
	// A 7x7 + block with one - inside: ratio 1/48 <= 1/40.
	l := grid.New(15, grid.Minus)
	tor := l.Torus()
	tor.Square(geom.Point{X: 4, Y: 4}, 3, func(p geom.Point) { l.Set(p, grid.Plus) })
	l.Set(geom.Point{X: 4, Y: 4}, grid.Minus)
	pre := grid.NewPrefix(l)
	u := geom.Point{X: 5, Y: 5}
	got := AlmostMonoSize(l, pre, u, 1.0/40, 3)
	if got != 49 {
		t.Fatalf("almost-mono size = %d, want 49", got)
	}
	// With a stricter bound the polluted square no longer qualifies.
	strict := AlmostMonoSize(l, pre, u, 1.0/100, 3)
	if strict >= 49 {
		t.Fatalf("strict almost-mono size = %d, want < 49", strict)
	}
}

func TestAlmostMonoRespectsRcap(t *testing.T) {
	l := grid.New(21, grid.Plus)
	pre := grid.NewPrefix(l)
	got := AlmostMonoSize(l, pre, geom.Point{X: 10, Y: 10}, 0, 2)
	if got != 25 {
		t.Fatalf("rcap=2 size = %d, want 25", got)
	}
}

// bfsClusters is the oracle for the packed cluster labelling: a BFS labelling of
// the connected same-spin components (4-adjacency; wrapping on the
// torus, stopping at the edges when open) that returns the statistics
// in discovery order together with the per-site cluster sizes. Vacant
// sites form their own spin-None clusters, counted in Count and Sizes
// but never in LargestPlus or LargestMinus.
func bfsClusters(l *grid.Lattice, open bool) (ClusterStats, []int32) {
	n, sites := l.N(), l.Sites()
	label := make([]int32, sites)
	for i := range label {
		label[i] = -1
	}
	var stats ClusterStats
	var queue, clusterSize []int32
	for start := 0; start < sites; start++ {
		if label[start] != -1 {
			continue
		}
		id := int32(len(clusterSize))
		spin := l.SpinAt(start)
		label[start] = id
		queue = append(queue[:0], int32(start))
		for head := 0; head < len(queue); head++ {
			i := int(queue[head])
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				x, y := i%n+d[0], i/n+d[1]
				if open && (x < 0 || x >= n || y < 0 || y >= n) {
					continue
				}
				j := (y+n)%n*n + (x+n)%n
				if label[j] == -1 && l.SpinAt(j) == spin {
					label[j] = id
					queue = append(queue, int32(j))
				}
			}
		}
		size := len(queue)
		clusterSize = append(clusterSize, int32(size))
		stats.Sizes = append(stats.Sizes, size)
		switch spin {
		case grid.Plus:
			stats.LargestPlus = max(stats.LargestPlus, size)
		case grid.Minus:
			stats.LargestMinus = max(stats.LargestMinus, size)
		}
	}
	stats.Count = len(stats.Sizes)
	perSite := make([]int32, sites)
	for i := range perSite {
		perSite[i] = clusterSize[label[i]]
	}
	return stats, perSite
}

// checkClusters requires the packed labelling to reproduce the oracle's
// statistics, Sizes order included, and returns the oracle's result.
func checkClusters(t *testing.T, l *grid.Lattice, open bool) (ClusterStats, []int32) {
	t.Helper()
	want, perSite := bfsClusters(l, open)
	if got := SegregationView(l, 0, open).Clusters; !reflect.DeepEqual(got, want) {
		t.Fatalf("clusters = %+v, BFS oracle %+v", got, want)
	}
	return want, perSite
}

func TestClustersMonochromatic(t *testing.T) {
	l := grid.New(6, grid.Plus)
	stats, perSite := checkClusters(t, l, false)
	if stats.Count != 1 || stats.LargestPlus != 36 || stats.LargestMinus != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	for _, s := range perSite {
		if s != 36 {
			t.Fatal("per-site cluster size must be 36")
		}
	}
}

func TestClustersHandCase(t *testing.T) {
	l := mustParse(t, `
		++--
		++--
		----
		----
	`)
	stats, perSite := checkClusters(t, l, false)
	if stats.Count != 2 {
		t.Fatalf("count = %d, want 2", stats.Count)
	}
	if stats.LargestPlus != 4 || stats.LargestMinus != 12 {
		t.Fatalf("stats = %+v", stats)
	}
	tor := l.Torus()
	if perSite[tor.Index(geom.Point{X: 0, Y: 0})] != 4 {
		t.Fatal("plus block site must be in a cluster of 4")
	}
	if perSite[tor.Index(geom.Point{X: 3, Y: 3})] != 12 {
		t.Fatal("minus sea site must be in a cluster of 12")
	}
}

func TestClustersWrapAround(t *testing.T) {
	// A full row of + wraps into a single cluster of size n.
	l := grid.New(5, grid.Minus)
	for x := 0; x < 5; x++ {
		l.Set(geom.Point{X: x, Y: 2}, grid.Plus)
	}
	stats, _ := checkClusters(t, l, false)
	if stats.LargestPlus != 5 {
		t.Fatalf("wrapped row cluster = %d, want 5", stats.LargestPlus)
	}
	if stats.LargestMinus != 20 {
		t.Fatalf("sea cluster = %d, want 20 (wraps vertically)", stats.LargestMinus)
	}
}

func TestInterfaceDensity(t *testing.T) {
	if got := SegregationView(grid.New(6, grid.Plus), 0, false).InterfaceDensity; got != 0 {
		t.Fatalf("monochromatic interface density = %v, want 0", got)
	}
	// Checkerboard: every edge is mismatched.
	l := grid.New(6, grid.Minus)
	for y := 0; y < 6; y++ {
		for x := 0; x < 6; x++ {
			if (x+y)%2 == 0 {
				l.Set(geom.Point{X: x, Y: y}, grid.Plus)
			}
		}
	}
	if got := SegregationView(l, 0, false).InterfaceDensity; got != 1 {
		t.Fatalf("checkerboard interface density = %v, want 1", got)
	}
	// Vertical stripes of width 3 on a 6-torus: 2 mismatched vertical
	// boundaries per row out of 6 horizontal edges per row; vertical
	// edges all matched => density = (2*6)/(2*36) = 1/6.
	stripes := grid.New(6, grid.Minus)
	for y := 0; y < 6; y++ {
		for x := 0; x < 3; x++ {
			stripes.Set(geom.Point{X: x, Y: y}, grid.Plus)
		}
	}
	if got := SegregationView(stripes, 0, false).InterfaceDensity; math.Abs(got-1.0/6) > 1e-12 {
		t.Fatalf("stripes interface density = %v, want 1/6", got)
	}
}

func TestMeanSameFraction(t *testing.T) {
	if got := SegregationView(grid.New(7, grid.Plus), 1, false).MeanSameFraction; got != 1 {
		t.Fatalf("monochromatic mean same fraction = %v, want 1", got)
	}
	l := grid.Random(32, 0.5, rng.New(5))
	got := SegregationView(l, 2, false).MeanSameFraction
	if math.Abs(got-0.5) > 0.05 {
		t.Fatalf("random mean same fraction = %v, want ~0.5", got)
	}
}

func TestHappyFraction(t *testing.T) {
	l := grid.New(7, grid.Plus)
	if got := HappyFraction(l, 1, 9); got != 1 {
		t.Fatalf("monochromatic happy fraction = %v, want 1", got)
	}
	// Single dissenter at tau N = 5, w = 1: exactly one unhappy agent.
	l.Set(geom.Point{X: 3, Y: 3}, grid.Minus)
	got := HappyFraction(l, 1, 5)
	want := 1 - 1.0/49
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("happy fraction = %v, want %v", got, want)
	}
}

// Property: M(u) is at least the centered square at u and at most the
// full torus, and contains u by construction.
func TestQuickMonoRegionBounds(t *testing.T) {
	f := func(seed uint64) bool {
		l := grid.Random(9, 0.5, rng.New(seed))
		radii := CenteredRadii(l)
		u := l.Torus().At(int(seed % uint64(l.Sites())))
		m := MonoRegionSize(l, radii, u)
		centered := geom.SquareSize(int(radii[l.Torus().Index(u)]))
		return m >= centered && m >= 1 && m <= l.Sites()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: AlmostMonoSize is monotone in beta and always >= MonoRegionSize
// restricted to the same radius cap when beta >= 0.
func TestQuickAlmostMonoMonotoneInBeta(t *testing.T) {
	f := func(seed uint64) bool {
		l := grid.Random(9, 0.5, rng.New(seed))
		pre := grid.NewPrefix(l)
		u := l.Torus().At(int(seed % uint64(l.Sites())))
		a := AlmostMonoSize(l, pre, u, 0.01, 0)
		b := AlmostMonoSize(l, pre, u, 0.2, 0)
		return b >= a && a >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkClusters(b *testing.B) {
	p := Pack(grid.Random(256, 0.5, rng.New(1)))
	defer p.Release()
	for b.Loop() {
		_ = p.clusters(false)
	}
}

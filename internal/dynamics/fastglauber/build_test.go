package fastglauber

import (
	"fmt"
	"testing"

	"gridseg/internal/dynamics"
	"gridseg/internal/grid"
	"gridseg/internal/rng"
	"gridseg/internal/sampleset"
	"gridseg/internal/topology"
)

// The constructors classify a count word — four sites — at a time and
// bulk-load every sampler from a bitset. The oracle below is the
// per-site loop the word build replaced: it re-derives the classification
// site by site, in row-major order, on a copy of the built state whose
// unhappy bitset, tally and samplers start empty, and the word build
// must agree with it element for element — sampler order included,
// since a uniform draw maps to a site through that order. The copy
// shares the built count, threshold and occupancy lanes, which
// CheckInvariants verifies against a fresh recount.

// buildCase is one engine shape of the construction oracle.
type buildCase struct {
	n, w int
	tau  float64
	rho  float64
	open bool
	dist string
}

func (c buildCase) String() string {
	return fmt.Sprintf("n=%d w=%d tau=%v rho=%v open=%v dist=%q", c.n, c.w, c.tau, c.rho, c.open, c.dist)
}

// oracleProcess returns a copy of p classified by the per-site loop.
func oracleProcess(p *Process) *Process {
	o := new(Process)
	*o = *p
	o.unhappy = make([]uint64, len(p.unhappy))
	o.nUnhappy = 0
	o.flippable = sampleset.New(p.n * p.n)
	o.track = false
	for y := 0; y < p.n; y++ {
		for x := 0; x < p.n; x++ {
			j, c := y*p.n+x, o.lane(o.counts, x, y)
			if !p.relocating {
				o.refreshAt(j, x, y, c)
				continue
			}
			// The relocation engine classified each occupied site by
			// its own threshold over its occupancy lane.
			if !o.occupiedAt(x, y) {
				continue
			}
			occ, th := o.lane(o.occC, x, y), o.threshAt(x, y)
			if plus := o.bits.Bit(j); plus && c < th || !plus && c > occ-th {
				o.unhappy[j>>6] |= 1 << uint(j&63)
				o.nUnhappy++
			}
		}
	}
	return o
}

// sameItems reports the first difference between two samplers' member
// orders.
func sameItems(name string, got, want *sampleset.Set) error {
	g, w := got.Items(), want.Items()
	if len(g) != len(w) {
		return fmt.Errorf("%s: %d members, oracle %d", name, len(g), len(w))
	}
	for k := range g {
		if g[k] != w[k] {
			return fmt.Errorf("%s: member %d is site %d, oracle %d", name, k, g[k], w[k])
		}
	}
	return nil
}

// sameBuild compares a built process with its per-site oracle.
func sameBuild(got *Process) error {
	want := oracleProcess(got)
	for k := range want.unhappy {
		if got.unhappy[k] != want.unhappy[k] {
			return fmt.Errorf("unhappy word %d = %#x, oracle %#x", k, got.unhappy[k], want.unhappy[k])
		}
	}
	if got.nUnhappy != want.nUnhappy {
		return fmt.Errorf("nUnhappy = %d, oracle %d", got.nUnhappy, want.nUnhappy)
	}
	return sameItems("flippable", got.flippable, want.flippable)
}

// checkBuild builds the Glauber, Kawasaki and (given vacancies) Move
// engines of one case and compares each with its oracle.
func checkBuild(t testing.TB, c buildCase, seed uint64) {
	t.Helper()
	lat := grid.RandomScenario(c.n, 0.5, c.rho, rng.New(seed).Split(1))
	dist, err := topology.ParseTauDist(c.dist)
	if err != nil {
		t.Fatal(err)
	}
	sc := dynamics.Scenario{Open: c.open, Taus: dist.SampleField(lat.Sites(), c.tau, rng.New(seed).Split(3))}

	p, err := NewScenario(lat.Clone(), c.w, c.tau, sc, rng.New(seed))
	if err != nil {
		t.Fatalf("%v: NewScenario: %v", c, err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("%v: glauber: %v", c, err)
	}
	if err := sameBuild(p); err != nil {
		t.Fatalf("%v: glauber: %v", c, err)
	}

	k, err := NewKawasakiScenario(lat.Clone(), c.w, c.tau, sc, rng.New(seed))
	if err != nil {
		t.Fatalf("%v: NewKawasakiScenario: %v", c, err)
	}
	// The swap engine's process is built exactly like p, which passed
	// CheckInvariants above; only its per-type samplers are new.
	ko := &Kawasaki{p: oracleProcess(k.p), unhappyPlus: sampleset.New(lat.Sites()), unhappyMinus: sampleset.New(lat.Sites())}
	for i := 0; i < lat.Sites(); i++ {
		ko.refreshSets(i)
	}
	if err := sameItems("unhappyPlus", k.unhappyPlus, ko.unhappyPlus); err != nil {
		t.Fatalf("%v: kawasaki: %v", c, err)
	}
	if err := sameItems("unhappyMinus", k.unhappyMinus, ko.unhappyMinus); err != nil {
		t.Fatalf("%v: kawasaki: %v", c, err)
	}

	if !lat.HasVacancies() {
		return
	}
	m, err := NewMove(lat.Clone(), c.w, c.tau, sc, rng.New(seed))
	if err != nil {
		t.Fatalf("%v: NewMove: %v", c, err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("%v: move: %v", c, err)
	}
	if err := sameBuild(m.p); err != nil {
		t.Fatalf("%v: move: %v", c, err)
	}
	mo := &Move{p: oracleProcess(m.p), unhappySet: sampleset.New(lat.Sites()), vacantSet: sampleset.New(lat.Sites())}
	for i := 0; i < lat.Sites(); i++ {
		mo.refreshSets(i)
	}
	if err := sameItems("unhappy", m.unhappySet, mo.unhappySet); err != nil {
		t.Fatalf("%v: move: %v", c, err)
	}
	if err := sameItems("vacant", m.vacantSet, mo.vacantSet); err != nil {
		t.Fatalf("%v: move: %v", c, err)
	}
}

// TestWordBuildMatchesOracle runs the construction oracle over sides
// with partial count words and unhappy nibbles that straddle a 64-bit
// word (n%4 != 0), horizons up to a torus-spanning w=40, global
// intolerances at both ends and on the paper's 1/2, a mixed
// intolerance field (which replaces the global one), vacancy fractions
// and both boundaries.
func TestWordBuildMatchesOracle(t *testing.T) {
	intolerances := []struct {
		tau  float64
		dist string
	}{{0, ""}, {0.25, ""}, {0.44, ""}, {0.5, ""}, {1, ""}, {0.44, "mix:0.35,0.45:0.5"}}
	seed := uint64(1)
	for _, n := range []int{5, 7, 63, 65, 127, 129} {
		for _, w := range []int{1, 2, 5, 40} {
			if 2*w+1 > n {
				continue
			}
			for _, in := range intolerances {
				for _, rho := range []float64{0, 0.1, 0.6} {
					for _, open := range []bool{false, true} {
						seed++
						checkBuild(t, buildCase{n: n, w: w, tau: in.tau, rho: rho, open: open, dist: in.dist}, seed)
					}
				}
			}
		}
	}
}

// FuzzEngineBuild compares the word build of all three engines with
// the per-site oracle on random shapes: side, horizon, intolerance,
// vacancy fraction, boundary and intolerance field.
func FuzzEngineBuild(f *testing.F) {
	f.Add(uint8(5), uint8(1), uint16(29000), uint8(0), false, uint8(0), uint64(1))
	f.Add(uint8(65), uint8(5), uint16(32768), uint8(25), true, uint8(1), uint64(2))
	f.Add(uint8(129), uint8(40), uint16(65535), uint8(150), false, uint8(2), uint64(3))
	f.Fuzz(func(t *testing.T, n, w uint8, tau uint16, rho uint8, open bool, dist uint8, seed uint64) {
		c := buildCase{
			n:    3 + int(n)%140,
			w:    1 + int(w)%40,
			tau:  float64(tau) / 65535,
			rho:  float64(rho) / 255 * 0.9,
			open: open,
			dist: []string{"", "mix:0.35,0.45:0.5", "uniform:0.2:0.6"}[int(dist)%3],
		}
		if 2*c.w+1 > c.n {
			c.w = (c.n - 1) / 2
		}
		checkBuild(t, c, seed)
	})
}

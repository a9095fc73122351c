package fastglauber

import (
	"errors"
	"testing"

	"gridseg/internal/dynamics"
	"gridseg/internal/grid"
	"gridseg/internal/rng"
	"gridseg/internal/topology"
)

// newPair builds a reference and a fast engine over independent copies
// of the same random lattice, each with its own identically seeded
// random source.
func newPair(t *testing.T, n, w int, tau, p float64, seed uint64) (*dynamics.Process, *Process) {
	t.Helper()
	lat := grid.Random(n, p, rng.New(seed).Split(1))
	ref, err := dynamics.New(lat.Clone(), w, tau, rng.New(seed).Split(2))
	if err != nil {
		t.Fatalf("reference New: %v", err)
	}
	fast, err := New(lat.Clone(), w, tau, rng.New(seed).Split(2))
	if err != nil {
		t.Fatalf("fast New: %v", err)
	}
	return ref, fast
}

// TestConstructionMatchesReference verifies the initial bookkeeping —
// counts, classification, flippable order — agrees with the reference.
func TestConstructionMatchesReference(t *testing.T) {
	ref, fast := newPair(t, 48, 3, 0.45, 0.5, 7)
	if err := fast.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got, want := fast.FlippableCount(), ref.FlippableCount(); got != want {
		t.Fatalf("FlippableCount = %d, want %d", got, want)
	}
	if got, want := fast.UnhappyCount(), ref.UnhappyCount(); got != want {
		t.Fatalf("UnhappyCount = %d, want %d", got, want)
	}
	if got, want := fast.Phi(), ref.Phi(); got != want {
		t.Fatalf("Phi = %d, want %d", got, want)
	}
	for i := 0; i < 48*48; i++ {
		if got, want := fast.SameCount(i), ref.SameCount(i); got != want {
			t.Fatalf("SameCount(%d) = %d, want %d", i, got, want)
		}
	}
}

// TestLockstepWithReference steps both engines together and demands
// identical flip sites, clocks, and periodic invariant validity, across
// parameter corners including a torus-spanning window (2w+1 == n) and
// the super-unhappy regime tau > 1/2.
func TestLockstepWithReference(t *testing.T) {
	cases := []struct {
		n, w int
		tau  float64
		p    float64
	}{
		{24, 1, 0.45, 0.5},
		{24, 2, 0.42, 0.5},
		{32, 3, 0.30, 0.5},
		{21, 10, 0.45, 0.5}, // 2w+1 == n: the band wraps onto every column
		{24, 2, 0.70, 0.5},  // super-unhappy regime
		{24, 2, 0.05, 0.5},  // tau near 0
		{24, 2, 0.98, 0.5},  // tau near 1
		{24, 2, 0.45, 0.9},  // skewed density
		{5, 2, 0.45, 0.5},   // tiny torus, sub-word rows
	}
	for _, tc := range cases {
		ref, fast := newPair(t, tc.n, tc.w, tc.tau, tc.p, uint64(tc.n*1000+tc.w))
		for step := 0; ; step++ {
			rs, rok := ref.Step()
			fs, fok := fast.Step()
			if rok != fok {
				t.Fatalf("%+v step %d: ok %v vs %v", tc, step, rok, fok)
			}
			if !rok {
				break
			}
			if rs != fs {
				t.Fatalf("%+v step %d: flipped site %d vs %d", tc, step, fs, rs)
			}
			if ref.Time() != fast.Time() {
				t.Fatalf("%+v step %d: time %v vs %v", tc, step, fast.Time(), ref.Time())
			}
			if step%64 == 0 {
				if err := fast.CheckInvariants(); err != nil {
					t.Fatalf("%+v step %d: %v", tc, step, err)
				}
				if !ref.Lattice().Equal(fast.Lattice()) {
					t.Fatalf("%+v step %d: lattices diverged", tc, step)
				}
			}
		}
		if err := fast.CheckInvariants(); err != nil {
			t.Fatalf("%+v fixated: %v", tc, err)
		}
		if !ref.Lattice().Equal(fast.Lattice()) {
			t.Fatalf("%+v: fixated lattices diverged", tc)
		}
		if ref.Flips() != fast.Flips() || ref.Phi() != fast.Phi() {
			t.Fatalf("%+v: flips/Phi diverged: %d/%d vs %d/%d",
				tc, fast.Flips(), fast.Phi(), ref.Flips(), ref.Phi())
		}
	}
}

// scenarioCase is one point of the scenario test grid.
type scenarioCase struct {
	n, w   int
	tau, p float64
	rho    float64
	open   bool
	dist   string
}

// scenarioCases spans every scenario axis and their combinations:
// open boundaries, vacancy fractions, per-site intolerance
// distributions, the super-unhappy regime, and a torus-spanning band.
var scenarioCases = []scenarioCase{
	{n: 32, w: 2, tau: 0.42, p: 0.5, open: true},
	{n: 24, w: 3, tau: 0.45, p: 0.5, rho: 0.1},
	{n: 24, w: 2, tau: 0.42, p: 0.5, rho: 0.05, open: true},
	{n: 24, w: 2, tau: 0.42, p: 0.5, dist: "mix:0.35,0.45:0.5"},
	{n: 24, w: 2, tau: 0.42, p: 0.5, rho: 0.3, open: true, dist: "uniform:0.35:0.5"},
	{n: 24, w: 2, tau: 0.70, p: 0.5, rho: 0.1, open: true},
	{n: 21, w: 10, tau: 0.45, p: 0.5, rho: 0.1},
	{n: 21, w: 10, tau: 0.45, p: 0.5, open: true},
}

// newScenarioPair builds a reference and a fast engine over independent
// copies of the same scenario lattice and tau field.
func newScenarioPair(t *testing.T, c scenarioCase, seed uint64) (*dynamics.Process, *Process) {
	t.Helper()
	lat := grid.RandomScenario(c.n, c.p, c.rho, rng.New(seed).Split(1))
	dist, err := topology.ParseTauDist(c.dist)
	if err != nil {
		t.Fatal(err)
	}
	sc := dynamics.Scenario{Open: c.open, Taus: dist.SampleField(lat.Sites(), c.tau, rng.New(seed).Split(3))}
	ref, err := dynamics.NewScenario(lat.Clone(), c.w, c.tau, sc, rng.New(seed).Split(2))
	if err != nil {
		t.Fatalf("reference NewScenario: %v", err)
	}
	fast, err := NewScenario(lat.Clone(), c.w, c.tau, sc, rng.New(seed).Split(2))
	if err != nil {
		t.Fatalf("fast NewScenario: %v", err)
	}
	return ref, fast
}

// TestScenarioLockstepWithReference steps the scenario engines in
// lockstep across every scenario axis, demanding identical flip sites,
// clocks, and periodically valid invariants.
func TestScenarioLockstepWithReference(t *testing.T) {
	for _, tc := range scenarioCases {
		ref, fast := newScenarioPair(t, tc, uint64(tc.n*1000+tc.w))
		if got, want := fast.FlippableCount(), ref.FlippableCount(); got != want {
			t.Fatalf("%+v: initial FlippableCount = %d, want %d", tc, got, want)
		}
		if got, want := fast.UnhappyCount(), ref.UnhappyCount(); got != want {
			t.Fatalf("%+v: initial UnhappyCount = %d, want %d", tc, got, want)
		}
		for step := 0; ; step++ {
			rs, rok := ref.Step()
			fs, fok := fast.Step()
			if rok != fok {
				t.Fatalf("%+v step %d: ok %v vs %v", tc, step, rok, fok)
			}
			if !rok {
				break
			}
			if rs != fs {
				t.Fatalf("%+v step %d: flipped site %d vs %d", tc, step, fs, rs)
			}
			if ref.Time() != fast.Time() {
				t.Fatalf("%+v step %d: time %v vs %v", tc, step, fast.Time(), ref.Time())
			}
			if step%64 == 0 {
				if err := fast.CheckInvariants(); err != nil {
					t.Fatalf("%+v step %d: %v", tc, step, err)
				}
				if !ref.Lattice().Equal(fast.Lattice()) {
					t.Fatalf("%+v step %d: lattices diverged", tc, step)
				}
			}
		}
		if err := fast.CheckInvariants(); err != nil {
			t.Fatalf("%+v fixated: %v", tc, err)
		}
		if !ref.Lattice().Equal(fast.Lattice()) {
			t.Fatalf("%+v: fixated lattices diverged", tc)
		}
		if ref.Flips() != fast.Flips() || ref.Phi() != fast.Phi() {
			t.Fatalf("%+v: flips/Phi diverged: %d/%d vs %d/%d",
				tc, fast.Flips(), fast.Phi(), ref.Flips(), ref.Phi())
		}
		if ref.HappyFraction() != fast.HappyFraction() {
			t.Fatalf("%+v: happy fraction %v vs %v", tc, fast.HappyFraction(), ref.HappyFraction())
		}
	}
}

// TestScenarioForceFlipMatchesReference drives the scenario engines
// through arbitrary forced flips on occupied sites and compares
// bookkeeping.
func TestScenarioForceFlipMatchesReference(t *testing.T) {
	tc := scenarioCase{n: 20, w: 2, tau: 0.45, p: 0.5, rho: 0.1, open: true, dist: "mix:0.35,0.45:0.5"}
	ref, fast := newScenarioPair(t, tc, 3)
	pick := rng.New(99)
	for k := 0; k < 400; k++ {
		i := pick.Intn(20 * 20)
		if !ref.Lattice().OccupiedAt(i) {
			continue
		}
		ref.ForceFlip(i)
		fast.ForceFlip(i)
	}
	if err := fast.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !ref.Lattice().Equal(fast.Lattice()) {
		t.Fatal("lattices diverged under forced flips")
	}
	if got, want := fast.FlippableCount(), ref.FlippableCount(); got != want {
		t.Fatalf("FlippableCount = %d, want %d", got, want)
	}
	if got, want := fast.UnhappyCount(), ref.UnhappyCount(); got != want {
		t.Fatalf("UnhappyCount = %d, want %d", got, want)
	}
}

// TestCheckInvariantsCatchesCorruptLanes corrupts a single threshold or
// slack lane — of an occupied site, or the sentinel of a vacant one —
// and demands that CheckInvariants report it.
func TestCheckInvariantsCatchesCorruptLanes(t *testing.T) {
	c := scenarioCase{n: 24, w: 2, tau: 0.42, p: 0.5, rho: 0.1, open: true, dist: "mix:0.35,0.45:0.5"}
	_, probe := newScenarioPair(t, c, 5)
	if err := probe.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	occupied, vacant := -1, -1
	for i := 0; i < c.n*c.n; i++ {
		if probe.bits.OccupiedBit(i) {
			occupied = i
		} else {
			vacant = i
		}
	}
	if occupied < 0 || vacant < 0 {
		t.Fatal("lattice lacks an occupied or a vacant site")
	}
	thr := func(p *Process) []uint64 { return p.thrL }
	slack := func(p *Process) []uint64 { return p.slackL }
	for _, tc := range []struct {
		name  string
		lanes func(*Process) []uint64
		site  int
	}{
		{"threshold", thr, occupied},
		{"slack", slack, occupied},
		{"vacant threshold", thr, vacant},
		{"vacant slack", slack, vacant},
	} {
		_, p := newScenarioPair(t, c, 5)
		x, y := tc.site%c.n, tc.site/c.n
		tc.lanes(p)[y*p.cpr+x>>2] ^= 1 << uint(16*(x&3))
		if err := p.CheckInvariants(); err == nil {
			t.Errorf("%s lane of site %d corrupted: CheckInvariants passed", tc.name, tc.site)
		}
	}
}

// TestWarmBandIsReadOnly runs warmBand — which only large lattices
// reach in a run — at every band position of a small scenario process,
// standalone and from each strip of a shard group, on both boundaries:
// wrapped and clamped rows, and rows outside a strip, must neither
// index out of range nor change any state.
func TestWarmBandIsReadOnly(t *testing.T) {
	for _, open := range []bool{false, true} {
		c := scenarioCase{n: 24, w: 2, tau: 0.42, p: 0.5, rho: 0.1, open: open}
		_, p := newScenarioPair(t, c, 9)
		g, err := NewShards(p, []int{0, 8, 16, 24})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range append([]*Process{p}, g.shards...) {
			for y := 0; y < c.n; y++ {
				for x := 0; x < c.n; x++ {
					q.warmBand(x, y)
				}
			}
		}
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("open=%v: %v", open, err)
		}
	}
}

// TestForceFlipMatchesReference drives both engines through arbitrary
// forced flips (rule-violating transitions) and compares bookkeeping.
func TestForceFlipMatchesReference(t *testing.T) {
	ref, fast := newPair(t, 20, 2, 0.45, 0.5, 3)
	pick := rng.New(99)
	for k := 0; k < 400; k++ {
		i := pick.Intn(20 * 20)
		ref.ForceFlip(i)
		fast.ForceFlip(i)
	}
	if err := fast.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !ref.Lattice().Equal(fast.Lattice()) {
		t.Fatal("lattices diverged under forced flips")
	}
	if got, want := fast.FlippableCount(), ref.FlippableCount(); got != want {
		t.Fatalf("FlippableCount = %d, want %d", got, want)
	}
	if got, want := fast.UnhappyCount(), ref.UnhappyCount(); got != want {
		t.Fatalf("UnhappyCount = %d, want %d", got, want)
	}
}

// TestValidation mirrors the reference constructor's rejections and the
// fast engine's capacity limit.
func TestValidation(t *testing.T) {
	lat := grid.New(9, grid.Minus)
	src := rng.New(1)
	if _, err := New(lat, 0, 0.4, src); err == nil {
		t.Error("w = 0 accepted")
	}
	if _, err := New(lat, 5, 0.4, src); err == nil {
		t.Error("2w+1 > n accepted")
	}
	if _, err := New(lat, 2, -0.1, src); err == nil {
		t.Error("tau < 0 accepted")
	}
	if _, err := New(lat, 2, 1.1, src); err == nil {
		t.Error("tau > 1 accepted")
	}
	if _, err := New(lat, 2, 0.4, nil); err == nil {
		t.Error("nil source accepted")
	}
	big := grid.New(301, grid.Minus)
	if _, err := New(big, 150, 0.4, rng.New(1)); !errors.Is(err, ErrNeighborhoodTooLarge) {
		t.Errorf("neighborhood beyond lane capacity: got %v, want ErrNeighborhoodTooLarge", err)
	}
	if Fits(90) != true || Fits(91) != false || Fits(0) != false {
		t.Error("Fits boundary wrong")
	}
	if _, err := NewScenario(lat, 2, 0.4, dynamics.Scenario{Taus: []float64{0.5}}, src); err == nil {
		t.Error("short per-site tau field accepted")
	}
	if _, err := NewScenario(lat, 2, 0.4, dynamics.Scenario{Taus: make([]float64, 81)}, src); err != nil {
		t.Errorf("valid per-site tau field rejected: %v", err)
	}
}

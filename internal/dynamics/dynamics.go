// Package dynamics implements the segregation process itself: the
// Glauber (open-system) dynamics of the paper and a Kawasaki
// (closed-system) swap baseline.
//
// The Glauber process is simulated exactly by kinetic Monte Carlo
// (Gillespie): every agent carries an independent rate-1 Poisson clock,
// and when a clock rings the agent flips iff it is unhappy and the flip
// makes it happy. Rings that cause no flip do not change the state, so
// the embedded jump chain restricted to effective events picks a
// uniformly random *flippable* agent, and by memorylessness the waiting
// time until the next effective event is Exp(k) where k is the number of
// flippable agents. This equivalence is stated in Section II.A of the
// paper ("the process dynamics are equivalent to a discrete-time model
// where at each discrete time step one unhappy agent is chosen uniformly
// at random").
//
// Process is the *reference* engine: it maintains, for every site u,
// the number of +1 agents in its neighborhood N(u) (the Chebyshev ball
// of radius w including u) as scalar counts, so a flip performs
// (2w+1)^2 scalar count updates and refreshes plus O(1) amortized set
// maintenance. It is the readable specification of the dynamics; the
// bit-packed engine in the fastglauber subpackage executes the same
// flip bit-identically at a fraction of the cost (see the Engine
// interface and internal/difftest for the equivalence contract). The
// sum Phi of same-type counts over all agents is the paper's Lyapunov
// function: it strictly increases with every admissible flip, which
// proves termination.
//
// Beyond the paper's exact setting, the reference engine runs every
// scenario of the topology subsystem (see NewScenario and the Scenario
// struct): open hard-wall boundaries with clamped windows, vacancy
// lattices, and per-site intolerance fields — plus the relocation
// dynamic Move, where unhappy agents migrate into vacant sites. The
// bit-packed fast engine covers the same scenario space for all three
// dynamics (per-site thresholds and slacks held in packed lanes for
// flip and swap, derived from packed occupancy lanes for Move; see
// fastglauber).
package dynamics

import (
	"errors"
	"fmt"

	"gridseg/internal/geom"
	"gridseg/internal/grid"
	"gridseg/internal/rng"
	"gridseg/internal/sampleset"
	"gridseg/internal/theory"
)

// Scenario selects the topology variants a Process runs under. The
// zero value is the paper's setting: wrap-around torus, full
// occupancy (vacancies are detected from the lattice itself), one
// global tau. See internal/topology for the user-facing spec layer.
type Scenario struct {
	// Open selects hard-wall boundaries: neighborhoods clamp at the
	// grid edges instead of wrapping, so edge agents see truncated
	// windows and per-site thresholds ceil(tau * |N(u)|).
	Open bool
	// Taus, when non-nil, is the per-site intolerance field (quenched
	// disorder, length n^2, row-major); nil means the single global
	// tau. Under flip and swap dynamics, where agents never relocate,
	// per-site and per-agent intolerance coincide.
	Taus []float64
}

// Process is the Glauber segregation process on a torus lattice.
// Construct with New (the paper's setting) or NewScenario; the zero
// value is not usable.
//
// Happiness generalizes across scenarios as: agent u is happy iff
// same(u) >= ceil(tau_u * occ(u)), where occ(u) counts the occupied
// sites of u's (possibly edge-clamped) window and same(u) counts the
// ones sharing u's type, both including u itself. With full occupancy,
// a torus, and a global tau this is exactly the paper's definition,
// and the scalar fast path below (nil occ/threshOf/tauOf arrays) runs
// the identical pre-scenario code: default-scenario trajectories are
// bit-for-bit stable across the scenario subsystem's introduction.
type Process struct {
	lat    *grid.Lattice
	src    *rng.Source
	n      int // lattice side
	w      int // horizon
	nbhd   int // N = (2w+1)^2
	thresh int // global happiness threshold: same-type count required
	tau    float64
	open   bool // hard-wall boundary (windows clamp, not wrap)
	agents int  // occupied sites (= Sites() when fully occupied)
	plus   []int32
	// Scenario state, all nil in the default scenario: occ holds the
	// occupied count of every site's window, threshOf the per-site
	// integer thresholds, tauOf the per-site intolerance.
	occ      []int32
	threshOf []int32
	tauOf    []float64
	// flippable is the indexed sampler over currently admissible flips
	// (see internal/sampleset); its iteration order drives the uniform
	// pick of Step and is part of the bit-identity contract.
	flippable *sampleset.Set
	unhappy   []bool
	nUnhappy  int
	time      float64
	flips     int64
}

// New creates a Glauber process over the given lattice with horizon w and
// intolerance tauTilde (the integer happiness threshold is
// ceil(tauTilde*N), per the paper's definition tau = ceil(tauTilde N)/N).
// The lattice is used in place and mutated by the process.
func New(lat *grid.Lattice, w int, tauTilde float64, src *rng.Source) (*Process, error) {
	return NewScenario(lat, w, tauTilde, Scenario{}, src)
}

// NewScenario creates a Glauber process under the given scenario:
// open or torus boundary, optional per-site intolerance, and vacancies
// (read off the lattice — build it with grid.RandomScenario). The
// process consumes its random source identically in every scenario
// (only Step draws randomness), so default-scenario seeds and
// trajectories are unchanged by this constructor's existence.
func NewScenario(lat *grid.Lattice, w int, tauTilde float64, sc Scenario, src *rng.Source) (*Process, error) {
	if w < 1 {
		return nil, errors.New("dynamics: horizon must be >= 1")
	}
	if 2*w+1 > lat.N() {
		return nil, fmt.Errorf("dynamics: neighborhood side %d exceeds lattice side %d", 2*w+1, lat.N())
	}
	if tauTilde < 0 || tauTilde > 1 {
		return nil, errors.New("dynamics: intolerance must be in [0, 1]")
	}
	if src == nil {
		return nil, errors.New("dynamics: nil random source")
	}
	if sc.Taus != nil && len(sc.Taus) != lat.Sites() {
		return nil, fmt.Errorf("dynamics: per-site tau field has %d entries, want %d", len(sc.Taus), lat.Sites())
	}
	for _, tv := range sc.Taus {
		if tv < 0 || tv > 1 {
			return nil, fmt.Errorf("dynamics: per-site intolerance %v out of [0, 1]", tv)
		}
	}
	nbhd := geom.SquareSize(w)
	p := &Process{
		lat:       lat,
		src:       src,
		n:         lat.N(),
		w:         w,
		nbhd:      nbhd,
		thresh:    theory.Threshold(tauTilde, nbhd),
		tau:       tauTilde,
		open:      sc.Open,
		agents:    lat.CountOccupied(),
		plus:      lat.PlusWindowCounts(w, sc.Open),
		flippable: sampleset.New(lat.Sites()),
		unhappy:   make([]bool, lat.Sites()),
	}
	// Materialize the per-site arrays only when some axis deviates from
	// the paper's setting; the nil arrays are the scalar fast path.
	if sc.Open || p.agents < lat.Sites() || sc.Taus != nil {
		p.occ = lat.OccupiedWindowCounts(w, sc.Open)
		p.tauOf = sc.Taus
		p.threshOf = make([]int32, lat.Sites())
		for i := range p.threshOf {
			p.threshOf[i] = int32(theory.Threshold(p.tauAt(i), int(p.occ[i])))
		}
	}
	for i := 0; i < lat.Sites(); i++ {
		p.refresh(i)
	}
	return p, nil
}

// occAt returns the occupied count of N(i) (the scenario-aware
// generalization of the constant neighborhood size N).
func (p *Process) occAt(i int) int {
	if p.occ == nil {
		return p.nbhd
	}
	return int(p.occ[i])
}

// tauAt returns the intolerance in force at site i.
func (p *Process) tauAt(i int) float64 {
	if p.tauOf == nil {
		return p.tau
	}
	return p.tauOf[i]
}

// threshAt returns the integer happiness threshold of site i,
// ceil(tau_i * occ_i).
func (p *Process) threshAt(i int) int {
	if p.threshOf == nil {
		return p.thresh
	}
	return int(p.threshOf[i])
}

// Lattice returns the underlying lattice (live view).
func (p *Process) Lattice() *grid.Lattice { return p.lat }

// Horizon returns the neighborhood radius w.
func (p *Process) Horizon() int { return p.w }

// NeighborhoodSize returns N = (2w+1)^2.
func (p *Process) NeighborhoodSize() int { return p.nbhd }

// Threshold returns the integer happiness threshold tau*N.
func (p *Process) Threshold() int { return p.thresh }

// Tau returns the rational intolerance tau = threshold/N.
func (p *Process) Tau() float64 { return float64(p.thresh) / float64(p.nbhd) }

// Time returns the elapsed continuous time.
func (p *Process) Time() float64 { return p.time }

// Flips returns the number of effective flips so far.
func (p *Process) Flips() int64 { return p.flips }

// SameCount returns the number of agents in N(u) sharing u's type,
// including u itself — the numerator of the happiness ratio s(u).
// Vacant sites hold no agent and return 0.
func (p *Process) SameCount(i int) int {
	switch p.lat.SpinAt(i) {
	case grid.Plus:
		return int(p.plus[i])
	case grid.Minus:
		return p.occAt(i) - int(p.plus[i])
	}
	return 0
}

// Happy reports whether the agent at site i is happy: s(u) >= tau.
// Vacant sites are vacuously happy.
func (p *Process) Happy(i int) bool {
	if !p.lat.OccupiedAt(i) {
		return true
	}
	return p.SameCount(i) >= p.threshAt(i)
}

// HappyAs reports whether a hypothetical agent of the given spin placed
// at site i would be happy — the predicate of the paper's event
// A = {u+ would be happy at the location of v} (Eq. 13). An occupied
// site's occupant is replaced by the probe; a vacant site gains the
// probe as one extra occupant (with the threshold recomputed for the
// grown occupied count).
func (p *Process) HappyAs(i int, s grid.Spin) bool {
	occ := p.occAt(i)
	cnt := int(p.plus[i])
	thresh := p.threshAt(i)
	if !p.lat.OccupiedAt(i) {
		occ++
		if p.threshOf != nil {
			thresh = theory.Threshold(p.tauAt(i), occ)
		}
	}
	if s == grid.Plus {
		if p.lat.SpinAt(i) != grid.Plus {
			// The probe itself adds one plus.
			cnt++
		}
		return cnt >= thresh
	}
	// Same reasoning mirrored for a minus probe. On a vacant site occ
	// was already grown by the probe, so `minus` counts it; only a
	// displaced plus occupant needs the correction.
	minus := occ - int(p.plus[i])
	if p.lat.SpinAt(i) == grid.Plus {
		// The probe replaces the plus occupant by a minus, which
		// `minus` has not counted yet.
		minus++
	}
	return minus >= thresh
}

// Flippable reports whether site i is an admissible flip: the agent is
// unhappy and flipping would make it happy (for tau < 1/2 the second
// condition is automatic; for tau > 1/2 it is the paper's
// "super-unhappy" condition of Section IV.C). Vacant sites are never
// flippable.
func (p *Process) Flippable(i int) bool {
	if !p.lat.OccupiedAt(i) {
		return false
	}
	same := p.SameCount(i)
	th := p.threshAt(i)
	return same < th && p.occAt(i)-same+1 >= th
}

// FlippableCount returns the number of currently admissible flips.
func (p *Process) FlippableCount() int { return p.flippable.Len() }

// UnhappyCount returns the number of currently unhappy agents.
func (p *Process) UnhappyCount() int { return p.nUnhappy }

// HappyFraction returns the fraction of happy agents (over occupied
// sites; vacancies hold no agent to be happy or unhappy). A lattice
// with no agents at all is vacuously fully happy.
func (p *Process) HappyFraction() float64 {
	if p.agents == 0 {
		return 1
	}
	return 1 - float64(p.nUnhappy)/float64(p.agents)
}

// Agents returns the number of occupied sites.
func (p *Process) Agents() int { return p.agents }

// Fixated reports whether the process has terminated: no unhappy agent
// can become happy by flipping.
func (p *Process) Fixated() bool { return p.flippable.Len() == 0 }

// refresh recomputes the unhappy flag and flippable-set membership of
// site i from the current counts. Vacant sites are neither unhappy nor
// flippable.
func (p *Process) refresh(i int) {
	var unhappy, flippable bool
	if p.lat.OccupiedAt(i) {
		same := p.SameCount(i)
		th := p.threshAt(i)
		unhappy = same < th
		flippable = unhappy && p.occAt(i)-same+1 >= th
	}
	if unhappy != p.unhappy[i] {
		p.unhappy[i] = unhappy
		if unhappy {
			p.nUnhappy++
		} else {
			p.nUnhappy--
		}
	}
	p.flippable.Update(i, flippable)
}

// applyFlip flips site i and updates counts and set membership of every
// affected site (the Chebyshev ball of radius w around i, clamped at
// the edges under the open boundary).
func (p *Process) applyFlip(i int) {
	newSpin := p.lat.Flip(i)
	var delta int32 = 1
	if newSpin == grid.Minus {
		delta = -1
	}
	n, w, open := p.n, p.w, p.open
	x0, y0 := i%n, i/n
	for dy := -w; dy <= w; dy++ {
		y := y0 + dy
		if y < 0 {
			if open {
				continue
			}
			y += n
		} else if y >= n {
			if open {
				continue
			}
			y -= n
		}
		row := y * n
		for dx := -w; dx <= w; dx++ {
			x := x0 + dx
			if x < 0 {
				if open {
					continue
				}
				x += n
			} else if x >= n {
				if open {
					continue
				}
				x -= n
			}
			j := row + x
			p.plus[j] += delta
			p.refresh(j)
		}
	}
}

// forEachWindowSite visits every site of N(i) (including i) in
// row-major offset order, wrapping or clamping per the boundary — the
// shared iteration used by the swap and relocation dynamics, matching
// applyFlip's visit order exactly.
func (p *Process) forEachWindowSite(i int, visit func(j int)) {
	n, w, open := p.n, p.w, p.open
	x0, y0 := i%n, i/n
	for dy := -w; dy <= w; dy++ {
		y := y0 + dy
		if y < 0 {
			if open {
				continue
			}
			y += n
		} else if y >= n {
			if open {
				continue
			}
			y -= n
		}
		row := y * n
		for dx := -w; dx <= w; dx++ {
			x := x0 + dx
			if x < 0 {
				if open {
					continue
				}
				x += n
			} else if x >= n {
				if open {
					continue
				}
				x -= n
			}
			visit(row + x)
		}
	}
}

// inWindow reports whether site j lies in N(i), respecting the
// boundary (wrapped Chebyshev distance on the torus, plain distance
// under open walls).
func (p *Process) inWindow(i, j int) bool {
	n, w := p.n, p.w
	dx := abs(i%n - j%n)
	dy := abs(i/n - j/n)
	if !p.open {
		if n-dx < dx {
			dx = n - dx
		}
		if n-dy < dy {
			dy = n - dy
		}
	}
	return dx <= w && dy <= w
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

// place puts an agent of the given type on the vacant site i, updating
// occupancy, counts, per-site thresholds, and classifications of every
// affected site. It is the relocation dynamic's primitive; the flip
// dynamics never change occupancy. Requires materialized scenario
// arrays (any lattice with vacancies has them).
func (p *Process) place(i int, s grid.Spin) {
	if p.lat.OccupiedAt(i) || s == grid.None {
		panic("dynamics: place on occupied site or with vacant spin")
	}
	p.lat.SetAt(i, s)
	p.agents++
	var dPlus int32
	if s == grid.Plus {
		dPlus = 1
	}
	p.forEachWindowSite(i, func(j int) {
		p.occ[j]++
		p.plus[j] += dPlus
		p.threshOf[j] = int32(theory.Threshold(p.tauAt(j), int(p.occ[j])))
		p.refresh(j)
	})
}

// remove vacates the occupied site i, the inverse of place.
func (p *Process) remove(i int) grid.Spin {
	s := p.lat.SpinAt(i)
	if s == grid.None {
		panic("dynamics: remove on vacant site")
	}
	p.lat.SetAt(i, grid.None)
	p.agents--
	var dPlus int32
	if s == grid.Plus {
		dPlus = 1
	}
	p.forEachWindowSite(i, func(j int) {
		p.occ[j]--
		p.plus[j] -= dPlus
		p.threshOf[j] = int32(theory.Threshold(p.tauAt(j), int(p.occ[j])))
		p.refresh(j)
	})
	return s
}

// ForceFlip flips site i unconditionally and updates all bookkeeping.
// The segregation process never does this on its own; it exists for the
// constructions of the core package (constrained cascades inside radical
// regions) and for adversarial tests (firewall invariance).
func (p *Process) ForceFlip(i int) { p.applyFlip(i) }

// Step performs one effective event: it picks a uniformly random
// flippable agent, advances continuous time by Exp(k) (k = number of
// flippable agents), and flips the agent. It returns the flipped site
// index, or ok=false if the process has already fixated.
func (p *Process) Step() (site int, ok bool) {
	k := p.flippable.Len()
	if k == 0 {
		return 0, false
	}
	p.time += p.src.ExpRate(float64(k))
	i := int(p.flippable.Sample(p.src))
	p.applyFlip(i)
	p.flips++
	return i, true
}

// Run advances the process until fixation or until maxFlips additional
// flips have been performed (maxFlips <= 0 means no limit; termination
// is guaranteed by the Lyapunov argument). It returns the number of
// flips performed by this call and whether the process is fixated.
func (p *Process) Run(maxFlips int64) (performed int64, fixated bool) {
	for maxFlips <= 0 || performed < maxFlips {
		if _, ok := p.Step(); !ok {
			return performed, true
		}
		performed++
	}
	return performed, p.Fixated()
}

// Phi returns the paper's Lyapunov function: the sum over all agents u of
// the number of same-type agents in N(u). It is recomputed from the
// maintained counts in O(n^2); vacant sites contribute 0.
func (p *Process) Phi() int64 {
	var phi int64
	for i := 0; i < p.lat.Sites(); i++ {
		phi += int64(p.SameCount(i))
	}
	return phi
}

// MaxFlipsBound returns the a-priori bound on the total number of flips
// implied by the Lyapunov argument: Phi <= N*n^2 and every flip increases
// Phi by at least 2.
func (p *Process) MaxFlipsBound() int64 {
	return int64(p.nbhd) * int64(p.lat.Sites()) / 2
}

// PlusCount returns the maintained count of +1 agents in N(i).
func (p *Process) PlusCount(i int) int { return int(p.plus[i]) }

// CheckInvariants verifies the internal bookkeeping against a brute-force
// recomputation; it is used by tests and returns a descriptive error on
// the first mismatch.
func (p *Process) CheckInvariants() error {
	fresh := p.lat.PlusWindowCounts(p.w, p.open)
	unhappyCount := 0
	var freshOcc []int32
	if p.occ != nil {
		freshOcc = p.lat.OccupiedWindowCounts(p.w, p.open)
	}
	if got := p.lat.CountOccupied(); got != p.agents {
		return fmt.Errorf("agents = %d, want %d", p.agents, got)
	}
	wantFlippable := make([]bool, p.lat.Sites())
	for i := 0; i < p.lat.Sites(); i++ {
		if p.plus[i] != fresh[i] {
			return fmt.Errorf("plus[%d] = %d, want %d", i, p.plus[i], fresh[i])
		}
		if p.occ != nil {
			if p.occ[i] != freshOcc[i] {
				return fmt.Errorf("occ[%d] = %d, want %d", i, p.occ[i], freshOcc[i])
			}
			if want := int32(theory.Threshold(p.tauAt(i), int(p.occ[i]))); p.threshOf[i] != want {
				return fmt.Errorf("threshOf[%d] = %d, want %d", i, p.threshOf[i], want)
			}
		}
		var unhappy bool
		if p.lat.OccupiedAt(i) {
			same := p.SameCount(i)
			th := p.threshAt(i)
			unhappy = same < th
			wantFlippable[i] = unhappy && p.occAt(i)-same+1 >= th
		}
		if unhappy != p.unhappy[i] {
			return fmt.Errorf("unhappy[%d] = %v, want %v", i, p.unhappy[i], unhappy)
		}
		if unhappy {
			unhappyCount++
		}
	}
	if unhappyCount != p.nUnhappy {
		return fmt.Errorf("nUnhappy = %d, want %d", p.nUnhappy, unhappyCount)
	}
	return p.flippable.CheckInvariants("flippable", func(i int) bool { return wantFlippable[i] })
}

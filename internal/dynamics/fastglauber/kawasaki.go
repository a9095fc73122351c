package fastglauber

import (
	"gridseg/internal/dynamics"
	"gridseg/internal/grid"
	"gridseg/internal/rng"
	"gridseg/internal/sampleset"
)

// Kawasaki is the bit-packed fast path of the swap (closed-system)
// dynamic: a pair of unhappy agents of opposite types exchange
// locations iff the exchange makes both happy. It is observationally
// identical to the reference dynamics.Kawasaki — same per-type
// unhappy-set ordering, same random-source consumption, hence
// bit-identical swap sequences and observables for any seed.
//
// An exchange is two flips, and each flip reuses the fast Process's
// SWAR count update and boundary scan wholesale. The per-type unhappy
// sets ride on the scan for free: the reference engine re-examines
// every window site after a flip, but a site's set membership can only
// change when its unhappy flag toggles (or, for the flipped site, when
// its spin changes), and the scan already identifies exactly those
// sites — in the reference engine's window-visit order — through the
// Process's changed-site tracking. So set maintenance costs a handful
// of scalar updates per flip instead of (2w+1)^2 re-examinations.
type Kawasaki struct {
	p *Process
	// Indexed samplers over the unhappy agents of each type, ordered
	// identically to the reference engine's sets (see
	// internal/sampleset).
	unhappyPlus  *sampleset.Set
	unhappyMinus *sampleset.Set
	swaps        int64
	attempts     int64
}

// NewKawasaki creates a fast Kawasaki process over the lattice with
// horizon w and intolerance tauTilde, mirroring dynamics.NewKawasaki.
// The lattice is mutated in place.
func NewKawasaki(lat *grid.Lattice, w int, tauTilde float64, src *rng.Source) (*Kawasaki, error) {
	return NewKawasakiScenario(lat, w, tauTilde, dynamics.Scenario{}, src)
}

// NewKawasakiScenario creates a fast Kawasaki process under the given
// scenario (open boundaries, per-site tau, vacancies read off the
// lattice), mirroring dynamics.NewKawasakiScenario.
func NewKawasakiScenario(lat *grid.Lattice, w int, tauTilde float64, sc dynamics.Scenario, src *rng.Source) (*Kawasaki, error) {
	p, err := NewScenario(lat, w, tauTilde, sc, src)
	if err != nil {
		return nil, err
	}
	p.track = true
	k := &Kawasaki{
		p:            p,
		unhappyPlus:  sampleset.New(lat.Sites()),
		unhappyMinus: sampleset.New(lat.Sites()),
	}
	for i := 0; i < lat.Sites(); i++ {
		k.refreshSets(i)
	}
	return k, nil
}

// Process returns the underlying count-tracking fast process
// (read-only use).
func (k *Kawasaki) Process() *Process { return k.p }

// Engine returns the underlying process as the shared engine contract
// (the accessor of dynamics.SwapEngine).
func (k *Kawasaki) Engine() dynamics.Engine { return k.p }

// Swaps returns the number of successful swaps so far.
func (k *Kawasaki) Swaps() int64 { return k.swaps }

// Attempts returns the number of attempted swaps so far.
func (k *Kawasaki) Attempts() int64 { return k.attempts }

// UnhappyByType returns the numbers of unhappy +1 and -1 agents.
func (k *Kawasaki) UnhappyByType() (plus, minus int) {
	return k.unhappyPlus.Len(), k.unhappyMinus.Len()
}

// refreshSets updates site i's membership in the per-type unhappy
// sets from the maintained unhappy bitset (zero for vacant sites) and
// the lockstep reference mirror, which indexes spins by site without
// the packed plane's row/column division.
func (k *Kawasaki) refreshSets(i int) {
	unhappy := k.p.unhappy[i>>6]&(1<<uint(i&63)) != 0
	plusSpin := k.p.lat.SpinAt(i) == grid.Plus
	k.unhappyPlus.Update(i, unhappy && plusSpin)
	k.unhappyMinus.Update(i, unhappy && !plusSpin)
}

// forceFlipTracked flips site i in the underlying process and replays
// per-type set maintenance over exactly the sites whose membership can
// have changed, in the reference engine's window-visit order.
func (k *Kawasaki) forceFlipTracked(i int) {
	p := k.p
	p.changed.Reset()
	p.ForceFlip(i)
	for _, j := range p.changed.Items() {
		k.refreshSets(int(j))
	}
}

// StepAttempt samples one unhappy agent of each type uniformly at
// random and swaps them iff the swap makes both happy, consuming the
// random source exactly like the reference engine. It returns
// swapped=false with done=true when no unhappy pair exists.
func (k *Kawasaki) StepAttempt() (swapped, done bool) {
	if k.unhappyPlus.Len() == 0 || k.unhappyMinus.Len() == 0 {
		return false, true
	}
	k.attempts++
	u := int(k.unhappyPlus.Sample(k.p.src))
	v := int(k.unhappyMinus.Sample(k.p.src))
	// Apply the swap as two tracked flips, then verify both movers are
	// happy at their new locations; revert if not.
	k.forceFlipTracked(u) // u's site becomes -1 (the mover from v)
	k.forceFlipTracked(v) // v's site becomes +1 (the mover from u)
	if k.p.Happy(u) && k.p.Happy(v) {
		k.swaps++
		return true, false
	}
	k.forceFlipTracked(v)
	k.forceFlipTracked(u)
	return false, false
}

// Run performs swap attempts until no unhappy pair exists, until
// maxAttempts have been made, or until failStreak consecutive attempts
// fail — the same stopping rule as the reference engine.
func (k *Kawasaki) Run(maxAttempts, failStreak int64) (performed int64, done bool) {
	if maxAttempts <= 0 {
		return 0, false
	}
	var streak int64
	for a := int64(0); a < maxAttempts; a++ {
		swapped, noPairs := k.StepAttempt()
		if noPairs {
			return performed, true
		}
		if swapped {
			performed++
			streak = 0
		} else {
			streak++
			if failStreak > 0 && streak >= failStreak {
				return performed, false
			}
		}
	}
	return performed, false
}

// CheckInvariants verifies the per-type unhappy sets against brute
// force in addition to the underlying process invariants.
func (k *Kawasaki) CheckInvariants() error {
	if err := k.p.CheckInvariants(); err != nil {
		return err
	}
	if err := k.unhappyPlus.CheckInvariants("unhappyPlus", func(i int) bool {
		return !k.p.Happy(i) && k.p.lat.SpinAt(i) == grid.Plus
	}); err != nil {
		return err
	}
	return k.unhappyMinus.CheckInvariants("unhappyMinus", func(i int) bool {
		return !k.p.Happy(i) && k.p.lat.SpinAt(i) == grid.Minus
	})
}

// The fast swap engine satisfies the shared swap contract.
var _ dynamics.SwapEngine = (*Kawasaki)(nil)

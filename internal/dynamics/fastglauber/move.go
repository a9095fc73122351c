package fastglauber

import (
	"errors"

	"gridseg/internal/dynamics"
	"gridseg/internal/grid"
	"gridseg/internal/rng"
	"gridseg/internal/sampleset"
	"gridseg/internal/theory"
)

// Move is the bit-packed fast path of the relocation dynamic
// (dynamics.Move). It is observationally identical to the reference
// engine: same sampler ordering, same random-source consumption, hence
// bit-identical relocation sequences, spin arrays, and observables for
// any seed — the differential harness in internal/difftest pins the
// equivalence.
//
// A relocation is a vacate+occupy pair of packed single-bit updates
// against the spin and occupancy planes. Both maintained lane arrays —
// the +1 window counts and the occupied window counts (occC, the
// relocation replacement for the flip path's threshold and slack
// lanes) — are adjusted with the same masked SWAR word additions the
// flip engine uses for its column band; the plus band only when the
// mover is a +1 agent. What remains scalar is reclassification: every
// site of both windows is re-read against the settled lanes, in the
// reference engine's row-major window-visit order, with thresholds
// looked up in the process's per-occupancy table (or computed per
// site under heterogeneous intolerance) rather than stored. The
// static threshold and slack lanes of the flip scan are never built
// (see newScenario's relocating mode).
type Move struct {
	p *Process
	// Indexed samplers over the unhappy agents (both types) and the
	// vacant sites, identical in ordering to the reference engine's
	// (see internal/sampleset).
	unhappySet *sampleset.Set
	vacantSet  *sampleset.Set
	moves      int64
	attempts   int64
}

// The fast relocation engine satisfies the shared move contract.
var _ dynamics.MoveEngine = (*Move)(nil)

// NewMove creates a fast relocation process over the lattice, which
// must contain at least one vacant site, with the same semantics and
// validation as the reference dynamics.NewMove. The lattice is mutated
// in place and stays bit-identical to the packed state after every
// relocation.
func NewMove(lat *grid.Lattice, w int, tauTilde float64, sc dynamics.Scenario, src *rng.Source) (*Move, error) {
	if !lat.HasVacancies() {
		return nil, errors.New("fastglauber: the move dynamic needs vacant sites (rho > 0)")
	}
	p, err := newScenario(lat, w, tauTilde, sc, src, true)
	if err != nil {
		return nil, err
	}
	m := &Move{
		p:          p,
		unhappySet: sampleset.New(lat.Sites()),
		vacantSet:  sampleset.New(lat.Sites()),
	}
	for i := 0; i < lat.Sites(); i++ {
		m.refreshSets(i)
	}
	return m, nil
}

// Process returns the underlying count-tracking process (read-only use).
func (m *Move) Process() *Process { return m.p }

// Engine returns the underlying process as the shared engine contract
// (the accessor of MoveEngine).
func (m *Move) Engine() dynamics.Engine { return m.p }

// Moves returns the number of successful relocations so far.
func (m *Move) Moves() int64 { return m.moves }

// Attempts returns the number of attempted relocations so far.
func (m *Move) Attempts() int64 { return m.attempts }

// Counts returns the numbers of unhappy agents and vacant sites.
func (m *Move) Counts() (unhappy, vacant int) {
	return m.unhappySet.Len(), m.vacantSet.Len()
}

// threshFor returns ceil(tau_i * occ): the process's memoized
// per-occupancy table when there is one, the per-site ceil otherwise.
// It agrees exactly with the reference engine's
// theory.Threshold(tauAt(i), occ).
func (m *Move) threshFor(i, occ int) int32 {
	if m.p.threshTab != nil {
		return m.p.threshTab[occ]
	}
	return int32(theory.Threshold(m.p.tauAt(i), occ))
}

// refreshSets updates site i's membership in the unhappy-agent and
// vacant-site samples from the maintained unhappy bitset and the
// lockstep reference mirror's occupancy.
func (m *Move) refreshSets(i int) {
	occupied := m.p.lat.SpinAt(i) != grid.None
	unhappy := m.p.unhappy[i>>6]&(1<<uint(i&63)) != 0
	m.unhappySet.Update(i, occupied && unhappy)
	m.vacantSet.Update(i, !occupied)
}

// bandSegment applies the ±1 lane update to columns [a, b] of row y
// (no wrap within a segment) of the given lane array — the flip
// engine's SWAR add without the boundary scan; reclassification
// happens in the scalar pass instead. lanes is counts (plus counts)
// or occC (occupied counts): relocations maintain both with the same
// masked word additions.
func (m *Move) bandSegment(lanes []uint64, y, a, b int, add bool) {
	base := y * m.p.cpr
	for k := a >> 2; k <= b>>2; k++ {
		am := segmentMask(k, a, b)
		if add {
			lanes[base+k] += am
		} else {
			lanes[base+k] -= am
		}
	}
}

// addBand applies the ±1 lane update over the window of site i,
// wrapped on the torus, clamped at the edges under the open boundary —
// the same band geometry as the flip engine's applyFlip.
func (m *Move) addBand(lanes []uint64, i int, add bool) {
	p := m.p
	n, w := p.n, p.w
	x0, y0 := i%n, i/n
	if p.open {
		xlo, xhi := x0-w, x0+w
		if xlo < 0 {
			xlo = 0
		}
		if xhi > n-1 {
			xhi = n - 1
		}
		for dy := -w; dy <= w; dy++ {
			y := y0 + dy
			if y < 0 || y >= n {
				continue
			}
			m.bandSegment(lanes, y, xlo, xhi, add)
		}
		return
	}
	xlo := x0 - w
	if xlo < 0 {
		xlo += n
	}
	width := 2*w + 1
	for dy := -w; dy <= w; dy++ {
		y := y0 + dy
		if y < 0 {
			y += n
		} else if y >= n {
			y -= n
		}
		if xlo+width <= n {
			m.bandSegment(lanes, y, xlo, xlo+width-1, add)
		} else {
			m.bandSegment(lanes, y, xlo, n-1, add)
			m.bandSegment(lanes, y, 0, xlo+width-1-n, add)
		}
	}
}

// updateWindow walks the window of site i in the reference engine's
// row-major visit order and reclassifies every site against the
// settled plus-count and occupancy lanes (both already band-updated by
// the caller). Each site's final state depends only on its own settled
// values, so the bands-then-scalar split lands on exactly the state
// the reference engine's interleaved per-site sweep produces.
//
// With sets true (the fused path, taken when the two relocation
// windows are disjoint) the pass also replays the sampler mutations of
// the reference engine's post-move sweep over this window. The replay
// is sparse but bit-identical: a sampler Update whose membership value
// is unchanged leaves the set untouched, so only the real transitions
// matter — the unhappy sampler moves exactly when a site's
// classification toggles (occupancy is constant everywhere but the
// center), and the vacant sampler moves only at the center i, the
// relocation endpoint itself. Both fire at the same point of the same
// row-major order as the reference sweep.
func (m *Move) updateWindow(i int, sets bool) {
	p := m.p
	n, w := p.n, p.w
	tab := p.threshTab
	x0, y0 := i%n, i/n
	// The window's column range as one or two contiguous x segments
	// (clamped under the open boundary, wrap-split on the torus), in
	// the reference engine's ascending-dx visit order — so the inner
	// loops run branchlessly over runs of sites.
	var segs [2][2]int
	nseg := 1
	if p.open {
		xlo, xhi := x0-w, x0+w
		if xlo < 0 {
			xlo = 0
		}
		if xhi > n-1 {
			xhi = n - 1
		}
		segs[0] = [2]int{xlo, xhi}
	} else {
		xlo := x0 - w
		if xlo < 0 {
			xlo += n
		}
		width := 2*w + 1
		if xlo+width <= n {
			segs[0] = [2]int{xlo, xlo + width - 1}
		} else {
			segs[0] = [2]int{xlo, n - 1}
			segs[1] = [2]int{0, xlo + width - 1 - n}
			nseg = 2
		}
	}
	for dy := -w; dy <= w; dy++ {
		y := y0 + dy
		if y < 0 {
			if p.open {
				continue
			}
			y += n
		} else if y >= n {
			if p.open {
				continue
			}
			y -= n
		}
		row := y * n
		cbase := y * p.cpr
		wrow := y * p.bits.WordsPerRow()
		for s := 0; s < nseg; s++ {
			a, b := segs[s][0], segs[s][1]
			if tab != nil {
				m.classifyPacked(row, cbase, wrow, a, b, i, sets)
			} else {
				m.classifyScalar(row, cbase, wrow, a, b, i, sets)
			}
		}
	}
}

// nibbleMask widens a 4-bit lane-selection nibble (one bit per packed
// 16-bit lane) to full lane masks, trading four data-dependent shifts
// and branches for one table load.
var nibbleMask [16]uint64

func init() {
	for n := range nibbleMask {
		for l := 0; l < 4; l++ {
			if n>>l&1 != 0 {
				nibbleMask[n] |= 0xffff << (16 * l)
			}
		}
	}
}

// classifyPacked reclassifies one contiguous x-run [a,b] of window row
// y (row = y*n, cbase/wrow its bases in the lane and bit planes) under
// a global intolerance. All four lanes of each packed count word are
// classified at once, branch-free: the spin and occupancy nibbles
// widen to full lane masks via nibbleMask, same-type counts come from
// one masked select between the plus and minus lane words, and the
// per-lane "same < threshold" verdict lands in bit 15 of each lane by
// biased subtraction. Random spins mispredict a scalar per-site branch
// half the time; here the only branch left is the almost-always-false
// toggle test in the commit loop.
func (m *Move) classifyPacked(row, cbase, wrow, a, b, center int, sets bool) {
	p := m.p
	tab := p.threshTab
	for k := a >> 2; k <= b>>2; k++ {
		x4 := k * 4
		ow := p.occC[cbase+k]
		cw := p.counts[cbase+k]
		bb := uint(x4 & 63)
		spinNib := p.bits.SpinWord(wrow+x4>>6) >> bb & 0xf
		occNib := p.bits.OccupiedWord(wrow+x4>>6) >> bb & 0xf
		sm := nibbleMask[spinNib]
		sameW := cw&sm | (ow-cw)&^sm
		thW := uint64(uint16(tab[ow&0xffff])) |
			uint64(uint16(tab[ow>>16&0xffff]))<<16 |
			uint64(uint16(tab[ow>>32&0xffff]))<<32 |
			uint64(uint16(tab[ow>>48]))<<48
		// Per lane: bit 15 of (0x8000 + same - th) is set iff
		// same >= th, and both operands stay below 2^15, so no
		// carry crosses a lane boundary.
		ge := (sameW | laneHigh) - thW
		u16 := ^ge & laneHigh & nibbleMask[occNib]
		nib := (u16>>15 | u16>>30 | u16>>45 | u16>>60) & 0xf
		lo, hi := x4, x4+3
		if lo < a {
			lo = a
		}
		if hi > b {
			hi = b
		}
		for x := lo; x <= hi; x++ {
			j := row + x
			unhappy := nib>>uint(x&3)&1 != 0
			wi, bm := j>>6, uint64(1)<<uint(j&63)
			if (p.unhappy[wi]&bm != 0) != unhappy {
				p.unhappy[wi] ^= bm
				if unhappy {
					p.nUnhappy++
				} else {
					p.nUnhappy--
				}
				if sets {
					m.unhappySet.Update(j, unhappy)
				}
			}
			if sets && j == center {
				m.vacantSet.Update(j, occNib>>uint(x&3)&1 == 0)
			}
		}
	}
}

// classifyScalar is the per-site fallback for heterogeneous
// intolerance, where each site's threshold is its own ceil and the
// packed compare has no shared table to draw from.
func (m *Move) classifyScalar(row, cbase, wrow, a, b, center int, sets bool) {
	p := m.p
	for x := a; x <= b; {
		// One spin and one occupancy word cover the next 64 lanes of
		// the segment; within them, each plus-count and occupied-count
		// word covers 4 lanes and is loaded once.
		k := wrow + x>>6
		spinW := p.bits.SpinWord(k)
		occW := p.bits.OccupiedWord(k)
		lim := x | 63
		if lim > b {
			lim = b
		}
		for x <= lim {
			ci := cbase + x>>2
			ow := p.occC[ci]
			cw := p.counts[ci]
			lim4 := x | 3
			if lim4 > lim {
				lim4 = lim
			}
			for ; x <= lim4; x++ {
				j := row + x
				bit := uint(x & 63)
				occupied := occW>>bit&1 != 0
				var unhappy bool
				if occupied {
					sh := uint(16 * (x & 3))
					occ := int32(ow >> sh & 0xffff)
					th := int32(theory.Threshold(p.tauOf[j], int(occ)))
					c := int32(cw >> sh & 0xffff)
					if spinW>>bit&1 != 0 {
						unhappy = c < th
					} else {
						unhappy = c > occ-th
					}
				}
				wi, bm := j>>6, uint64(1)<<uint(j&63)
				if (p.unhappy[wi]&bm != 0) != unhappy {
					p.unhappy[wi] ^= bm
					if unhappy {
						p.nUnhappy++
					} else {
						p.nUnhappy--
					}
					if sets {
						m.unhappySet.Update(j, unhappy)
					}
				}
				if sets && j == center {
					m.vacantSet.Update(j, !occupied)
				}
			}
		}
	}
}

// remove vacates the occupied site u: packed spin and occupancy bits,
// the reference mirror, the occupied-count band, the plus-count band
// (only when the departing agent is +1), and the reclassification of
// every window site (fused with sampler replay when sets is true).
func (m *Move) remove(u int, sets bool) grid.Spin {
	p := m.p
	s := p.lat.SpinAt(u)
	if s == grid.None {
		panic("fastglauber: remove on vacant site")
	}
	plus := s == grid.Plus
	p.bits.SetOccupiedBit(u, false)
	p.bits.SetSpinBit(u, false)
	p.lat.SetAt(u, grid.None)
	p.agents--
	if plus {
		m.addBand(p.counts, u, false)
	}
	m.addBand(p.occC, u, false)
	m.updateWindow(u, sets)
	return s
}

// place puts an agent of the given type on the vacant site v, the
// inverse of remove.
func (m *Move) place(v int, s grid.Spin, sets bool) {
	p := m.p
	if p.bits.OccupiedBit(v) || s == grid.None {
		panic("fastglauber: place on occupied site or with vacant spin")
	}
	plus := s == grid.Plus
	p.bits.SetOccupiedBit(v, true)
	p.bits.SetSpinBit(v, plus)
	p.lat.SetAt(v, s)
	p.agents++
	if plus {
		m.addBand(p.counts, v, true)
	}
	m.addBand(p.occC, v, true)
	m.updateWindow(v, sets)
}

// sweepSets replays sampler maintenance over the window of site i in
// the reference engine's row-major visit order — the ordering of these
// Update calls is what keeps the two engines' samplers bit-identical.
func (m *Move) sweepSets(i int) {
	p := m.p
	n, w := p.n, p.w
	x0, y0 := i%n, i/n
	for dy := -w; dy <= w; dy++ {
		y := y0 + dy
		if y < 0 {
			if p.open {
				continue
			}
			y += n
		} else if y >= n {
			if p.open {
				continue
			}
			y -= n
		}
		row := y * n
		for dx := -w; dx <= w; dx++ {
			x := x0 + dx
			if x < 0 {
				if p.open {
					continue
				}
				x += n
			} else if x >= n {
				if p.open {
					continue
				}
				x -= n
			}
			m.refreshSets(row + x)
		}
	}
}

// windowsOverlap reports whether N(u) and N(v) share a site: the
// boundary-aware Chebyshev distance is at most 2w.
func (m *Move) windowsOverlap(u, v int) bool {
	p := m.p
	n := p.n
	dx := u%n - v%n
	if dx < 0 {
		dx = -dx
	}
	dy := u/n - v/n
	if dy < 0 {
		dy = -dy
	}
	if !p.open {
		if n-dx < dx {
			dx = n - dx
		}
		if n-dy < dy {
			dy = n - dy
		}
	}
	return dx <= 2*p.w && dy <= 2*p.w
}

// relocate moves the agent at u to the vacant site v, refreshing both
// sample sets over the two affected windows. When the windows are
// disjoint — the common case on large grids — the sampler replay fuses
// into the reclassification passes: a window(u) site's membership
// cannot depend on the later placement at v, so updating it during the
// vacate pass produces the exact mutation sequence of the reference
// engine's two post-move sweeps. Overlapping windows fall back to
// separate full sweeps after both passes settle.
func (m *Move) relocate(u, v int) {
	fused := !m.windowsOverlap(u, v)
	s := m.remove(u, fused)
	m.place(v, s, fused)
	if !fused {
		m.sweepSets(u)
		m.sweepSets(v)
	}
}

// inWindow reports whether site j lies in N(i), respecting the
// boundary, mirroring the reference engine's test.
func (p *Process) inWindow(i, j int) bool {
	n, w := p.n, p.w
	dx := i%n - j%n
	if dx < 0 {
		dx = -dx
	}
	dy := i/n - j/n
	if dy < 0 {
		dy = -dy
	}
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

// wouldBeHappy reports whether the agent currently at u (plusMover =
// +1 type) would be happy at the vacant site v after its departure,
// computed from the maintained counts in O(1) with the exact integer
// arithmetic of the reference engine.
func (m *Move) wouldBeHappy(u, v int, plusMover bool) bool {
	p := m.p
	x, y := v%p.n, v/p.n
	occ := p.occAt(x, y)
	plus := p.lane(p.counts, x, y)
	if p.inWindow(v, u) {
		occ--
		if plusMover {
			plus--
		}
	}
	occ++ // the mover itself joins N(v)
	same := occ - plus
	if plusMover {
		same = plus + 1
	}
	return same >= int(m.threshFor(v, occ))
}

// StepAttempt samples one unhappy agent and one vacant site uniformly
// at random — consuming the random source exactly like the reference
// engine — and relocates the agent iff it would be happy at the new
// location. It returns moved=false with done=true when no unhappy
// agent remains.
func (m *Move) StepAttempt() (moved, done bool) {
	if m.unhappySet.Len() == 0 {
		return false, true
	}
	m.attempts++
	u := int(m.unhappySet.Sample(m.p.src))
	v := int(m.vacantSet.Sample(m.p.src))
	if !m.wouldBeHappy(u, v, m.p.bits.Bit(u)) {
		return false, false
	}
	m.relocate(u, v)
	m.moves++
	return true, false
}

// Run performs relocation attempts until no unhappy agent remains,
// until maxAttempts have been made, or until failStreak consecutive
// attempts fail, mirroring the reference engine's Run.
func (m *Move) Run(maxAttempts, failStreak int64) (performed int64, done bool) {
	if maxAttempts <= 0 {
		return 0, false
	}
	var streak int64
	for a := int64(0); a < maxAttempts; a++ {
		moved, noUnhappy := m.StepAttempt()
		if noUnhappy {
			return performed, true
		}
		if moved {
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

// CheckInvariants verifies the sample sets against brute force in
// addition to the underlying packed-process invariants.
func (m *Move) CheckInvariants() error {
	if err := m.p.CheckInvariants(); err != nil {
		return err
	}
	if err := m.unhappySet.CheckInvariants("unhappy", func(i int) bool {
		return m.p.bits.OccupiedBit(i) && !m.p.Happy(i)
	}); err != nil {
		return err
	}
	return m.vacantSet.CheckInvariants("vacant", func(i int) bool {
		return !m.p.bits.OccupiedBit(i)
	})
}

// Package fastglauber is the bit-packed fast path of the Glauber
// segregation process. It is observationally identical to the reference
// engine (internal/dynamics.Process): same flippable-set bookkeeping
// order, same random-source consumption, hence bit-identical flip
// sequences, clocks, spin arrays, and observables for any seed — the
// differential harness in internal/difftest pins this equivalence.
//
// The speed comes from how a flip's O((2w+1)^2) neighborhood update is
// executed, not from changing the dynamics. Spins live one per bit in
// []uint64 rows (internal/fastgrid); per-site plus-counts live four to
// a word as 16-bit lanes, so the ±1 count update of a flip's column
// band is a handful of masked SWAR word additions per row instead of
// (2w+1) scalar read-modify-writes. Most sites in the band keep their
// happy/flippable classification after a flip; the engine detects the
// rare sites that cross a classification boundary with a SWAR
// equality scan of the freshly updated count lanes against boundary
// count values, and only those sites take the scalar set-maintenance
// path.
//
// Construction is word-parallel too. internal/fastgrid streams the
// window counts row by row already in the packed lane form, so the
// count, occupancy and threshold lanes fill a word at a time. Each
// count word then yields the unhappy and flippable verdicts of its
// four sites at once from SWAR lane compares against the thresholds
// (see classify). The unhappy bits go straight into the bitset, and
// every sampler — the flippable set here, the per-type and vacant
// sets of the Kawasaki and Move wrappers — is bulk-loaded from a site
// bitset in ascending site order. That is the order a row-major
// per-site sweep inserts them, so every later random draw is
// unchanged.
//
// The engine covers every scenario of the topology subsystem with one
// classification rule. Each site u has an integer threshold
// T = ceil(tau_u * occ(u)) over its occupied window count occ(u) and a
// slack D = occ(u) - T. In the paper's default setting (torus, full
// occupancy, global tau) every site shares one (T, D), held in two
// lane-broadcast words. Open hard walls, vacancies and per-site
// intolerance give each site its own pair, so the engine keeps two more
// packed 16-bit lane arrays in the count layout — T and D of every
// site, with a sentinel on vacant sites. Either way one SWAR scan
// derives, in-register and with additions only, the two boundary
// values of each lane's own spin from the count word, T, D and the
// packed spin nibble (see updateSegment). Occupancy and thresholds are
// static under flip and swap dynamics, so the lanes are built once at
// construction, streamed from the occupied window-count lanes. Open
// boundaries additionally clamp the flip's row band at the grid edges
// instead of splitting it into wrapped segments.
//
// Site reclassification is division-free: the segment scan knows the
// row and column of every lane it flags and hands them to refreshAt,
// which addresses the spin, count and threshold words directly.
//
// The relocation dynamic Move changes occupancy, so it trades the
// static threshold and slack lanes for a packed lane array of occupied
// window counts: a relocation is a vacate+occupy pair of masked band
// additions against the count and occupancy lanes, followed by a
// branch-free packed reclassification of the two windows with
// thresholds derived from the settled occupancy lanes (see move.go).
//
// Capacity: counts are 16-bit lanes, so the engine requires
// (2w+1)^2 <= MaxNeighborhood; construction fails with
// ErrNeighborhoodTooLarge above that and callers fall back to the
// reference engine.
package fastglauber

import (
	"errors"
	"fmt"
	"math/bits"

	"gridseg/internal/dynamics"
	"gridseg/internal/fastgrid"
	"gridseg/internal/grid"
	"gridseg/internal/rng"
	"gridseg/internal/sampleset"
	"gridseg/internal/theory"
)

// MaxNeighborhood is the largest neighborhood size N = (2w+1)^2 the
// packed 16-bit count lanes can hold. Beyond it use the reference
// engine (w <= 90 fits).
const MaxNeighborhood = 32767

// ErrNeighborhoodTooLarge is the typed sentinel returned by the
// constructors when (2w+1)^2 exceeds MaxNeighborhood — the one model
// shape the packed 16-bit count lanes cannot represent. Callers that
// want a fallback should test with errors.Is and construct the
// reference engine instead.
var ErrNeighborhoodTooLarge = errors.New("neighborhood exceeds the 16-bit count-lane capacity")

const (
	laneOnes = 0x0001_0001_0001_0001
	laneHigh = 0x8000_8000_8000_8000
)

// addMask[lo][hi] has a 1 in the low bit of each 16-bit lane lo..hi:
// the SWAR ±1 pattern for a partial word covering those lanes.
var addMask [4][4]uint64

func init() {
	for lo := 0; lo < 4; lo++ {
		for hi := lo; hi < 4; hi++ {
			var m uint64
			for l := lo; l <= hi; l++ {
				m |= 1 << uint(16*l)
			}
			addMask[lo][hi] = m
		}
	}
}

// Process is the fast Glauber engine. Construct with New; the zero
// value is not usable. It satisfies dynamics.Engine.
type Process struct {
	lat    *grid.Lattice     // reference mirror, kept in lockstep
	bits   *fastgrid.Lattice // packed spins + occupancy (hot path)
	src    *rng.Source
	n      int     // lattice side
	w      int     // horizon
	nbhd   int     // N = (2w+1)^2
	thresh int     // global happiness threshold: same-type count required
	tau    float64 // global intolerance
	open   bool    // hard-wall boundary (windows clamp, not wrap)
	agents int     // occupied sites (= n^2 when fully occupied)
	cpr    int     // count words per row = ceil(n/4)
	// counts holds the +1 count of every site's neighborhood, four
	// sites per word in 16-bit lanes (site x of row y is lane x&3 of
	// word y*cpr + x>>2).
	counts []uint64
	// unhappy is a bitset over sites mirroring the reference engine's
	// unhappy flags.
	unhappy  []uint64
	nUnhappy int
	// Indexed sampler over admissible flips, identical in ordering to
	// the reference engine's (see internal/sampleset).
	flippable *sampleset.Set
	time      float64
	flips     int64
	// thrB and slackB broadcast the threshold T = thresh and the slack
	// D = N - T of the default scenario (torus, full occupancy, global
	// tau) to every lane: there every site shares one (T, D), so they
	// stand in for the threshold and slack lanes below without per-site
	// memory.
	thrB   uint64
	slackB uint64
	// Scenario state, all nil in the default scenario. thrL and slackL
	// are packed 16-bit lanes in the counts layout: lane x&3 of word
	// y*cpr + x>>2 holds, for the site at (x, y), its integer threshold
	// T = ceil(tau_u * occ_u) and its slack D = occ_u - T, over the
	// site's own (possibly edge-clamped) occupied window count occ_u.
	// Vacant sites hold vacantLane in both, which no count c, c+1 or c+2
	// can equal, so the boundary scan never flags them. tauOf is the
	// per-site intolerance (nil under a global tau). Occupancy never
	// changes under flip and swap dynamics, so all of this is immutable
	// after New.
	tauOf  []float64
	thrL   []uint64
	slackL []uint64
	// threshTab memoizes ceil(tau*k) per occupancy k under a global
	// intolerance (nil under per-site intolerance, which computes the
	// ceil directly); the threshold lanes are built from it.
	threshTab []int32
	// Relocation representation, replacing thrL/slackL under the Move
	// engine: occC holds the occupied-window counts in the same packed
	// 16-bit lane layout as counts, so relocations maintain them with
	// the masked band adds, and thresholds are derived on read.
	occC []uint64
	// Changed-site tracking for the swap (Kawasaki) wrapper: when track
	// is set, applyFlip appends to changed — in reference window-visit
	// order — every site whose unhappy flag toggled, plus the flipped
	// site itself (whose per-type set membership can change by spin
	// alone). The flippable sampler is then unmaintained (and empty):
	// the swap dynamic never samples a single flip.
	track    bool
	changed  sampleset.List
	flipSite int
	// relocating marks a process backing the Move engine: occupancy
	// changes under relocation, so the static threshold and slack lanes
	// are not built and flips are forbidden (Move never flips spins in place).
	// The flippable sampler is likewise unmaintained (and empty): no
	// caller consults it under the relocation dynamic, and skipping its
	// per-site updates is most of the fast engine's advantage on the
	// window-sized reclassification passes.
	relocating bool
	// Shard state (see shard.go). A standalone process owns every site:
	// ownLo = 0, ownHi = n^2, sampBase = 0, grp = nil, and none of the
	// shard branches below are ever taken. A shard of a ShardGroup owns
	// the contiguous site range [ownLo, ownHi) of its strip rows; its
	// flippable sampler indexes sites relative to sampBase = ownLo, and
	// refreshAt skips sites outside the owned range: the phase
	// protocol's merge barrier re-derives them.
	ownLo, ownHi int
	sampBase     int
	grp          *ShardGroup
	// warm keeps the loads of warmBand alive.
	warm uint64
}

// vacantLane is the threshold and slack lane of a vacant site. Counts
// never exceed 0x7fff, so c, c+1 and c+2 stay below it, and the scan's
// D+1 and D+2 comparands formed from it still fit the lane.
const vacantLane = 0xfff0

// The fast engine satisfies the shared engine contract.
var _ dynamics.Engine = (*Process)(nil)

// Fits reports whether the fast engine supports horizon w (the packed
// count lanes must hold N = (2w+1)^2).
func Fits(w int) bool { return w >= 1 && (2*w+1)*(2*w+1) <= MaxNeighborhood }

// New creates a fast Glauber process over the given lattice with
// horizon w and intolerance tauTilde, with the same semantics and
// validation as the reference dynamics.New. The lattice is used in
// place: it is mutated by the process and stays bit-identical to the
// packed state after every flip. Vacancies are read off the lattice,
// exactly like the reference constructor.
func New(lat *grid.Lattice, w int, tauTilde float64, src *rng.Source) (*Process, error) {
	return NewScenario(lat, w, tauTilde, dynamics.Scenario{}, src)
}

// NewScenario creates a fast Glauber process under the given scenario
// — open or torus boundary, optional per-site intolerance, vacancies
// read off the lattice — with the same semantics and validation as the
// reference dynamics.NewScenario. Construction consumes no randomness
// (only Step draws), and the resulting trajectories are bit-identical
// to the reference engine's in every scenario.
func NewScenario(lat *grid.Lattice, w int, tauTilde float64, sc dynamics.Scenario, src *rng.Source) (*Process, error) {
	return newScenario(lat, w, tauTilde, sc, src, false, false)
}

// newScenario is the shared constructor body. With relocating set it
// builds a process for the Move engine: occupancy is about to change,
// so the threshold and slack lanes — which are static under the flip
// and swap dynamics and would go stale under relocation — are skipped,
// and applyFlip panics if ever reached. With track set it builds a
// process for the swap (Kawasaki) engine, which records changed sites.
// Neither engine samples a single flip, so both leave the flip sampler
// unloaded and empty.
func newScenario(lat *grid.Lattice, w int, tauTilde float64, sc dynamics.Scenario, src *rng.Source, relocating, track bool) (*Process, error) {
	if w < 1 {
		return nil, errors.New("fastglauber: horizon must be >= 1")
	}
	if 2*w+1 > lat.N() {
		return nil, fmt.Errorf("fastglauber: neighborhood side %d exceeds lattice side %d", 2*w+1, lat.N())
	}
	if tauTilde < 0 || tauTilde > 1 {
		return nil, errors.New("fastglauber: intolerance must be in [0, 1]")
	}
	if src == nil {
		return nil, errors.New("fastglauber: nil random source")
	}
	if sc.Taus != nil && len(sc.Taus) != lat.Sites() {
		return nil, fmt.Errorf("fastglauber: per-site tau field has %d entries, want %d", len(sc.Taus), lat.Sites())
	}
	for _, tv := range sc.Taus {
		if tv < 0 || tv > 1 {
			return nil, fmt.Errorf("fastglauber: per-site intolerance %v out of [0, 1]", tv)
		}
	}
	nbhd := (2*w + 1) * (2*w + 1)
	if nbhd > MaxNeighborhood {
		return nil, fmt.Errorf("fastglauber: neighborhood size %d (w=%d): %w (max %d)", nbhd, w, ErrNeighborhoodTooLarge, MaxNeighborhood)
	}
	n := lat.N()
	p := &Process{
		lat:        lat,
		bits:       fastgrid.FromLattice(lat),
		src:        src,
		n:          n,
		w:          w,
		nbhd:       nbhd,
		thresh:     theory.Threshold(tauTilde, nbhd),
		tau:        tauTilde,
		open:       sc.Open,
		cpr:        fastgrid.LaneWords(n),
		unhappy:    make([]uint64, (n*n+63)/64),
		flipSite:   -1,
		relocating: relocating,
		track:      track,
		ownHi:      n * n,
	}
	p.agents = p.bits.CountOccupied()
	if sc.Open || p.agents < lat.Sites() || sc.Taus != nil {
		// Some axis deviates from the paper's setting: materialize the
		// per-site lanes; the broadcasts thrB and slackB stay unused.
		p.tauOf = sc.Taus
		if sc.Taus == nil {
			p.threshTab = thresholdTable(tauTilde, nbhd)
		}
		if relocating {
			// Occupancy changes on every relocation: keep the occupied
			// counts in packed lanes maintained by the same masked band
			// adds as the plus counts, and derive thresholds on read.
			// Static threshold and slack lanes would go stale and are
			// never built.
			p.occC = make([]uint64, n*p.cpr)
			p.bits.VisitOccupiedWindowLanes(w, p.open, func(y int, lanes []uint64) {
				copy(p.occC[y*p.cpr:], lanes)
			})
		} else {
			p.buildThresholdLanes()
		}
	} else {
		p.thrB = uint64(p.thresh) * laneOnes
		p.slackB = uint64(p.nbhd-p.thresh) * laneOnes
	}
	p.classify()
	return p, nil
}

// laneGE returns, in bit 15 of each 16-bit lane, whether the lane of a
// is at least the lane of b. Both operands' lanes must be at most
// 0x7fff: then the biased difference never borrows across lanes.
func laneGE(a, b uint64) uint64 { return ((a | laneHigh) - b) & laneHigh }

// laneBits gathers the bit-15 verdicts of the four lanes of v into a
// nibble (lane l to bit l).
func laneBits(v uint64) uint64 { return (v>>15 | v>>30 | v>>45 | v>>60) & 0xf }

// orNibble ORs the 4-bit nibble into the site bitset at site j (bits j
// to j+3, which straddle two words when j&63 > 60).
func orNibble(set []uint64, j int, nib uint64) {
	set[j>>6] |= nib << uint(j&63)
	if j&63 > 60 {
		set[j>>6+1] |= nib >> uint(64-j&63)
	}
}

// classify streams in the plus window counts and derives from them,
// row by row while each row is hot, the initial unhappy bitset, its
// count and the flippable sampler, a count word — four sites — at a
// time. The streaming pass keeps O(n*w) scratch instead of an n^2 flat
// count temporary, which is what bounds construction memory on giant
// grids.
//
// Per lane, with threshold T and slack D = occ - T, a plus site is
// unhappy at c < T and flippable when also c <= D+1, a minus site
// unhappy at c > D and flippable when also c+1 >= T: the verdicts of
// refreshAt. T and D are the broadcasts thrB and slackB in the default
// scenario, the threshold and slack lanes under flip and swap
// scenarios, and derived from the occupancy lanes under relocation;
// vacant lanes are zeroed before the compares (keeping every operand
// at most 0x7fff) and the verdicts gated by the occupancy and spin
// nibbles. The flippable sites are loaded into the sampler in
// ascending site order — the order in which a row-major sweep of
// refreshAt inserts them — so every later draw is the same.
func (p *Process) classify() {
	n, cpr, wpr := p.n, p.cpr, p.bits.WordsPerRow()
	p.counts = make([]uint64, n*cpr)
	flip := make([]uint64, len(p.unhappy))
	p.bits.VisitPlusWindowLanes(p.w, p.open, func(y int, lanes []uint64) {
		copy(p.counts[y*cpr:], lanes)
		for k, cw := range lanes {
			idx, x4 := y*cpr+k, 4*k
			occNib := p.occupiedNibble(k, y)
			om := nibbleMask[occNib]
			t, d := p.thrB, p.slackB
			switch {
			case p.thrL != nil:
				t, d = p.thrL[idx]&om, p.slackL[idx]&om
			case p.occC != nil:
				ow := p.occC[idx]
				t = p.thresholdLanes(ow, occNib, x4, y) & om
				d = (ow - t) & om
			}
			sm := nibbleMask[p.bits.SpinWord(y*wpr+x4>>6)>>uint(x4&63)&0xf]
			unhappy := (^laneGE(cw, t)&sm | ^laneGE(d, cw)&^sm) & om & laneHigh
			flippable := unhappy & (laneGE(d+laneOnes, cw)&sm | laneGE(cw+laneOnes, t)&^sm)
			orNibble(p.unhappy, y*n+x4, laneBits(unhappy))
			orNibble(flip, y*n+x4, laneBits(flippable))
		}
	})
	for _, w := range p.unhappy {
		p.nUnhappy += bits.OnesCount64(w)
	}
	if p.relocating || p.track {
		// The relocation and swap engines' flip sampler stays
		// unmaintained and empty.
		p.flippable = sampleset.New(0)
		return
	}
	p.flippable = sampleset.FromMask(n*n, flip)
}

// thresholdTable memoizes ceil(tau*k) for every occupancy k in [0, N]:
// under a global intolerance the threshold of a site depends on its
// occupied window count alone.
func thresholdTable(tau float64, nbhd int) []int32 {
	tab := make([]int32, nbhd+1)
	for k := range tab {
		tab[k] = int32(theory.Threshold(tau, k))
	}
	return tab
}

// buildThresholdLanes fills the threshold and slack lanes from the
// streamed occupied window-count lanes, a word at a time: T =
// ceil(tau_u * occ_u) and D = occ_u - T, with vacantLane in both lanes
// of a vacant site (and of the lanes past the last column, which no
// scan ever flags).
func (p *Process) buildThresholdLanes() {
	p.thrL = make([]uint64, p.n*p.cpr)
	p.slackL = make([]uint64, p.n*p.cpr)
	const vacant = vacantLane * laneOnes
	p.bits.VisitOccupiedWindowLanes(p.w, p.open, func(y int, lanes []uint64) {
		base := y * p.cpr
		for k, ow := range lanes {
			occNib := p.occupiedNibble(k, y)
			om := nibbleMask[occNib]
			t := p.thresholdLanes(ow, occNib, 4*k, y)
			p.thrL[base+k] = t&om | vacant&^om
			p.slackL[base+k] = (ow-t)&om | vacant&^om
		}
	})
}

// occupiedNibble returns the occupancy bits of the four sites of count
// word k of row y (bit l for column 4k+l), with the lanes past the last
// column clear.
func (p *Process) occupiedNibble(k, y int) uint64 {
	x4 := 4 * k
	nib := p.bits.OccupiedWord(y*p.bits.WordsPerRow()+x4>>6) >> uint(x4&63) & 0xf
	if r := p.n - x4; r < 4 {
		nib &= 1<<uint(r) - 1
	}
	return nib
}

// tabLanes looks up the thresholds of the four occupancy lanes of ow in
// the per-occupancy table of a global intolerance.
func tabLanes(tab []int32, ow uint64) uint64 {
	return uint64(uint16(tab[ow&0xffff])) |
		uint64(uint16(tab[ow>>16&0xffff]))<<16 |
		uint64(uint16(tab[ow>>32&0xffff]))<<32 |
		uint64(uint16(tab[ow>>48]))<<48
}

// thresholdLanes returns the thresholds ceil(tau_u * occ_u) of the four
// sites of a count word from their occupied-count lanes ow: four
// lookups in threshTab under a global intolerance, one ceil per
// occupied lane (occNib) under per-site intolerance, zero in the other
// lanes. Every lane stays at most its occupancy lane.
func (p *Process) thresholdLanes(ow, occNib uint64, x4, y int) uint64 {
	if p.threshTab != nil {
		return tabLanes(p.threshTab, ow)
	}
	var t uint64
	for l := uint(0); l < 4; l++ {
		if occNib>>l&1 != 0 {
			occ := int(ow >> (16 * l) & 0xffff)
			t |= uint64(theory.Threshold(p.tauOf[y*p.n+x4+int(l)], occ)) << (16 * l)
		}
	}
	return t
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

// lane returns the 16-bit lane of the site at (x, y) in a packed lane
// array of the counts layout.
func (p *Process) lane(lanes []uint64, x, y int) int {
	return int(lanes[y*p.cpr+x>>2] >> uint(16*(x&3)) & 0xffff)
}

// count returns the maintained +1 count of N(i).
func (p *Process) count(i int) int { return p.lane(p.counts, i%p.n, i/p.n) }

// occupiedAt reports whether the site at (x, y) holds an agent.
func (p *Process) occupiedAt(x, y int) bool {
	return p.bits.OccupiedWord(y*p.bits.WordsPerRow()+x>>6)>>uint(x&63)&1 != 0
}

// occAt returns the occupied count of the window of the occupied site
// at (x, y) (the scenario-aware generalization of the constant
// neighborhood size N).
func (p *Process) occAt(x, y int) int {
	switch {
	case p.occC != nil:
		return p.lane(p.occC, x, y)
	case p.thrL != nil:
		return p.lane(p.thrL, x, y) + p.lane(p.slackL, x, y)
	}
	return p.nbhd
}

// tauAt returns the intolerance in force at site i.
func (p *Process) tauAt(i int) float64 {
	if p.tauOf == nil {
		return p.tau
	}
	return p.tauOf[i]
}

// threshAt returns the integer happiness threshold ceil(tau_u * occ_u)
// of the occupied site at (x, y): read off its threshold lane under
// flip and swap dynamics, derived from its occupancy lane under
// relocation.
func (p *Process) threshAt(x, y int) int {
	switch {
	case p.thrL != nil:
		return p.lane(p.thrL, x, y)
	case p.occC != nil:
		if p.threshTab != nil {
			return int(p.threshTab[p.occAt(x, y)])
		}
		return theory.Threshold(p.tauOf[y*p.n+x], p.occAt(x, y))
	}
	return p.thresh
}

// sameAt returns the number of agents sharing the type of the
// occupied site at (x, y) in its window, itself included.
func (p *Process) sameAt(x, y int) int {
	c := p.lane(p.counts, x, y)
	if p.bits.SpinWord(y*p.bits.WordsPerRow()+x>>6)>>uint(x&63)&1 != 0 {
		return c
	}
	return p.occAt(x, y) - c
}

// PlusCount returns the maintained count of +1 agents in N(i).
func (p *Process) PlusCount(i int) int { return p.count(i) }

// SameCount returns the number of agents in N(u) sharing u's type,
// including u itself. Vacant sites hold no agent and return 0.
func (p *Process) SameCount(i int) int {
	x, y := i%p.n, i/p.n
	if !p.occupiedAt(x, y) {
		return 0
	}
	return p.sameAt(x, y)
}

// Happy reports whether the agent at site i is happy: s(u) >= tau.
// Vacant sites are vacuously happy.
func (p *Process) Happy(i int) bool {
	x, y := i%p.n, i/p.n
	return !p.occupiedAt(x, y) || p.sameAt(x, y) >= p.threshAt(x, y)
}

// Flippable reports whether site i is an admissible flip. Vacant
// sites are never flippable.
func (p *Process) Flippable(i int) bool {
	x, y := i%p.n, i/p.n
	if !p.occupiedAt(x, y) {
		return false
	}
	same, th := p.sameAt(x, y), p.threshAt(x, y)
	return same < th && p.occAt(x, y)-same+1 >= th
}

// FlippableCount returns the number of currently admissible flips.
func (p *Process) FlippableCount() int { return p.flippable.Len() }

// UnhappyCount returns the number of currently unhappy agents.
func (p *Process) UnhappyCount() int { return p.nUnhappy }

// Agents returns the number of occupied sites.
func (p *Process) Agents() int { return p.agents }

// HappyFraction returns the fraction of happy agents (over occupied
// sites; a lattice with no agents is vacuously fully happy).
func (p *Process) HappyFraction() float64 {
	if p.agents == 0 {
		return 1
	}
	return 1 - float64(p.nUnhappy)/float64(p.agents)
}

// Fixated reports whether the process has terminated.
func (p *Process) Fixated() bool { return p.flippable.Len() == 0 }

// refreshAt recomputes the classification of site j = y*n + x from its
// current count c, its spin, and its threshold T and slack D — its
// lanes, or the default scenario's constants — and updates the unhappy
// bitset and flippable set: the same transition the reference engine's
// refresh performs, applied only to sites whose count crossed a
// classification boundary. The caller supplies the column and row, so
// every word is addressed without a division. Vacant sites are neither
// unhappy nor flippable. It serves the flip path only: construction
// classifies a word at a time (classify), and the relocation engine
// reclassifies its windows itself.
func (p *Process) refreshAt(j, x, y, c int) {
	if j < p.ownLo || j >= p.ownHi {
		// The site belongs to a neighboring strip; the phase protocol's
		// merge barrier re-derives it.
		return
	}
	th, d := p.thresh, p.nbhd-p.thresh
	if p.thrL != nil {
		// A vacant site reads as minus, and its sentinel slack exceeds
		// every count, so it is never unhappy.
		li, sh := y*p.cpr+x>>2, uint(16*(x&3))
		th = int(p.thrL[li] >> sh & 0xffff)
		d = int(p.slackL[li] >> sh & 0xffff)
	}
	var unhappy, flippable bool
	if p.bits.SpinWord(y*p.bits.WordsPerRow()+x>>6)>>uint(x&63)&1 != 0 {
		unhappy = c < th
		flippable = unhappy && c <= d+1
	} else {
		unhappy = c > d
		flippable = unhappy && c >= th-1
	}
	wi, bm := j>>6, uint64(1)<<uint(j&63)
	toggled := (p.unhappy[wi]&bm != 0) != unhappy
	if toggled {
		p.unhappy[wi] ^= bm
		if unhappy {
			p.nUnhappy++
		} else {
			p.nUnhappy--
		}
	}
	if p.track {
		// The swap wrapper replays set maintenance over these sites in
		// this exact (reference window-visit) order; its flip sampler
		// is unmaintained.
		if toggled || j == p.flipSite {
			p.changed.Append(int32(j))
		}
		return
	}
	p.flippable.Update(j-p.sampBase, flippable)
}

// segmentMask returns the SWAR ±1 pattern of count word k for the
// column segment [a, b]: every lane inside the segment, partial words
// at either end.
func segmentMask(k, a, b int) uint64 {
	w0, w1 := a>>2, b>>2
	if k != w0 && k != w1 {
		return laneOnes
	}
	lo, hi := 0, 3
	if k == w0 {
		lo = a & 3
	}
	if k == w1 {
		hi = b & 3
	}
	return addMask[lo][hi]
}

// updateSegment applies the ±1 count update to columns [a, b] of row y
// (no wrap within a segment) and refreshes, in ascending column order,
// every site whose new count sits on a classification boundary. Each
// count word scans against boundary values derived in-register from
// its threshold and slack lanes — the broadcasts thrB and slackB in the
// default scenario — and its spin nibble. For a site with threshold T
// and slack D = occ - T, a +1 update can change the class of a plus
// site only at c = T (happy) and c = D+2 (no longer flippable), of a
// minus site only at c = T-1 (flippable) and c = D+1 (unhappy); a -1
// update changes a plus site at c = T-1 and c = D+1, a minus site at
// c = T-2 and c = D. The scan tests exactly the two values of each
// lane's own spin,
//
//	up:   plus c == T,   c == D+2;  minus c+1 == T, c == D+1
//	down: plus c+1 == T, c == D+1;  minus c+2 == T, c+1 == D+1
//
// so every comparand is a sum of non-negative lanes and none can
// borrow. Vacant lanes read as minus and hold vacantLane, which none
// of c, c+1, c+2 reaches. No comparand lane reaches 0x10000, so no
// addition carries into the next lane and the SWAR zero-lane test never
// misses an equal lane; its borrow propagation can flag a non-matching
// neighbor lane, which is harmless because refreshAt is a no-op when
// the classification did not change.
// forceX, when in [a, b], is unconditionally refreshed at its column
// position — the flipped site changes class by spin, not by count.
func (p *Process) updateSegment(y, a, b int, add bool, forceX int) {
	base := y * p.cpr
	row := y * p.n
	srow := y * p.bits.WordsPerRow()
	fk := -1
	var fbit uint64
	if forceX >= a && forceX <= b {
		fk = forceX >> 2
		fbit = 0x8000 << uint(16*(forceX&3))
	}
	for k := a >> 2; k <= b>>2; k++ {
		am := segmentMask(k, a, b)
		idx := base + k
		cw := p.counts[idx]
		if add {
			cw += am
		} else {
			cw -= am
		}
		p.counts[idx] = cw
		x4 := k << 2
		sm := nibbleMask[p.bits.SpinWord(srow+x4>>6)>>uint(x4&63)&0xf]
		mo := ^sm & laneOnes // 1 in every minus (or vacant) lane
		t, d1 := p.thrB, p.slackB+laneOnes
		if p.thrL != nil {
			t, d1 = p.thrL[idx], p.slackL[idx]+laneOnes
		}
		var x0, x1 uint64
		if add {
			x0 = (cw + mo) ^ t
			x1 = cw ^ (d1 + sm&laneOnes)
		} else {
			x0 = (cw + laneOnes + mo) ^ t
			x1 = (cw + mo) ^ d1
		}
		flags := ((x0 - laneOnes) & ^x0) | ((x1 - laneOnes) & ^x1)
		flags &= am << 15
		if k == fk {
			flags |= fbit
		}
		for flags != 0 {
			x := x4 + bits.TrailingZeros64(flags)>>4
			p.refreshAt(row+x, x, y, int(cw>>uint(16*(x&3))&0xffff))
			flags &= flags - 1
		}
	}
}

// applyFlip flips site i and updates counts and set membership of every
// affected site, visiting rows and columns in the same order as the
// reference engine — wrapped on the torus, clamped at the edges under
// the open boundary — so the flippable slice evolves identically.
func (p *Process) applyFlip(i int) {
	if p.relocating {
		panic("fastglauber: flip under the relocation dynamic (threshold lanes are not built)")
	}
	n, w := p.n, p.w
	x0, y0 := i%n, i/n
	plus := p.bits.FlipBit(i)
	if plus {
		p.lat.SetAt(i, grid.Plus)
	} else {
		p.lat.SetAt(i, grid.Minus)
	}
	p.flipSite = i
	if p.thrL != nil && n*n >= warmMinSites {
		p.warmBand(x0, y0)
	}
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
			forceX := -1
			if dy == 0 {
				forceX = x0
			}
			p.updateSegment(y, xlo, xhi, plus, forceX)
		}
		p.flipSite = -1
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
		forceX := -1
		if dy == 0 {
			forceX = x0
		}
		if xlo+width <= n {
			p.updateSegment(y, xlo, xlo+width-1, plus, forceX)
		} else {
			p.updateSegment(y, xlo, n-1, plus, forceX)
			p.updateSegment(y, 0, xlo+width-1-n, plus, forceX)
		}
	}
	p.flipSite = -1
}

// warmMinSites is the lattice size from which scenario flips warm
// their band (see warmBand). The hot state — count, threshold and
// slack lanes plus the sampler's slot index, about 10 B/site — is
// then several MiB, well past a per-core L2 cache. Measured at w=1 on
// a 2 MiB-L2 Xeon: warming cuts ns/flip by about a quarter at n=1024
// (and by a tenth at w=10) but costs about a tenth at n=256-320, with
// n=384-512 in between.
const warmMinSites = 1 << 19

// warmBand loads, before any count update, the first count,
// threshold and slack word and the first flippable-sampler slot of
// every row of the flip band at (x0, y0). The scan of a row and the
// refreshes it triggers depend on each other, so left alone their
// cache misses queue up one row after another; issued up front and
// independent of each other, the misses of all rows overlap. The
// default path, which keeps a third of the per-site state, does
// without.
func (p *Process) warmBand(x0, y0 int) {
	n, w := p.n, p.w
	x := x0 - w
	if x < 0 {
		if p.open {
			x = 0
		} else {
			x += n
		}
	}
	var sink uint64
	for dy := -w; dy <= w; dy++ {
		y := y0 + dy
		if y < 0 || y >= n {
			if p.open {
				continue
			}
			if y < 0 {
				y += n
			} else {
				y -= n
			}
		}
		idx := y*p.cpr + x>>2
		sink += p.counts[idx] + p.thrL[idx] + p.slackL[idx]
		if j := y*n + x; j >= p.ownLo && j < p.ownHi && p.flippable.Contains(j-p.sampBase) {
			sink++
		}
	}
	p.warm = sink
}

// ForceFlip flips site i unconditionally and updates all bookkeeping,
// mirroring the reference engine's ForceFlip.
func (p *Process) ForceFlip(i int) { p.applyFlip(i) }

// Step performs one effective event with the exact random-source
// consumption of the reference engine: Exp(k) clock advance, then a
// uniform pick from the flippable slice.
func (p *Process) Step() (site int, ok bool) {
	k := p.flippable.Len()
	if k == 0 {
		return 0, false
	}
	p.time += p.src.ExpRate(float64(k))
	i := int(p.flippable.Sample(p.src)) + p.sampBase
	p.applyFlip(i)
	p.flips++
	return i, true
}

// Run advances the process until fixation or until maxFlips additional
// flips have been performed (maxFlips <= 0 means no limit).
func (p *Process) Run(maxFlips int64) (performed int64, fixated bool) {
	for maxFlips <= 0 || performed < maxFlips {
		if _, ok := p.Step(); !ok {
			return performed, true
		}
		performed++
	}
	return performed, p.Fixated()
}

// Phi returns the paper's Lyapunov function, recomputed from the
// maintained counts in O(n^2).
func (p *Process) Phi() int64 {
	var phi int64
	for i := 0; i < p.n*p.n; i++ {
		phi += int64(p.SameCount(i))
	}
	return phi
}

// MaxFlipsBound returns the a-priori Lyapunov bound on total flips.
func (p *Process) MaxFlipsBound() int64 {
	return int64(p.nbhd) * int64(p.n) * int64(p.n) / 2
}

// CheckInvariants verifies the packed state against brute-force
// recomputation and against the reference mirror lattice; it returns a
// descriptive error on the first mismatch.
func (p *Process) CheckInvariants() error {
	if err := p.bits.EqualLattice(p.lat); err != nil {
		return err
	}
	fresh := p.bits.PlusWindowCounts(p.w, p.open)
	ref := p.lat.PlusWindowCounts(p.w, p.open)
	if len(ref) != len(fresh) {
		return fmt.Errorf("packed window count length %d, reference recount length %d", len(fresh), len(ref))
	}
	for i := range ref {
		if ref[i] != fresh[i] {
			return fmt.Errorf("packed window count[%d] = %d, reference recount %d", i, fresh[i], ref[i])
		}
	}
	if got := p.lat.CountOccupied(); got != p.agents {
		return fmt.Errorf("agents = %d, want %d", p.agents, got)
	}
	if p.thrL != nil || p.occC != nil {
		// Thresholds under relocation are derived from the occupancy
		// lanes, so verifying those lanes verifies the thresholds too;
		// the flip and swap dynamics store T and D = occ - T, checked
		// against a fresh recount, with the sentinel on vacant sites.
		freshOcc := p.lat.OccupiedWindowCounts(p.w, p.open)
		for i, occ := range freshOcc {
			x, y := i%p.n, i/p.n
			if p.occC != nil {
				if got := p.lane(p.occC, x, y); got != int(occ) {
					return fmt.Errorf("occ lane[%d] = %d, want %d", i, got, occ)
				}
				continue
			}
			wantT, wantD := vacantLane, vacantLane
			if p.lat.OccupiedAt(i) {
				wantT = theory.Threshold(p.tauAt(i), int(occ))
				wantD = int(occ) - wantT
			}
			if t, d := p.lane(p.thrL, x, y), p.lane(p.slackL, x, y); t != wantT || d != wantD {
				return fmt.Errorf("threshold/slack lanes[%d] = %d/%d, want %d/%d", i, t, d, wantT, wantD)
			}
		}
	}
	unhappyCount := 0
	wantFlippable := make([]bool, p.n*p.n)
	for i := 0; i < p.n*p.n; i++ {
		if got, want := p.count(i), int(fresh[i]); got != want {
			return fmt.Errorf("count[%d] = %d, want %d", i, got, want)
		}
		unhappy := !p.Happy(i)
		wantFlippable[i] = p.Flippable(i)
		if got := p.unhappy[i>>6]&(1<<uint(i&63)) != 0; got != unhappy {
			return fmt.Errorf("unhappy[%d] = %v, want %v", i, got, unhappy)
		}
		if unhappy {
			unhappyCount++
		}
	}
	if unhappyCount != p.nUnhappy {
		return fmt.Errorf("nUnhappy = %d, want %d", p.nUnhappy, unhappyCount)
	}
	if p.relocating || p.track {
		// The relocation and swap engines never sample a single flip:
		// their flip sampler is deliberately unmaintained and must have
		// stayed empty.
		return p.flippable.CheckInvariants("flippable", func(int) bool { return false })
	}
	return p.flippable.CheckInvariants("flippable", func(i int) bool { return wantFlippable[i] })
}

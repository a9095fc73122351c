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
// path. Initial window counts are built with math/bits.OnesCount64
// over packed row windows.
//
// The engine covers every scenario of the topology subsystem. In the
// paper's default setting (torus, full occupancy, global tau) the
// boundary count values are the same four lane-broadcast words for
// every site. Open hard walls, vacancies, and per-site intolerance all
// reduce to the same generalization: each site u gets its own integer
// threshold T = ceil(tau_u * occ(u)) over its own occupied window count
// occ(u). The engine keeps two more packed 16-bit lane arrays in the
// count layout — the threshold T and the slack D = occ(u) - T of every
// site, with a sentinel on vacant sites — and the SWAR scan derives,
// in-register and with additions only, the two boundary values of each
// lane's own spin from the count word, T, D and the packed spin
// nibble. Occupancy and thresholds are static
// under flip and swap dynamics, so the lanes are built once at
// construction, streamed from the occupied window-count rows. Open
// boundaries additionally clamp the flip's row band at the grid edges
// instead of splitting it into wrapped segments.
//
// Site reclassification is division-free: the segment scans know the
// row and column of every lane they flag and hand them to refreshAt,
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
	// upVals/downVals are the lane-broadcast count values at which a
	// site's classification can change after a +1/-1 count update.
	// Unused slots hold the unmatchable sentinel (counts never exceed
	// 0x7fff), so the hot path always tests all four branch-free.
	// They drive the default-scenario scan; scenarios use the per-site
	// threshold and slack lanes below instead.
	upVals   [4]uint64
	downVals [4]uint64
	nUp      int
	nDown    int
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
	// Relocation representation, replacing thrL/slackL under the Move
	// engine: occC holds the occupied-window counts in the same packed
	// 16-bit lane layout as counts, so relocations maintain them with
	// the masked band adds, and thresholds are derived on read —
	// threshTab memoizes ceil(tau*k) per occupancy under a global
	// intolerance, per-site intolerance computes the ceil directly.
	occC      []uint64
	threshTab []int32
	// Changed-site tracking for the swap (Kawasaki) and relocation
	// (Move) wrappers: when track is set, applyFlip appends to changed —
	// in reference window-visit order — every site whose unhappy flag
	// toggled, plus the flipped site itself (whose per-type set
	// membership can change by spin alone).
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
	// refreshAt routes sites outside the owned range through the
	// group: skipped under the deterministic phase protocol (the merge
	// barrier re-derives them), applied to the owning shard under the
	// free-running protocol (the caller holds the neighbor locks).
	ownLo, ownHi int
	sampBase     int
	grp          *ShardGroup
	// warm keeps the loads of warmBand alive.
	warm uint64
}

// noBoundary is a lane-broadcast value no count lane can ever equal;
// it pads unused boundary slots.
const noBoundary = 0xffff * uint64(laneOnes)

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
	return newScenario(lat, w, tauTilde, sc, src, false)
}

// newScenario is the shared constructor body. With relocating set it
// builds a process for the Move engine: occupancy is about to change,
// so the threshold and slack lanes — which are static under the flip
// and swap dynamics and would go stale under relocation — are skipped,
// and applyFlip panics if ever reached.
func newScenario(lat *grid.Lattice, w int, tauTilde float64, sc dynamics.Scenario, src *rng.Source, relocating bool) (*Process, error) {
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
		agents:     lat.CountOccupied(),
		cpr:        (n + 3) / 4,
		unhappy:    make([]uint64, (n*n+63)/64),
		flippable:  sampleset.New(n * n),
		flipSite:   -1,
		relocating: relocating,
		ownHi:      n * n,
	}
	// Fold the initial window counts into the packed lanes one row at a
	// time: the streaming pass keeps O(n*w) scratch instead of an n^2
	// flat count temporary, which is what bounds construction memory on
	// giant grids.
	p.counts = make([]uint64, n*p.cpr)
	p.bits.VisitPlusWindowCounts(w, p.open, func(y int, row []int32) {
		base := y * p.cpr
		for x, c := range row {
			p.counts[base+x>>2] |= uint64(c) << uint(16*(x&3))
		}
	})
	if sc.Open || p.agents < lat.Sites() || sc.Taus != nil {
		// Some axis deviates from the paper's setting: materialize the
		// per-site lanes; the broadcast upVals and downVals stay unused.
		p.tauOf = sc.Taus
		var tab []int32
		if sc.Taus == nil {
			tab = thresholdTable(tauTilde, nbhd)
		}
		if relocating {
			// Occupancy changes on every relocation: keep the occupied
			// counts in packed lanes maintained by the same masked band
			// adds as the plus counts, and derive thresholds on read.
			// Static threshold and slack lanes would go stale and are
			// never built.
			p.threshTab = tab
			p.occC = make([]uint64, n*p.cpr)
			p.bits.VisitOccupiedWindowCounts(w, p.open, func(y int, row []int32) {
				base := y * p.cpr
				for x, c := range row {
					p.occC[base+x>>2] |= uint64(c) << uint(16*(x&3))
				}
			})
		} else {
			p.buildThresholdLanes(tab)
		}
	} else {
		// Classification boundaries: a +1 count update can change a
		// site's class only when the new count hits one of these values
		// (and symmetrically for -1). Values outside [0, N] never match.
		addBoundary(&p.upVals, &p.nUp, p.nbhd, p.thresh)              // plus site becomes happy
		addBoundary(&p.upVals, &p.nUp, p.nbhd, p.nbhd+2-p.thresh)     // plus site loses flip eligibility
		addBoundary(&p.upVals, &p.nUp, p.nbhd, p.nbhd-p.thresh+1)     // minus site becomes unhappy
		addBoundary(&p.upVals, &p.nUp, p.nbhd, p.thresh-1)            // minus site gains flip eligibility
		addBoundary(&p.downVals, &p.nDown, p.nbhd, p.thresh-1)        // plus site becomes unhappy
		addBoundary(&p.downVals, &p.nDown, p.nbhd, p.nbhd+1-p.thresh) // plus site gains flip eligibility
		addBoundary(&p.downVals, &p.nDown, p.nbhd, p.nbhd-p.thresh)   // minus site becomes happy
		addBoundary(&p.downVals, &p.nDown, p.nbhd, p.thresh-2)        // minus site loses flip eligibility
		for i := p.nUp; i < 4; i++ {
			p.upVals[i] = noBoundary
		}
		for i := p.nDown; i < 4; i++ {
			p.downVals[i] = noBoundary
		}
	}
	for y := 0; y < n; y++ {
		row := y * n
		for x := 0; x < n; x++ {
			p.refreshAt(row+x, x, y, p.lane(p.counts, x, y))
		}
	}
	return p, nil
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
// streamed occupied window-count rows: T = ceil(tau_u * occ_u), looked
// up in tab under a global intolerance (tab nil means per-site tau),
// and D = occ_u - T, with vacantLane in both lanes of a vacant site.
func (p *Process) buildThresholdLanes(tab []int32) {
	n := p.n
	p.thrL = make([]uint64, n*p.cpr)
	p.slackL = make([]uint64, n*p.cpr)
	p.bits.VisitOccupiedWindowCounts(p.w, p.open, func(y int, row []int32) {
		base := y * p.cpr
		for x, occ := range row {
			t, d := uint64(vacantLane), uint64(vacantLane)
			if p.occupiedAt(x, y) {
				var th int32
				if tab != nil {
					th = tab[occ]
				} else {
					th = int32(theory.Threshold(p.tauOf[y*n+x], int(occ)))
				}
				t, d = uint64(th), uint64(occ-th)
			}
			sh := uint(16 * (x & 3))
			p.thrL[base+x>>2] |= t << sh
			p.slackL[base+x>>2] |= d << sh
		}
	})
}

// addBoundary appends the lane-broadcast form of count value v if it is
// reachable and not already present.
func addBoundary(arr *[4]uint64, cnt *int, nbhd, v int) {
	if v < 0 || v > nbhd {
		return
	}
	bv := uint64(v) * laneOnes
	for i := 0; i < *cnt; i++ {
		if arr[i] == bv {
			return
		}
	}
	arr[*cnt] = bv
	*cnt++
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
// current count c and spin, and updates the unhappy bitset and
// flippable set — the same transition the reference engine's refresh
// performs, applied only to sites whose count crossed a classification
// boundary. The caller supplies the column and row, so every word is
// addressed without a division. Vacant sites are neither unhappy nor
// flippable.
func (p *Process) refreshAt(j, x, y, c int) {
	if j < p.ownLo || j >= p.ownHi {
		// Shard routing: the site belongs to a neighboring strip. The
		// deterministic protocol defers it to the merge barrier; the
		// free-running protocol re-derives it on the owning shard (whose
		// lock the caller holds).
		if g := p.grp; g != nil && g.free {
			g.owner(j).refreshAt(j, x, y, c)
		}
		return
	}
	plus := p.bits.SpinWord(y*p.bits.WordsPerRow()+x>>6)>>uint(x&63)&1 != 0
	var unhappy, flippable bool
	switch {
	case p.thrL != nil:
		// A vacant site reads as minus, and its sentinel slack exceeds
		// every count, so it is never unhappy.
		li, sh := y*p.cpr+x>>2, uint(16*(x&3))
		th := int(p.thrL[li] >> sh & 0xffff)
		d := int(p.slackL[li] >> sh & 0xffff)
		if plus {
			unhappy = c < th
			flippable = unhappy && c <= d+1
		} else {
			unhappy = c > d
			flippable = unhappy && c >= th-1
		}
	case p.occC != nil:
		// The relocation engine classifies here only at construction;
		// its flippable sampler stays unmaintained.
		if p.occupiedAt(x, y) {
			occ, th := p.lane(p.occC, x, y), p.threshAt(x, y)
			if plus {
				unhappy = c < th
			} else {
				unhappy = c > occ-th
			}
		}
	case plus:
		unhappy = c < p.thresh
		flippable = unhappy && c <= p.nbhd+1-p.thresh
	default:
		unhappy = c > p.nbhd-p.thresh
		flippable = unhappy && c >= p.thresh-1
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
	if p.track && (toggled || j == p.flipSite) {
		// The swap and relocation wrappers replay set maintenance over
		// these sites in this exact (reference window-visit) order.
		p.changed.Append(int32(j))
	}
	if !p.relocating {
		p.flippable.Update(j-p.sampBase, flippable)
	}
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
// every site whose new count sits on a classification boundary, tested
// against the four lane-broadcast values of the default scenario.
// forceX, when in [a, b], is unconditionally refreshed at its column
// position — the flipped site changes class by spin, not by count.
func (p *Process) updateSegment(y, a, b int, add bool, vals *[4]uint64, forceX int) {
	base := y * p.cpr
	row := y * p.n
	fk := -1
	var fbit uint64
	if forceX >= a && forceX <= b {
		fk = forceX >> 2
		fbit = 0x8000 << uint(16*(forceX&3))
	}
	v0, v1, v2, v3 := vals[0], vals[1], vals[2], vals[3]
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
		// SWAR zero-lane scan of cw against the four boundary values.
		// With lanes always <= 0x7fff the scan never misses an equal
		// lane; borrow propagation can flag a non-matching neighbor
		// lane, which is harmless because refreshAt is a no-op when
		// the classification did not change.
		x0 := cw ^ v0
		x1 := cw ^ v1
		x2 := cw ^ v2
		x3 := cw ^ v3
		flags := ((x0 - laneOnes) & ^x0) | ((x1 - laneOnes) & ^x1) |
			((x2 - laneOnes) & ^x2) | ((x3 - laneOnes) & ^x3)
		flags &= am << 15
		if k == fk {
			flags |= fbit
		}
		for flags != 0 {
			x := k<<2 + bits.TrailingZeros64(flags)>>4
			p.refreshAt(row+x, x, y, int(cw>>uint(16*(x&3))&0xffff))
			flags &= flags - 1
		}
	}
}

// updateSegmentLanes is the scenario variant of updateSegment: each
// count word scans against boundary values derived in-register from
// its own threshold and slack lanes and its spin nibble, instead of
// four broadcast values. For a site with threshold T and slack
// D = occ - T, a +1 update can change the class of a plus site only at
// c = T (happy) and c = D+2 (no longer flippable), of a minus site only
// at c = T-1 (flippable) and c = D+1 (unhappy); a -1 update changes a
// plus site at c = T-1 and c = D+1, a minus site at c = T-2 and c = D.
// The scan tests exactly the two values of each lane's own spin,
//
//	up:   plus c == T,   c == D+2;  minus c+1 == T, c == D+1
//	down: plus c+1 == T, c == D+1;  minus c+2 == T, c+1 == D+1
//
// so every comparand is a sum of non-negative lanes and none can
// borrow. Vacant lanes read as minus and hold vacantLane, which none
// of c, c+1, c+2 reaches. The zero-lane test itself, its harmless
// borrow false positives and the ascending refresh order are those of
// updateSegment.
func (p *Process) updateSegmentLanes(y, a, b int, add bool, forceX int) {
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
		t := p.thrL[idx]
		d1 := p.slackL[idx] + laneOnes
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

// segment applies the ±1 count update and boundary scan to columns
// [a, b] of row y, routing to the broadcast scan (default scenario) or
// the threshold/slack lane scan.
func (p *Process) segment(y, a, b int, add bool, forceX int) {
	if p.thrL != nil {
		p.updateSegmentLanes(y, a, b, add, forceX)
		return
	}
	vals := &p.downVals
	if add {
		vals = &p.upVals
	}
	p.updateSegment(y, a, b, add, vals, forceX)
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
			p.segment(y, xlo, xhi, plus, forceX)
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
			p.segment(y, xlo, xlo+width-1, plus, forceX)
		} else {
			p.segment(y, xlo, n-1, plus, forceX)
			p.segment(y, 0, xlo+width-1-n, plus, forceX)
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
	if p.relocating {
		// The relocation engine never flips in place: its flip sampler is
		// deliberately unmaintained and must have stayed empty.
		return p.flippable.CheckInvariants("flippable", func(int) bool { return false })
	}
	return p.flippable.CheckInvariants("flippable", func(i int) bool { return wantFlippable[i] })
}

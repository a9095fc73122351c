package fastglauber

import (
	"errors"
	"fmt"

	"gridseg/internal/rng"
	"gridseg/internal/sampleset"
)

// This file implements strip shards: views of a single Process that
// partition its lattice into horizontal strips so non-interacting
// strips can run Glauber updates concurrently (internal/dynamics/pareng
// orchestrates the phase protocol). Each shard is a shallow copy of the
// parent Process sharing every backing array — packed spins, the count,
// threshold and slack lanes, the unhappy bitset, and the reference
// mirror lattice — with its own flippable sampler (indexed relative to
// the strip base), its own clock, flip counter, and unhappy tally.
//
// Safety rests on layout, not locks: spin words and count words are
// row-aligned (they never span rows), flips happen only in owned rows,
// and a flip's count writes reach at most w rows past the strip. The
// phase protocol keeps concurrently active strips at least one full
// strip apart, so their write sets live in disjoint rows — and with strip
// heights of at least max(2w, ceil(64/n)) rows, in disjoint words of
// the flat unhappy bitset as well. NewShards enforces those minima.

// ShardGroup is a strip decomposition of one Process. Construct with
// NewShards; after construction the parent must no longer be stepped
// (its sampler and unhappy tally go stale as the shards evolve), but
// its read-only queries over the shared arrays (counts, spins, Phi)
// remain valid at any quiescent point.
type ShardGroup struct {
	parent *Process
	shards []*Process
	bounds []int   // strip k owns rows [bounds[k], bounds[k+1])
	rowOf  []int32 // row -> owning strip index
}

// NewShards splits p into the strips delimited by bounds (ascending row
// cuts from 0 to n inclusive) and returns the shard group. The process
// must be a plain Glauber engine (not relocating, not change-tracked),
// every strip must be at least max(2w, ceil(64/n)) rows tall so that
// strips two apart never write the same memory word, and there must be
// at least two strips.
func NewShards(p *Process, bounds []int) (*ShardGroup, error) {
	if p.relocating || p.track {
		return nil, errors.New("fastglauber: shards require a plain Glauber process")
	}
	if p.grp != nil {
		return nil, errors.New("fastglauber: process is already sharded")
	}
	if len(bounds) < 3 {
		return nil, errors.New("fastglauber: sharding needs at least two strips")
	}
	if bounds[0] != 0 || bounds[len(bounds)-1] != p.n {
		return nil, fmt.Errorf("fastglauber: strip bounds must run from 0 to %d", p.n)
	}
	minH := 2 * p.w
	if need := (63 + p.n) / p.n; need > minH {
		minH = need
	}
	for k := 0; k+1 < len(bounds); k++ {
		if h := bounds[k+1] - bounds[k]; h < minH {
			return nil, fmt.Errorf("fastglauber: strip %d is %d rows tall, need >= %d (2w and one bitset word)", k, h, minH)
		}
	}
	g := &ShardGroup{parent: p, bounds: append([]int(nil), bounds...), rowOf: make([]int32, p.n)}
	for k := 0; k+1 < len(bounds); k++ {
		for y := bounds[k]; y < bounds[k+1]; y++ {
			g.rowOf[y] = int32(k)
		}
		s := new(Process)
		*s = *p
		s.ownLo, s.ownHi = bounds[k]*p.n, bounds[k+1]*p.n
		s.sampBase = s.ownLo
		s.flippable = sampleset.New(s.ownHi - s.ownLo)
		s.src = nil
		s.time, s.flips = 0, 0
		s.nUnhappy = 0
		s.flipSite = -1
		s.grp = g
		for j := s.ownLo; j < s.ownHi; j++ {
			if p.unhappy[j>>6]&(1<<uint(j&63)) != 0 {
				s.nUnhappy++
			}
			s.flippable.Update(j-s.sampBase, p.flippable.Contains(j))
		}
		g.shards = append(g.shards, s)
	}
	return g, nil
}

// Strips returns the number of strips.
func (g *ShardGroup) Strips() int { return len(g.shards) }

// Shard returns the k-th strip's process view.
func (g *ShardGroup) Shard(k int) *Process { return g.shards[k] }

// FlippableCount returns the total number of admissible flips across
// all strips. Only meaningful at a quiescent point of the phase protocol.
func (g *ShardGroup) FlippableCount() int {
	total := 0
	for _, s := range g.shards {
		total += s.flippable.Len()
	}
	return total
}

// UnhappyCount returns the total number of unhappy agents.
func (g *ShardGroup) UnhappyCount() int {
	total := 0
	for _, s := range g.shards {
		total += s.nUnhappy
	}
	return total
}

// Flips returns the total number of flips performed across all strips.
func (g *ShardGroup) Flips() int64 {
	var total int64
	for _, s := range g.shards {
		total += s.flips
	}
	return total
}

// RefreshRows re-derives the classification of every site in rows
// [lo, hi) from the shared counts, in ascending site order, updating
// each owning shard's unhappy tally and sampler. This is the
// deterministic protocol's merge: a phase skips refreshes of foreign
// sites, and the barrier replays them here in a canonical order so the
// outcome is independent of worker count.
func (g *ShardGroup) RefreshRows(lo, hi int) {
	n := g.parent.n
	for y := lo; y < hi; y++ {
		s := g.shards[g.rowOf[y]]
		for x := 0; x < n; x++ {
			s.refreshAt(y*n+x, x, y, s.lane(s.counts, x, y))
		}
	}
}

// RunHorizon advances the shard's local kinetic Monte Carlo clock from
// zero until the next event would land past the horizon, drawing
// exclusively from src. It reports the events performed, the local
// clock value of the last event (0 when none), and whether any flip
// landed within w rows of the strip's low/high edge (so the caller
// knows which neighbor bands need the merge refresh). The per-event
// randomness is one ExpRate draw and one sampler draw, exactly like
// Step, so a one-strip shard replays the sequential engine's flip
// sequence for the same source.
func (p *Process) RunHorizon(src *rng.Source, horizon float64) (events int64, last float64, dirtyLo, dirtyHi bool) {
	n, w := p.n, p.w
	loRow, hiRow := p.ownLo/n, p.ownHi/n
	t := 0.0
	for {
		k := p.flippable.Len()
		if k == 0 {
			return events, last, dirtyLo, dirtyHi
		}
		t += src.ExpRate(float64(k))
		if t > horizon {
			return events, last, dirtyLo, dirtyHi
		}
		i := int(p.flippable.Sample(src)) + p.sampBase
		p.applyFlip(i)
		p.flips++
		events++
		last = t
		y := i / n
		if y < loRow+w {
			dirtyLo = true
		}
		if y >= hiRow-w {
			dirtyHi = true
		}
	}
}

// CheckInvariants verifies the shared packed state against brute-force
// recomputation and every shard's sampler and tallies against the
// shared state. Call only at a quiescent point.
func (g *ShardGroup) CheckInvariants() error {
	p := g.parent
	if err := p.bits.EqualLattice(p.lat); err != nil {
		return err
	}
	fresh := p.bits.PlusWindowCounts(p.w, p.open)
	ref := p.lat.PlusWindowCounts(p.w, p.open)
	for i := range ref {
		if ref[i] != fresh[i] {
			return fmt.Errorf("packed window count[%d] = %d, reference recount %d", i, fresh[i], ref[i])
		}
		if got := p.count(i); got != int(fresh[i]) {
			return fmt.Errorf("count lane[%d] = %d, want %d", i, got, fresh[i])
		}
	}
	for k, s := range g.shards {
		unhappyCount := 0
		wantFlippable := make([]bool, s.ownHi-s.ownLo)
		for j := s.ownLo; j < s.ownHi; j++ {
			unhappy := !p.Happy(j)
			wantFlippable[j-s.sampBase] = p.Flippable(j)
			if got := p.unhappy[j>>6]&(1<<uint(j&63)) != 0; got != unhappy {
				return fmt.Errorf("strip %d: unhappy[%d] = %v, want %v", k, j, got, unhappy)
			}
			if unhappy {
				unhappyCount++
			}
		}
		if unhappyCount != s.nUnhappy {
			return fmt.Errorf("strip %d: nUnhappy = %d, want %d", k, s.nUnhappy, unhappyCount)
		}
		name := fmt.Sprintf("strip %d flippable", k)
		if err := s.flippable.CheckInvariants(name, func(i int) bool { return wantFlippable[i] }); err != nil {
			return err
		}
	}
	return nil
}

// Package sampleset implements the dense index-swap sets behind every
// sampler of the dynamics engines: the flippable set of the Glauber
// process, the per-type unhappy sets of the Kawasaki swap dynamic, and
// the unhappy-agent and vacant-site sets of the Move relocation
// dynamic, on both the reference and the bit-packed engines.
//
// A Set holds int32 site indices in a dense slice with a parallel
// position index, giving O(1) insert, O(1) swap-remove, O(1) uniform
// sampling (items[Intn(Len())]), and deterministic iteration order.
// The order is part of the engines' bit-identity contract: a uniform
// sample maps a random index to a site *through the slice ordering*,
// so two engines agree on every future random draw exactly when their
// sets hold the same elements in the same order. Set therefore pins
// the one true ordering discipline — append on insert, swap-with-last
// on remove — that the engines previously each reimplemented.
package sampleset

import (
	"fmt"
	"math/bits"

	"gridseg/internal/rng"
)

// Set is a dense set of site indices over a fixed universe [0, n),
// with O(1) membership updates and uniform sampling. Construct with
// New; the zero value is not usable.
type Set struct {
	items []int32
	// pos[i] = 1 + index of site i in items, or 0 when i is absent, so
	// a freshly allocated index is an empty set.
	pos []int32
}

// New returns an empty set over the universe [0, n).
func New(n int) *Set {
	return &Set{pos: make([]int32, n)}
}

// FromMask returns the set over [0, n) whose members are the set bits
// of mask (bit i&63 of word i>>6 is site i), in ascending site order:
// the order that n ascending Update(i, bit i) calls on an empty set
// produce, built without testing each site. Bits at or above n must
// be clear.
func FromMask(n int, mask []uint64) *Set {
	s := New(n)
	c := 0
	for _, w := range mask {
		c += bits.OnesCount64(w)
	}
	s.items = make([]int32, 0, c)
	for k, w := range mask {
		for w != 0 {
			i := k<<6 + bits.TrailingZeros64(w)
			s.items = append(s.items, int32(i))
			s.pos[i] = int32(len(s.items))
			w &= w - 1
		}
	}
	return s
}

// Len returns the number of members.
func (s *Set) Len() int { return len(s.items) }

// At returns the k-th member in iteration order.
func (s *Set) At(k int) int32 { return s.items[k] }

// Items returns the live member slice in iteration order (read-only
// use: invariant checks and deterministic replay).
func (s *Set) Items() []int32 { return s.items }

// Contains reports whether site i is a member.
func (s *Set) Contains(i int) bool { return s.pos[i] != 0 }

// Sample returns a uniformly random member, consuming exactly one
// Intn(Len()) draw. It panics on an empty set (callers test Len first,
// mirroring the engines' step guards).
func (s *Set) Sample(src *rng.Source) int32 {
	return s.items[src.Intn(len(s.items))]
}

// Update makes site i's membership equal to want: a non-member is
// appended, a member is swap-removed with the last element, and a
// no-op change costs one branch. This is the exact setMembership
// discipline the reference samplers were built on, so migrated sets
// evolve element-for-element identically.
func (s *Set) Update(i int, want bool) {
	in := s.pos[i] != 0
	switch {
	case want && !in:
		s.items = append(s.items, int32(i))
		s.pos[i] = int32(len(s.items))
	case !want && in:
		j := s.pos[i]
		last := s.items[len(s.items)-1]
		s.items[j-1] = last
		s.pos[last] = j
		s.items = s.items[:len(s.items)-1]
		s.pos[i] = 0
	}
}

// CheckInvariants verifies the position index against the member slice
// and membership against the given predicate over the full universe.
func (s *Set) CheckInvariants(name string, want func(i int) bool) error {
	for j, site := range s.items {
		if s.pos[site] != int32(j+1) {
			return fmt.Errorf("%s: pos[%d] = %d, want %d", name, site, s.pos[site], j+1)
		}
	}
	members := 0
	for i := range s.pos {
		in := s.pos[i] != 0
		if in != want(i) {
			return fmt.Errorf("%s: membership of %d = %v, want %v", name, i, in, want(i))
		}
		if in {
			members++
		}
	}
	if members != len(s.items) {
		return fmt.Errorf("%s: %d sites indexed, %d members", name, members, len(s.items))
	}
	return nil
}

// List is an append-only change log of site indices: the bit-packed
// engines record, in reference window-visit order, the sites whose
// classification changed during a flip, and the swap/relocation
// wrappers replay their set maintenance over exactly those sites.
type List struct {
	items []int32
}

// Reset empties the list, keeping its capacity.
func (l *List) Reset() { l.items = l.items[:0] }

// Append records site i.
func (l *List) Append(i int32) { l.items = append(l.items, i) }

// Items returns the recorded sites in append order.
func (l *List) Items() []int32 { return l.items }

// Len returns the number of recorded sites.
func (l *List) Len() int { return len(l.items) }

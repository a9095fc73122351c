package sampleset

import (
	"math"
	"testing"

	"gridseg/internal/rng"
)

// brute is the oracle: membership as a plain boolean array plus an
// insertion-order-independent view of the set.
type brute struct {
	in    []bool
	count int
}

func (b *brute) update(i int, want bool) {
	if b.in[i] != want {
		b.in[i] = want
		if want {
			b.count++
		} else {
			b.count--
		}
	}
}

// TestSetAgainstBruteForce churns a set with random membership updates
// and checks membership, size, and the position invariant after every
// operation block.
func TestSetAgainstBruteForce(t *testing.T) {
	const n = 257
	s := New(n)
	b := &brute{in: make([]bool, n)}
	src := rng.New(42)
	for step := 0; step < 20000; step++ {
		i := src.Intn(n)
		want := src.Bernoulli(0.5)
		s.Update(i, want)
		b.update(i, want)
		if s.Len() != b.count {
			t.Fatalf("step %d: Len = %d, want %d", step, s.Len(), b.count)
		}
		if s.Contains(i) != b.in[i] {
			t.Fatalf("step %d: Contains(%d) = %v, want %v", step, i, s.Contains(i), b.in[i])
		}
	}
	if err := s.CheckInvariants("churned", func(i int) bool { return b.in[i] }); err != nil {
		t.Fatal(err)
	}
}

// TestSetDeterministicReplay drives two sets through the same update
// sequence and demands identical iteration order — the property the
// engines' bit-identity rests on: a uniform sample maps Intn(k) to a
// site through the slice order.
func TestSetDeterministicReplay(t *testing.T) {
	const n = 100
	a, b := New(n), New(n)
	src := rng.New(7)
	for step := 0; step < 5000; step++ {
		i := src.Intn(n)
		want := src.Bernoulli(0.6)
		a.Update(i, want)
		b.Update(i, want)
	}
	ai, bi := a.Items(), b.Items()
	if len(ai) != len(bi) {
		t.Fatalf("lengths differ: %d vs %d", len(ai), len(bi))
	}
	for k := range ai {
		if ai[k] != bi[k] {
			t.Fatalf("iteration order differs at %d: %d vs %d", k, ai[k], bi[k])
		}
	}
	// And both agree on every sample drawn from identical sources.
	sa, sb := rng.New(99), rng.New(99)
	for k := 0; k < 1000; k++ {
		if x, y := a.Sample(sa), b.Sample(sb); x != y {
			t.Fatalf("sample %d differs: %d vs %d", k, x, y)
		}
	}
}

// TestFromMaskMatchesAscendingUpdates pins the bulk load to the loop it
// replaces: a set built from a mask holds the same items in the same
// order as ascending Update calls on an empty set, and the two stay
// identical under the same later churn.
func TestFromMaskMatchesAscendingUpdates(t *testing.T) {
	src := rng.New(11)
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		mask := make([]uint64, (n+63)/64)
		a := New(n)
		for i := 0; i < n; i++ {
			in := src.Bernoulli(0.4)
			if in {
				mask[i>>6] |= 1 << uint(i&63)
			}
			a.Update(i, in)
		}
		b := FromMask(n, mask)
		for step := 0; step < 3*n; step++ {
			i, want := src.Intn(n), src.Bernoulli(0.5)
			a.Update(i, want)
			b.Update(i, want)
		}
		ai, bi := a.Items(), b.Items()
		if len(ai) != len(bi) {
			t.Fatalf("n=%d: lengths differ: %d vs %d", n, len(ai), len(bi))
		}
		for k := range ai {
			if ai[k] != bi[k] {
				t.Fatalf("n=%d: order differs at %d: %d vs %d", n, k, ai[k], bi[k])
			}
		}
		if err := b.CheckInvariants("bulk", a.Contains); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestSetSampleUniform pins sampling uniformity with a chi-square test
// over a fixed member population: 40 members, 40000 draws, so the
// expected count per member is 1000. The 99.9% critical value of
// chi-square with 39 degrees of freedom is ~72.1; a correct uniform
// sampler fails this with probability 0.001 (and the seed is fixed, so
// the test is deterministic).
func TestSetSampleUniform(t *testing.T) {
	const members = 40
	const draws = 40000
	s := New(1024)
	for i := 0; i < members; i++ {
		s.Update(i*17+3, true)
	}
	counts := map[int32]int{}
	src := rng.New(12345)
	for k := 0; k < draws; k++ {
		counts[s.Sample(src)]++
	}
	if len(counts) != members {
		t.Fatalf("observed %d distinct members, want %d", len(counts), members)
	}
	expected := float64(draws) / float64(members)
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 72.1 {
		t.Fatalf("chi-square = %.1f exceeds the 99.9%% critical value 72.1 for %d-1 dof", chi2, members)
	}
	if math.IsNaN(chi2) {
		t.Fatal("chi-square is NaN")
	}
}

// TestSetChurnIsConstantTime pins the O(1) amortized cost of Update
// structurally: a full insert-then-remove cycle over the universe must
// leave the set empty with every position reset, and the member slice
// never grows beyond the universe size (no duplicate appends).
func TestSetChurnIsConstantTime(t *testing.T) {
	const n = 4096
	s := New(n)
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			s.Update(i, true)
			s.Update(i, true) // redundant insert must be a no-op
		}
		if s.Len() != n {
			t.Fatalf("round %d: Len = %d, want %d", round, s.Len(), n)
		}
		if c := cap(s.Items()); c > 2*n {
			t.Fatalf("round %d: capacity %d grew beyond the universe (duplicate appends?)", round, c)
		}
		for i := n - 1; i >= 0; i-- {
			s.Update(i, false)
			s.Update(i, false) // redundant remove must be a no-op
		}
		if s.Len() != 0 {
			t.Fatalf("round %d: Len = %d after draining, want 0", round, s.Len())
		}
	}
	if err := s.CheckInvariants("drained", func(int) bool { return false }); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSetChurn measures one insert+remove pair under steady-state
// churn — the amortized O(1) claim in wall-clock form.
func BenchmarkSetChurn(b *testing.B) {
	const n = 1 << 16
	s := New(n)
	for i := 0; i < n; i += 2 {
		s.Update(i, true)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := (i * 2654435761) & (n - 1)
		s.Update(j, !s.Contains(j))
	}
}

// TestList pins the append-order contract of the change log.
func TestList(t *testing.T) {
	var l List
	for i := int32(0); i < 5; i++ {
		l.Append(i * 3)
	}
	if l.Len() != 5 {
		t.Fatalf("Len = %d, want 5", l.Len())
	}
	for k, v := range l.Items() {
		if v != int32(k*3) {
			t.Fatalf("item %d = %d, want %d", k, v, k*3)
		}
	}
	l.Reset()
	if l.Len() != 0 {
		t.Fatal("Reset did not empty the list")
	}
	l.Append(7)
	if got := l.Items(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("after reset+append: %v", got)
	}
}

package pareng

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"gridseg/internal/dynamics"
	"gridseg/internal/dynamics/fastglauber"
	"gridseg/internal/grid"
	"gridseg/internal/rng"
)

// Config selects the decomposition and protocol of a parallel engine.
// The zero value asks for the deterministic protocol with the
// machine-independent automatic strip count and one worker per
// available CPU.
type Config struct {
	// Workers is the number of concurrent workers (0: GOMAXPROCS).
	// Under the deterministic protocol the worker count is a pure
	// execution detail — any count yields the same trajectory.
	Workers int
	// Strips is the strip count (0: AutoStrips(n, w); 1: no
	// decomposition — the engine delegates to the sequential fast
	// engine and is bit-identical to it). The strip count is part of
	// the trajectory definition: different counts give different —
	// individually reproducible — trajectories.
	Strips int
	// Free selects the free-running protocol: higher throughput, no
	// cross-run determinism (distributional guarantees only).
	Free bool
}

// burstEvents is the free-running protocol's per-claim event budget: a
// worker holding a strip's neighbor locks performs at most this many
// events before releasing them.
const burstEvents = 256

// cycleFloor is the deterministic protocol's minimum expected number
// of events per cycle; the phase horizon is chosen so a cycle performs
// about max(cycleFloor, K/4) events at K admissible flips, keeping
// barrier overhead amortized both early (K large) and near fixation.
const cycleFloor = 256

// Engine is the domain-decomposed parallel Glauber engine. Construct
// with New; it satisfies dynamics.Engine. With one strip every method
// delegates to the sequential fast engine; with several, Step and Run
// advance whole phase cycles (deterministic protocol) or event bursts
// (free-running protocol), so one Step may perform many flips — Flips
// reports the exact total.
type Engine struct {
	proc     *fastglauber.Process
	grp      *fastglauber.ShardGroup // nil when strips == 1
	part     Partition
	base     *rng.Source
	srcs     []*rng.Source // free-running per-strip streams
	locks    []sync.Mutex
	workers  int
	strips   int
	free     bool
	time     float64 // deterministic protocol: accumulated consumed cycle time
	lastFlip float64 // deterministic protocol: global time of the last flip
	cycles   int64
	cur      int // free-running Step round-robin cursor
}

// The parallel engine satisfies the shared engine contract.
var _ dynamics.Engine = (*Engine)(nil)

// New creates a parallel Glauber engine over the given lattice with
// the same model semantics and validation as the sequential engines
// (the scenario axes — open boundary, vacancies read off the lattice,
// per-site intolerance — are all supported). Construction consumes no
// randomness. With cfg.Strips == 1 the result is bit-identical to
// fastglauber.NewScenario on the same source.
func New(lat *grid.Lattice, w int, tauTilde float64, sc dynamics.Scenario, src *rng.Source, cfg Config) (*Engine, error) {
	strips := cfg.Strips
	if strips == 0 {
		strips = AutoStrips(lat.N(), w)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	proc, err := fastglauber.NewScenario(lat, w, tauTilde, sc, src)
	if err != nil {
		return nil, fmt.Errorf("pareng: %w", err)
	}
	e := &Engine{proc: proc, base: src, workers: workers, strips: strips, free: cfg.Free}
	if strips == 1 {
		return e, nil
	}
	part, err := NewPartition(lat.N(), w, strips, sc.Open)
	if err != nil {
		return nil, err
	}
	grp, err := fastglauber.NewShards(proc, part.bounds, cfg.Free)
	if err != nil {
		return nil, fmt.Errorf("pareng: %w", err)
	}
	e.part, e.grp = part, grp
	e.locks = make([]sync.Mutex, strips)
	e.srcs = make([]*rng.Source, strips)
	for k := range e.srcs {
		// A label space disjoint from the deterministic protocol's
		// per-(cycle, phase, strip) labels (see phaseLabel).
		e.srcs[k] = src.Split(1<<62 + uint64(k))
	}
	return e, nil
}

// phaseLabel derives the random-stream label of (cycle, phase, strip):
// unique per triple because strips are capped well below 64.
func phaseLabel(cycle int64, phase, strip int) uint64 {
	return (uint64(cycle)*2+uint64(phase))*64 + uint64(strip) + 1
}

// Strips returns the strip count in force (1 means sequential
// delegation).
func (e *Engine) Strips() int { return e.strips }

// Workers returns the worker count in force.
func (e *Engine) Workers() int { return e.workers }

// Cycles returns the number of completed phase cycles (deterministic
// protocol; 0 under delegation and the free-running protocol).
func (e *Engine) Cycles() int64 { return e.cycles }

// Lattice returns the underlying reference lattice (live view).
func (e *Engine) Lattice() *grid.Lattice { return e.proc.Lattice() }

// Horizon returns the neighborhood radius w.
func (e *Engine) Horizon() int { return e.proc.Horizon() }

// NeighborhoodSize returns N = (2w+1)^2.
func (e *Engine) NeighborhoodSize() int { return e.proc.NeighborhoodSize() }

// Threshold returns the integer happiness threshold tau*N.
func (e *Engine) Threshold() int { return e.proc.Threshold() }

// Tau returns the rational intolerance threshold/N.
func (e *Engine) Tau() float64 { return e.proc.Tau() }

// Time returns the elapsed continuous time: the sequential clock under
// delegation, the accumulated cycle horizons under the deterministic
// protocol, and the largest strip-local clock under the free-running
// protocol (each strip's clock estimates the same global time, since a
// strip's events arrive at its local rate). In every mode Time is the
// time of the last flip — which is what fixation-time statistics
// measure — so the deterministic protocol never accumulates the tail
// cycles' large, mostly empty horizons near fixation.
func (e *Engine) Time() float64 {
	if e.grp == nil {
		return e.proc.Time()
	}
	if e.free {
		return e.grp.MaxTime()
	}
	return e.lastFlip
}

// Flips returns the number of effective flips so far.
func (e *Engine) Flips() int64 {
	if e.grp == nil {
		return e.proc.Flips()
	}
	return e.grp.Flips()
}

// SameCount returns the same-type count of site i including itself.
func (e *Engine) SameCount(i int) int { return e.proc.SameCount(i) }

// Happy reports whether the agent at site i is happy.
func (e *Engine) Happy(i int) bool { return e.proc.Happy(i) }

// HappyFraction returns the fraction of happy agents.
func (e *Engine) HappyFraction() float64 {
	if e.grp == nil {
		return e.proc.HappyFraction()
	}
	if e.proc.Agents() == 0 {
		return 1
	}
	return 1 - float64(e.grp.UnhappyCount())/float64(e.proc.Agents())
}

// UnhappyCount returns the number of unhappy agents.
func (e *Engine) UnhappyCount() int {
	if e.grp == nil {
		return e.proc.UnhappyCount()
	}
	return e.grp.UnhappyCount()
}

// FlippableCount returns the number of admissible flips.
func (e *Engine) FlippableCount() int {
	if e.grp == nil {
		return e.proc.FlippableCount()
	}
	return e.grp.FlippableCount()
}

// Fixated reports whether no admissible flip remains.
func (e *Engine) Fixated() bool { return e.FlippableCount() == 0 }

// Phi returns the paper's Lyapunov function.
func (e *Engine) Phi() int64 { return e.proc.Phi() }

// MaxFlipsBound returns the a-priori Lyapunov flip bound.
func (e *Engine) MaxFlipsBound() int64 { return e.proc.MaxFlipsBound() }

// CheckInvariants verifies bookkeeping against brute force.
func (e *Engine) CheckInvariants() error {
	if e.grp == nil {
		return e.proc.CheckInvariants()
	}
	return e.grp.CheckInvariants()
}

// Step advances the engine by one unit of progress: one flip under
// delegation (site is the flipped site), one phase cycle under the
// deterministic protocol, one strip burst under the free-running
// protocol (site is -1 for both batched forms, which may perform many
// flips — or none, when every drawn waiting time overshoots the
// horizon). ok=false after fixation.
func (e *Engine) Step() (site int, ok bool) {
	if e.grp == nil {
		return e.proc.Step()
	}
	if e.grp.FlippableCount() == 0 {
		return 0, false
	}
	if e.free {
		for try := 0; try < e.strips; try++ {
			k := e.cur % e.strips
			e.cur++
			if e.grp.Shard(k).RunBurst(e.srcs[k], burstEvents) > 0 {
				return -1, true
			}
		}
		return -1, true
	}
	e.runCycle()
	return -1, true
}

// Run advances the engine until fixation or until at least maxFlips
// additional flips have been performed (<= 0: no limit). The batched
// protocols stop at cycle or burst granularity, so performed may
// slightly overshoot maxFlips.
func (e *Engine) Run(maxFlips int64) (performed int64, fixated bool) {
	if e.grp == nil {
		return e.proc.Run(maxFlips)
	}
	if e.free {
		return e.runFree(maxFlips)
	}
	for maxFlips <= 0 || performed < maxFlips {
		if e.grp.FlippableCount() == 0 {
			return performed, true
		}
		performed += e.runCycle()
	}
	return performed, e.grp.FlippableCount() == 0
}

// runCycle advances one deterministic cycle: phase 0 runs the even
// strips concurrently over a fixed local-clock horizon, a serial
// barrier merges their boundary effects in ascending strip order, and
// phase 1 repeats for the odd strips. Everything that influences the
// state — the horizon, each strip's random stream, the merge order —
// is a pure function of (seed, parameters, strip count, cycle index),
// so the result is independent of the worker count and of goroutine
// scheduling.
func (e *Engine) runCycle() (flips int64) {
	k := e.grp.FlippableCount()
	if k == 0 {
		return 0
	}
	target := float64(k) / 4
	if target < cycleFloor {
		target = cycleFloor
	}
	dt := target / float64(k)
	advance := 0.0
	type result struct {
		events   int64
		last     float64
		consumed float64
		lo, hi   bool
	}
	results := make([]result, e.strips)
	for phase := 0; phase < 2; phase++ {
		var active []int
		for s := phase; s < e.strips; s += 2 {
			active = append(active, s)
		}
		run := func(s int) {
			shard := e.grp.Shard(s)
			src := e.base.Split(phaseLabel(e.cycles, phase, s))
			ev, last, lo, hi := shard.RunHorizon(src, dt)
			// Time consumed by the strip this cycle: the full horizon if
			// it was truncated while still active, the last event's time
			// if it ran out of admissible flips before the horizon. The
			// cycle's clock advance is the max over strips, so tail
			// cycles — where every strip fixates locally long before the
			// oversized horizon — contribute only the time events
			// actually took, keeping the global clock an honest estimate
			// of the sequential one.
			consumed := last
			if shard.FlippableCount() > 0 {
				consumed = dt
			}
			results[s] = result{events: ev, last: last, consumed: consumed, lo: lo, hi: hi}
		}
		if nw := min(e.workers, len(active)); nw <= 1 {
			for _, s := range active {
				run(s)
			}
		} else {
			work := make(chan int)
			var wg sync.WaitGroup
			for i := 0; i < nw; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for s := range work {
						run(s)
					}
				}()
			}
			for _, s := range active {
				work <- s
			}
			close(work)
			wg.Wait()
		}
		// Merge barrier: re-derive the boundary bands the phase's flips
		// wrote into, in canonical ascending order. refreshAt is
		// idempotent given the (already settled) counts, so the merge
		// only has to be ordered, not clever.
		for _, s := range active {
			r := results[s]
			flips += r.events
			if r.events > 0 && e.time+r.last > e.lastFlip {
				e.lastFlip = e.time + r.last
			}
			if r.consumed > advance {
				advance = r.consumed
			}
			lo, hi := e.part.OwnedRows(s)
			if r.lo {
				e.refreshBand(lo-e.part.W, lo)
			}
			if r.hi {
				e.refreshBand(hi, hi+e.part.W)
			}
		}
	}
	e.cycles++
	e.time += advance
	return flips
}

// refreshBand re-derives rows [lo, hi), wrapped on the torus and
// clamped at the edges under the open boundary.
func (e *Engine) refreshBand(lo, hi int) {
	n := e.part.N
	if e.part.Open {
		if lo < 0 {
			lo = 0
		}
		if hi > n {
			hi = n
		}
		if lo < hi {
			e.grp.RefreshRows(lo, hi)
		}
		return
	}
	if lo < 0 {
		e.grp.RefreshRows(lo+n, n)
		lo = 0
	}
	if hi > n {
		e.grp.RefreshRows(0, hi-n)
		hi = n
	}
	if lo < hi {
		e.grp.RefreshRows(lo, hi)
	}
}

// runFree runs the free-running protocol to fixation (or the flip
// budget): workers claim strips round-robin, lock the strip and both
// neighbors in ascending index order, and perform an event burst whose
// cross-strip effects apply immediately to the locked neighbors. A
// strict global count of admissible flips, maintained with per-burst
// deltas, detects fixation: once it reads zero it can never grow
// again, because growth requires a flip and flips require an
// admissible site.
func (e *Engine) runFree(maxFlips int64) (int64, bool) {
	var performed, flippable atomic.Int64
	var cursor atomic.Int64
	flippable.Store(int64(e.grp.FlippableCount()))
	nw := min(e.workers, e.strips)
	var wg sync.WaitGroup
	for i := 0; i < nw; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if flippable.Load() == 0 {
					return
				}
				if maxFlips > 0 && performed.Load() >= maxFlips {
					return
				}
				k := int(cursor.Add(1)-1) % e.strips
				ids := e.neighborhood(k)
				for _, id := range ids {
					e.locks[id].Lock()
				}
				burst := int64(burstEvents)
				if maxFlips > 0 {
					if rem := maxFlips - performed.Load(); rem < burst {
						burst = rem
					}
				}
				var events int64
				if burst > 0 {
					before := 0
					for _, id := range ids {
						before += e.grp.Shard(id).FlippableCount()
					}
					events = e.grp.Shard(k).RunBurst(e.srcs[k], int(burst))
					after := 0
					for _, id := range ids {
						after += e.grp.Shard(id).FlippableCount()
					}
					flippable.Add(int64(after - before))
					performed.Add(events)
				}
				for j := len(ids) - 1; j >= 0; j-- {
					e.locks[ids[j]].Unlock()
				}
				if events == 0 {
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()
	return performed.Load(), e.grp.FlippableCount() == 0
}

// neighborhood returns the sorted, deduplicated lock set of strip k:
// the strip and both torus-adjacent neighbors. Ascending acquisition
// order keeps the workers deadlock-free.
func (e *Engine) neighborhood(k int) []int {
	s := e.strips
	a, b := (k-1+s)%s, (k+1)%s
	ids := []int{k}
	for _, v := range []int{a, b} {
		seen := false
		for _, u := range ids {
			if u == v {
				seen = true
			}
		}
		if !seen {
			ids = append(ids, v)
		}
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}

package main

import (
	"bufio"
	"errors"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// rssBlocks is how many equal stretches of time a measured phase is
// split into for peak_rss_mib: the peak resident memory is read and reset
// at the end of each, and the median is reported, so a single transient
// peak (a garbage collection that ran late) does not set it.
const rssBlocks = 10

// sut is one workload's system under test.
type sut interface {
	// clients is the number of closed-loop clients driving it.
	clients() int
	// start boots the system on a fresh directory, wired to tr (nil
	// for untraced runs).
	start(dir string, tr *tracer) error
	// pause is how long the client waits before operation k, off the
	// clock.
	pause(k int) time.Duration
	// op runs operation k of the workload's fixed schedule and reports
	// the grids it completed.
	op(ph *phase, k int) []gridResult
	// timeline opens (true) or closes (false) the spans that cover the
	// whole traced phase, where the workload has any.
	timeline(open bool)
	// stop shuts the system down and waits for everything it started.
	stop()
}

// gridResult is one grid a workload operation completed.
type gridResult struct {
	c     *gridCase
	warm  bool
	cells int
	// grid is the grid latency; artifacts are the artifact latencies.
	grid      time.Duration
	artifacts []time.Duration
	csv, json [32]byte
	err       error
}

func (r *gridResult) spec() string {
	if r.warm {
		return r.c.warm
	}
	return r.c.cold
}

// phase is one measured pass of a workload over its schedule.
type phase struct {
	mu sync.Mutex
	// coldDone closes when a case's cold grid completed in this phase;
	// a warm grid over the case waits for it.
	coldDone map[*gridCase]chan struct{}
}

func newPhase() *phase {
	return &phase{coldDone: map[*gridCase]chan struct{}{}}
}

func (ph *phase) done(c *gridCase) chan struct{} {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ch := ph.coldDone[c]
	if ch == nil {
		ch = make(chan struct{})
		ph.coldDone[c] = ch
	}
	return ch
}

// measured is the outcome of a phase.
type measured struct {
	results []gridResult // all grids, in operation order
	ops     int
	wall    time.Duration
	// busy is the wall time less the clients' pauses, per client.
	busy time.Duration
	rss  []float64 // peak resident MiB of each block
}

// run drives s with its closed-loop clients. Client goroutines take
// operation numbers in order from from, until limit operations were
// taken or, when limit is 0, until the phase's seconds have passed; a
// timed phase also records the peak resident memory of each block.
func (ph *phase) run(s sut, seconds float64, from, limit int) (measured, error) {
	m := measured{}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var (
		next    atomic.Int64
		paused  atomic.Int64
		mu      sync.Mutex
		byOp    = map[int][]gridResult{}
		rssErr  error
		stopMon = make(chan struct{})
		monDone = make(chan struct{})
	)
	go func() {
		defer close(monDone)
		if limit > 0 {
			return
		}
		tick := time.NewTicker(time.Duration(seconds / rssBlocks * float64(time.Second)))
		defer tick.Stop()
		for i := 0; i < rssBlocks-1; i++ {
			select {
			case <-tick.C:
			case <-stopMon:
				return
			}
			if rssErr = m.blockRSS(); rssErr != nil {
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < s.clients(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if (limit > 0 && k >= limit) || (limit == 0 && time.Now().After(deadline)) {
					return
				}
				if d := s.pause(from + k); d > 0 {
					time.Sleep(d)
					paused.Add(int64(d))
				}
				r := s.op(ph, from+k)
				mu.Lock()
				byOp[k] = r
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	m.wall = time.Since(start)
	m.busy = m.wall - time.Duration(paused.Load()/int64(s.clients()))
	close(stopMon)
	<-monDone
	if rssErr == nil && limit == 0 {
		rssErr = m.blockRSS()
	}
	m.ops = len(byOp)
	for k := 0; k < m.ops; k++ {
		m.results = append(m.results, byOp[k]...)
	}
	return m, rssErr
}

// blockRSS ends a block: it records the block's peak resident memory
// (VmHWM) and resets the peak for the next block.
func (m *measured) blockRSS() error {
	peak, err := peakRSS()
	if err != nil {
		return err
	}
	m.rss = append(m.rss, peak)
	return resetPeakRSS()
}

// peakRSS reads the process's peak resident set (VmHWM) in MiB.
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// resetPeakRSS resets VmHWM to the current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// failedLatency stands for a latency limit a failed grid missed.
const failedLatency = math.MaxFloat64

// summary gathers the samples of a set of grids.
type summary struct {
	attempted, failed, cells int
	grid, warm, artifact     []float64
	errs                     []string
}

func (s *summary) add(r gridResult) {
	s.attempted++
	lat := r.grid.Seconds()
	if r.err != nil {
		s.failed++
		lat = failedLatency
		if len(s.errs) < 5 {
			s.errs = append(s.errs, r.err.Error())
		}
	} else {
		s.cells += r.cells
	}
	if r.warm {
		s.warm = append(s.warm, lat)
	} else {
		s.grid = append(s.grid, lat)
	}
	for _, a := range r.artifacts {
		if r.err != nil {
			s.artifact = append(s.artifact, failedLatency)
		} else {
			s.artifact = append(s.artifact, a.Seconds())
		}
	}
}

func summarize(results []gridResult) summary {
	var s summary
	for _, r := range results {
		s.add(r)
	}
	return s
}

// endToEnd computes the end-to-end metrics of a phase over all of its
// grids: throughput over the phase's wall time less the clients' pauses,
// latency percentiles over every cold grid, and the median of the
// blocks' memory peaks.
func endToEnd(m measured, setups []float64) map[string]metric {
	s := summarize(m.results)
	return map[string]metric{
		"setup_s":         {quantile(setups, 0.5), "s"},
		"cells_per_s":     {float64(s.cells) / m.busy.Seconds(), "1/s"},
		"grid_p50_s":      {quantile(s.grid, 0.5), "s"},
		"grid_p75_s":      {quantile(s.grid, 0.75), "s"},
		"grid_p90_s":      {quantile(s.grid, 0.9), "s"},
		"warm_grid_p50_s": {quantile(s.warm, 0.5), "s"},
		"artifact_p50_s":  {quantile(s.artifact, 0.5), "s"},
		"artifact_p90_s":  {quantile(s.artifact, 0.9), "s"},
		"peak_rss_mib":    {quantile(m.rss, 0.5), "MiB"},
	}
}

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

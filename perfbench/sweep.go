package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gridseg"
	"gridseg/internal/batch"
	"gridseg/internal/fabric"
	"gridseg/internal/grid"
	"gridseg/internal/measure"
	"gridseg/internal/rng"
)

// sweepWorkers is the worker pool of every in-process RunGrid the
// benchmark makes, sized for a 2-core machine.
const sweepWorkers = 2

// sweepPool is how many sweep_heavy cases set-up references: two of
// each template per set-up round. The measured phase cycles through
// them, each pass on a fresh store directory, so every cold grid
// computes all of its cells.
const sweepPool = setupRounds * 2 * 3

// sweepTemplates are the cold and warm specs sweep_heavy rotates
// through, mid-to-large cells: Glauber at two horizons on the torus;
// Kawasaki and Move with vacancies, open boundaries and a taudist mix;
// and a vacancy grid whose lone n=1024 cell leaves one worker idle. The
// first two cost about the same, so the grid median sits inside one
// cluster of latencies, and the third sets the tail. Each warm spec is a
// subset of its cold spec.
var sweepTemplates = [][2]string{
	{"n=512 w=1,2 tau=0.40,0.46", "n=512 w=1 tau=0.40,0.46"},
	{"n=384 w=1 tau=0.42,0.46 dyn=kawasaki,move rho=0.1 boundary=open taudist=mix:0.40,0.48:0.5",
		"n=384 w=1 tau=0.42,0.46 dyn=kawasaki rho=0.1 boundary=open taudist=mix:0.40,0.48:0.5"},
	{"n=256,1024 w=1 tau=0.44 rho=0.05", "n=1024 w=1 tau=0.44 rho=0.05"},
}

func sweepCase(i int) (string, string) {
	t := sweepTemplates[i%len(sweepTemplates)]
	return t[0], t[1]
}

// sweepBench runs grids in-process the way `sweep -cache DIR -out DIR`
// does: RunGrid over a store.Dir, then grid.csv and grid.json written
// to files. Traced runs replace RunGrid with a mirror of it built from
// the public GridJobs, New, Run, measurement and AssembleGrid calls.
type sweepBench struct {
	cases *caseSet
	dir   string
	tr    *tracer
	store timedStore
}

func newSweep(cs *caseSet) sut { return &sweepBench{cases: cs} }

func (s *sweepBench) clients() int { return 1 }

func (s *sweepBench) start(dir string, tr *tracer) error {
	s.dir, s.tr = dir, tr
	return os.MkdirAll(dir, 0o755)
}

func (s *sweepBench) timeline(bool) {}

func (s *sweepBench) pause(int) time.Duration { return 0 }

func (s *sweepBench) stop() {}

// op runs case k mod sweepPool cold on the pass's store, then its warm
// subset over the same store, writing both grids' artifacts.
func (s *sweepBench) op(ph *phase, k int) []gridResult {
	if k%sweepPool == 0 {
		st, err := gridseg.OpenStore(filepath.Join(s.dir, fmt.Sprintf("pass%d", k/sweepPool)))
		if err != nil {
			return []gridResult{{c: s.cases.at(0), err: err}}
		}
		s.store = timedStore{inner: st, t: s.tr}
	}
	c := s.cases.at(k % sweepPool)
	return []gridResult{s.grid(c, false), s.grid(c, true)}
}

func (s *sweepBench) grid(c *gridCase, warm bool) gridResult {
	r := gridResult{c: c, warm: warm}
	sp := c.cold
	if warm {
		sp = c.warm
	}
	root := s.tr.begin("cycle", 0)
	defer s.tr.end(root, 0)
	t0 := time.Now()
	var res *gridseg.GridResult
	if s.tr == nil {
		res, r.err = gridseg.RunGrid(sp, gridseg.GridOptions{Seed: c.seed, Workers: sweepWorkers, Store: s.store.inner})
	} else {
		res, r.err = s.mirror(root, sp, c.seed)
	}
	r.grid = time.Since(t0)
	if r.err != nil {
		return r
	}
	r.cells = res.Len()
	if cs := res.Cache(); warm && cs.Misses != 0 {
		r.err = fmt.Errorf("warm grid %q recomputed %d cells", sp, cs.Misses)
		return r
	}
	for i, name := range []string{"grid.csv", "grid.json"} {
		t := time.Now()
		id := s.tr.begin("encode", root)
		var d [32]byte
		d, r.err = writeArtifact(filepath.Join(s.dir, name), res, i == 1)
		s.tr.end(id, 0)
		r.artifacts = append(r.artifacts, time.Since(t))
		if r.err != nil {
			return r
		}
		if i == 0 {
			r.csv = d
		} else {
			r.json = d
		}
	}
	return r
}

// writeArtifact writes one artifact file as cmd/sweep does and returns
// the digest of its bytes.
func writeArtifact(path string, res *gridseg.GridResult, asJSON bool) ([32]byte, error) {
	var b bytes.Buffer
	var err error
	if asJSON {
		err = res.WriteJSON(&b)
	} else {
		err = res.WriteCSV(&b)
	}
	if err != nil {
		return [32]byte{}, err
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b.Bytes()), nil
}

// mirror computes a grid as RunGrid would — store probe, then build,
// run and measure on a miss, then store fill — with a span around each
// layer call. Its artifacts are checked against RunGrid's.
func (s *sweepBench) mirror(parent int, sp string, seed uint64) (*gridseg.GridResult, error) {
	id := s.tr.begin("batch.jobs", parent)
	jobs, err := gridseg.GridJobs(sp, seed)
	s.tr.end(id, 0)
	if err != nil {
		return nil, err
	}
	values := make([][]float64, len(jobs))
	errs := make([]error, len(jobs))
	hits := make([]bool, len(jobs))
	workers := min(sweepWorkers, len(jobs))
	pool := s.tr.begin("batch.pool", parent)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				values[i], hits[i], errs[i] = s.cell(pool, jobs[i])
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	s.tr.end(pool, int64(workers))
	var cache gridseg.CacheStats
	for i, err := range errs {
		if err != nil {
			return nil, err
		}
		if hits[i] {
			cache.Hits++
		} else {
			cache.Misses++
		}
	}
	id = s.tr.begin("grid.assemble", parent)
	defer s.tr.end(id, 0)
	return gridseg.AssembleGrid(sp, values, cache)
}

// cell serves one job from the store or computes and stores it.
func (s *sweepBench) cell(parent int, j fabric.Job) ([]float64, bool, error) {
	id := s.tr.begin("cell", parent)
	defer s.tr.end(id, 0)
	if v, ok, err := s.store.get(id, j.Key); err == nil && ok && len(v) == len(j.Columns) {
		return v, true, nil
	}
	v, err := s.compute(id, j)
	if err != nil {
		return nil, false, err
	}
	if err := s.store.put(id, j.Key, v); err != nil {
		return nil, false, err
	}
	return v, false, nil
}

// compute mirrors gridseg.ComputeJob for the standard columns: the
// model seed is the first draw of the job's stream, the parallel engine
// is pinned to one strip, and the nine columns are measured in order.
func (s *sweepBench) compute(parent int, j fabric.Job) ([]float64, error) {
	if len(j.Columns) != 9 {
		return nil, fmt.Errorf("mirror supports the standard columns only, got %v", j.Columns)
	}
	c := j.Cell
	id := s.tr.begin("cell.new", parent)
	m, err := newModel(c, rng.New(j.Seed))
	s.tr.end(id, 0)
	if err != nil {
		return nil, err
	}
	id = s.tr.begin("cell.dynamics", parent)
	_, fixated := m.Run(0)
	s.tr.end(id, m.Flips())

	id = s.tr.begin("cell.measure", parent)
	defer s.tr.end(id, 0)
	st := m.SegregationStats()
	lat, ok := m.View().(*grid.Lattice)
	if !ok {
		return nil, fmt.Errorf("model view is %T, not *grid.Lattice", m.View())
	}
	meanM := measure.MeanMonoRegionSize(lat, measure.SamplePoints(c.N, 5))
	fix := 0.0
	if fixated {
		fix = 1
	}
	return []float64{
		st.HappyFraction, float64(st.UnhappyCount), st.InterfaceDensity,
		st.MeanSameFraction, st.LargestClusterFraction, st.Magnetization,
		meanM, float64(st.Flips), fix,
	}, nil
}

// newModel builds a cell's model exactly as the sweep runner does.
func newModel(c batch.Cell, src *rng.Source) (*gridseg.Model, error) {
	dyn := gridseg.Glauber
	switch c.Dynamic {
	case batch.Kawasaki:
		dyn = gridseg.Kawasaki
	case batch.Move:
		dyn = gridseg.Move
	}
	engine, err := gridseg.ParseEngine(c.Engine)
	if err != nil {
		return nil, err
	}
	boundary, err := gridseg.ParseBoundary(c.Boundary)
	if err != nil {
		return nil, err
	}
	return gridseg.New(gridseg.Config{
		N: c.N, W: c.W, Tau: c.Tau, P: c.P,
		Seed: src.Uint64(), Dynamic: dyn, Engine: engine,
		Boundary: boundary, Rho: c.Rho, TauDist: c.TauDist,
		Par: c.Par, ParStrips: 1,
	})
}

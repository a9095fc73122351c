package batch

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"gridseg/internal/rng"
	"gridseg/internal/store"
)

func TestGridCellsEnumeration(t *testing.T) {
	g := Grid{
		Ns:         []int{10, 20},
		Ws:         []int{1},
		Taus:       []float64{0.4, 0.5},
		Replicates: 3,
	}
	cells := g.Cells()
	if len(cells) != g.Size() || len(cells) != 12 {
		t.Fatalf("got %d cells, want 12", len(cells))
	}
	// Canonical order: replicates innermost, indices sequential.
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has index %d", i, c.Index)
		}
	}
	if cells[0].N != 10 || cells[0].Tau != 0.4 || cells[0].Rep != 0 {
		t.Fatalf("first cell %+v", cells[0])
	}
	if cells[2].Rep != 2 || cells[3].Tau != 0.5 || cells[3].Rep != 0 {
		t.Fatalf("replicates not innermost: %+v %+v", cells[2], cells[3])
	}
	// Defaults fill empty axes.
	if cells[0].P != 0.5 || cells[0].Dynamic != Glauber {
		t.Fatalf("defaults not applied: %+v", cells[0])
	}
}

func TestCellSeedDeterministic(t *testing.T) {
	c := Cell{N: 10, W: 1, Tau: 0.4, P: 0.5, Dynamic: Glauber}
	if CellSeed(7, "E5", c) != CellSeed(7, "E5", c) {
		t.Fatal("cell seed must be deterministic")
	}
	if CellSeed(7, "E5", c) == CellSeed(7, "E6", c) {
		t.Fatal("scopes must decorrelate streams")
	}
	if CellSeed(7, "E5", c) == CellSeed(8, "E5", c) {
		t.Fatal("root seeds must decorrelate streams")
	}
	rep1 := c
	rep1.Rep = 1
	if CellSeed(7, "E5", c) == CellSeed(7, "E5", rep1) {
		t.Fatal("replicates must decorrelate streams")
	}
	// The seed depends on the cell's identity, never its position in a
	// grid or its engine: that is what lets overlapping grids share
	// cached results.
	moved := c
	moved.Index = 99
	moved.Engine = "fast"
	if CellSeed(7, "E5", c) != CellSeed(7, "E5", moved) {
		t.Fatal("cell seed must ignore Index and Engine")
	}
}

// runGrid is the shared fixture: a small grid with a runner whose
// output depends only on the cell and its source.
func runGrid(t *testing.T, workers int) *ResultSet {
	t.Helper()
	g := Grid{
		Ns:         []int{8, 16},
		Ws:         []int{1, 2},
		Taus:       []float64{0.4, 0.45},
		Replicates: 4,
	}
	rs, err := Run(g, []string{"a", "b"}, func(c Cell, src *rng.Source) ([]float64, error) {
		return []float64{float64(c.N*c.W) * c.Tau, src.Float64()}, nil
	}, Options{Seed: 42, Scope: "test", Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestSchedulingIndependence(t *testing.T) {
	// The tentpole regression: Workers 1 and Workers 8 must produce
	// byte-identical serialized tables, CSV, and JSON.
	seq := runGrid(t, 1)
	par := runGrid(t, 8)
	if seq.Table("t").String() != par.Table("t").String() {
		t.Fatal("tables differ across worker counts")
	}
	var csv1, csv8, js1, js8 bytes.Buffer
	if err := seq.WriteCSV(&csv1); err != nil {
		t.Fatal(err)
	}
	if err := par.WriteCSV(&csv8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv1.Bytes(), csv8.Bytes()) {
		t.Fatal("CSV bytes differ across worker counts")
	}
	if err := seq.WriteJSON(&js1); err != nil {
		t.Fatal(err)
	}
	if err := par.WriteJSON(&js8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js1.Bytes(), js8.Bytes()) {
		t.Fatal("JSON bytes differ across worker counts")
	}
	if seq.SummaryTable("s").String() != par.SummaryTable("s").String() {
		t.Fatal("summary tables differ across worker counts")
	}
}

func TestGroupsAggregation(t *testing.T) {
	g := Grid{Taus: []float64{0.4, 0.5}, Replicates: 3}
	rs, err := Run(g, []string{"v"}, func(c Cell, src *rng.Source) ([]float64, error) {
		if c.Tau == 0.5 && c.Rep == 1 {
			return []float64{math.NaN()}, nil // missing sample
		}
		return []float64{c.Tau * float64(c.Rep+1)}, nil
	}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	groups := rs.Groups()
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
	// tau=0.4: samples 0.4, 0.8, 1.2 -> mean 0.8.
	if math.Abs(groups[0].Mean[0]-0.8) > 1e-12 || groups[0].Count[0] != 3 {
		t.Fatalf("group 0: mean=%v count=%v", groups[0].Mean[0], groups[0].Count[0])
	}
	// tau=0.5: NaN skipped, samples 0.5, 1.5 -> mean 1.0, count 2.
	if math.Abs(groups[1].Mean[0]-1.0) > 1e-12 || groups[1].Count[0] != 2 {
		t.Fatalf("group 1: mean=%v count=%v", groups[1].Mean[0], groups[1].Count[0])
	}
	col := groups[1].Column("v", rs.Columns)
	if len(col) != 2 {
		t.Fatalf("Column returned %v", col)
	}
	if got := groups[0].Column("missing", rs.Columns); got != nil {
		t.Fatalf("unknown column must return nil, got %v", got)
	}
}

// openDir opens a directory store, failing the test on error.
func openDir(t *testing.T, dir string) *store.Dir {
	t.Helper()
	d, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestCheckpointResume pins resume over the store, the one
// persistence scheme: an interrupted run keeps every cell it finished
// in the store, and rerunning it against the same directory computes
// only the remainder. A different seed addresses different keys, so
// it shares nothing with the stored run.
func TestCheckpointResume(t *testing.T) {
	dir := t.TempDir()

	// First run: abort partway by returning an error after some cells.
	g := Grid{Taus: []float64{0.4}, Replicates: 10}
	var calls int32
	_, err := Run(g, []string{"v"}, func(c Cell, src *rng.Source) ([]float64, error) {
		if atomic.AddInt32(&calls, 1) > 5 {
			return nil, os.ErrDeadlineExceeded
		}
		return []float64{float64(c.Index)}, nil
	}, Options{Seed: 1, Scope: "ck", Workers: 1, Store: openDir(t, dir)})
	if err == nil {
		t.Fatal("first run must fail")
	}

	// Second run, on a freshly opened store: the five completed cells
	// are served, not recomputed.
	var reruns []int
	rs, err := Run(g, []string{"v"}, func(c Cell, src *rng.Source) ([]float64, error) {
		reruns = append(reruns, c.Index)
		return []float64{float64(c.Index)}, nil
	}, Options{Seed: 1, Scope: "ck", Workers: 1, Store: openDir(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Cache.Hits != 5 || rs.Cache.Misses != 5 || len(reruns) != 5 {
		t.Fatalf("resume cache = %+v, recomputed %v; want 5 served and 5 computed", rs.Cache, reruns)
	}
	for i := 0; i < rs.Len(); i++ {
		c, vals := rs.At(i)
		if vals[0] != float64(c.Index) {
			t.Fatalf("cell %d has value %v", i, vals)
		}
	}

	other, err := Run(g, []string{"v"}, func(c Cell, src *rng.Source) ([]float64, error) {
		return []float64{0}, nil
	}, Options{Seed: 2, Scope: "ck", Store: openDir(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	if other.Cache.Hits != 0 {
		t.Fatalf("another seed was served %d stored cells", other.Cache.Hits)
	}
}

func TestNaNSurvivesCheckpointAndJSON(t *testing.T) {
	// NaN is the engine's missing-sample convention; it must survive
	// both a store-backed resume (the on-disk objects encode it as
	// null) and the JSON artifact, not abort the run.
	dir := t.TempDir()
	g := Grid{Replicates: 3}
	run := func() *ResultSet {
		rs, err := Run(g, []string{"v"}, func(c Cell, src *rng.Source) ([]float64, error) {
			if c.Rep == 1 {
				return []float64{math.NaN()}, nil
			}
			return []float64{float64(c.Rep)}, nil
		}, Options{Seed: 5, Scope: "nan", Store: openDir(t, dir)})
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	first := run()
	// Second run restores all cells from the store, including the NaN
	// one.
	second := run()
	if second.Cache.Hits != 3 {
		t.Fatalf("resume cache = %+v, want all 3 cells served", second.Cache)
	}
	for i := 0; i < first.Len(); i++ {
		_, a := first.At(i)
		_, b := second.At(i)
		if math.IsNaN(a[0]) != math.IsNaN(b[0]) || (!math.IsNaN(a[0]) && a[0] != b[0]) {
			t.Fatalf("cell %d: %v restored as %v", i, a, b)
		}
	}
	var js bytes.Buffer
	if err := first.WriteJSON(&js); err != nil {
		t.Fatalf("WriteJSON with NaN: %v", err)
	}
	if !bytes.Contains(js.Bytes(), []byte("null")) {
		t.Fatalf("NaN not encoded as null: %s", js.String())
	}
}

func TestRunStopsDispatchingAfterError(t *testing.T) {
	g := Grid{Replicates: 64}
	var calls int32
	_, err := Run(g, []string{"v"}, func(c Cell, src *rng.Source) ([]float64, error) {
		atomic.AddInt32(&calls, 1)
		return nil, os.ErrInvalid
	}, Options{Workers: 2})
	if err == nil {
		t.Fatal("want error")
	}
	// With 2 workers and an immediate failure, only a handful of cells
	// may have been dispatched before the feeder stopped.
	if n := atomic.LoadInt32(&calls); n > 8 {
		t.Fatalf("engine kept dispatching after failure: %d cells ran", n)
	}
}

func TestRunErrors(t *testing.T) {
	g := Grid{Replicates: 2}
	if _, err := Run(g, nil, func(c Cell, src *rng.Source) ([]float64, error) {
		return nil, nil
	}, Options{}); err == nil {
		t.Fatal("want error for empty columns")
	}
	if _, err := Run(g, []string{"a", "b"}, func(c Cell, src *rng.Source) ([]float64, error) {
		return []float64{1}, nil // wrong arity
	}, Options{}); err == nil {
		t.Fatal("want error for column arity mismatch")
	}
}

func TestParseGrid(t *testing.T) {
	g, err := ParseGrid("n=96,240 w=2:4 tau=0.40:0.48:0.02 p=0.5 dyn=glauber,kawasaki reps=8")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Ns, []int{96, 240}) {
		t.Fatalf("Ns = %v", g.Ns)
	}
	if !reflect.DeepEqual(g.Ws, []int{2, 3, 4}) {
		t.Fatalf("Ws = %v", g.Ws)
	}
	if len(g.Taus) != 5 || math.Abs(g.Taus[0]-0.40) > 1e-12 || math.Abs(g.Taus[4]-0.48) > 1e-12 {
		t.Fatalf("Taus = %v", g.Taus)
	}
	if !reflect.DeepEqual(g.Ps, []float64{0.5}) {
		t.Fatalf("Ps = %v", g.Ps)
	}
	if !reflect.DeepEqual(g.Dynamics, []string{Glauber, Kawasaki}) {
		t.Fatalf("Dynamics = %v", g.Dynamics)
	}
	if g.Replicates != 8 {
		t.Fatalf("Replicates = %d", g.Replicates)
	}
}

func TestParseGridErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus",                        // no '='
		"q=1",                          // unknown key
		"n=abc",                        // bad int
		"n=5:1",                        // descending range
		"tau=0.4:0.5",                  // float range without step
		"tau=1.5",                      // out of [0,1]
		"p=-0.1",                       // out of [0,1]
		"dyn=ising",                    // unknown dynamic
		"reps=0",                       // non-positive
		"n=1 n=2",                      // duplicate key
		"dyn=glauber dynamic=kawasaki", // duplicate via alias
		"w=1:5:0",                      // zero step
		"tau=0.4:0.3:0.05",             // descending float range
	} {
		if _, err := ParseGrid(spec); err == nil {
			t.Fatalf("spec %q must fail", spec)
		}
	}
}

func TestProgressAndTotals(t *testing.T) {
	g := Grid{Replicates: 6}
	var last int32
	rs, err := Run(g, []string{"v"}, func(c Cell, src *rng.Source) ([]float64, error) {
		return []float64{1}, nil
	}, Options{Workers: 3, Progress: func(done, total int, c Cell, cached bool) {
		if total != 6 {
			t.Errorf("total = %d", total)
		}
		if cached {
			t.Error("no cache attached, nothing can be cached")
		}
		atomic.StoreInt32(&last, int32(done))
	}})
	if err != nil {
		t.Fatal(err)
	}
	if last != 6 {
		t.Fatalf("final progress = %d", last)
	}
	if rs.Len() != 6 {
		t.Fatalf("len = %d", rs.Len())
	}
}

// TestStoreZeroRecompute is the caching contract: a second run of the
// same grid against the same store computes zero cells and produces
// byte-identical artifacts.
func TestStoreZeroRecompute(t *testing.T) {
	g := Grid{Ns: []int{8}, Ws: []int{1}, Taus: []float64{0.4, 0.45}, Replicates: 3}
	st := store.NewMemory()
	var computed int32
	run := func() *ResultSet {
		rs, err := Run(g, []string{"a", "b"}, func(c Cell, src *rng.Source) ([]float64, error) {
			atomic.AddInt32(&computed, 1)
			return []float64{float64(c.N) * c.Tau, src.Float64()}, nil
		}, Options{Seed: 11, Scope: "cache", Workers: 4, Store: st})
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	first := run()
	if first.Cache.Hits != 0 || first.Cache.Misses != 6 {
		t.Fatalf("first run cache = %+v", first.Cache)
	}
	atomic.StoreInt32(&computed, 0)
	second := run()
	if n := atomic.LoadInt32(&computed); n != 0 {
		t.Fatalf("second run recomputed %d cells", n)
	}
	if second.Cache.Hits != 6 || second.Cache.Misses != 0 {
		t.Fatalf("second run cache = %+v", second.Cache)
	}
	var a, b bytes.Buffer
	if err := first.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := second.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("cached run is not byte-identical")
	}
}

// TestStoreOverlappingGrids asserts that a grid overlapping a
// previously computed one only computes its new cells, and that the
// shared cells carry identical values — the content-addressed seeds
// make a cell's result independent of which grid computed it.
func TestStoreOverlappingGrids(t *testing.T) {
	st := store.NewMemory()
	cols := []string{"v"}
	var computed []string
	runner := func(c Cell, src *rng.Source) ([]float64, error) {
		computed = append(computed, c.GroupKey())
		return []float64{src.Float64()}, nil
	}
	opts := Options{Seed: 3, Scope: "overlap", Workers: 1, Store: st}

	a := Grid{Ns: []int{8}, Ws: []int{1}, Taus: []float64{0.40, 0.42}, Replicates: 2}
	ra, err := Run(a, cols, runner, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(computed) != 4 {
		t.Fatalf("first grid computed %d cells", len(computed))
	}

	computed = nil
	b := Grid{Ns: []int{8}, Ws: []int{1}, Taus: []float64{0.42, 0.44}, Replicates: 2}
	rb, err := Run(b, cols, runner, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range computed {
		if strings.Contains(k, "0.42") {
			t.Fatalf("overlapping cell recomputed: %s", k)
		}
	}
	if rb.Cache.Hits != 2 || rb.Cache.Misses != 2 {
		t.Fatalf("overlap cache = %+v", rb.Cache)
	}
	// The tau=0.42 cells must agree across the two grids, even though
	// their grid indices differ.
	val := func(rs *ResultSet, tau float64, rep int) float64 {
		for i, c := range rs.Grid.Cells() {
			if c.Tau == tau && c.Rep == rep {
				return rs.Values[i][0]
			}
		}
		t.Fatalf("cell tau=%v rep=%d not found", tau, rep)
		return 0
	}
	for rep := 0; rep < 2; rep++ {
		if val(ra, 0.42, rep) != val(rb, 0.42, rep) {
			t.Fatalf("shared cell (rep %d) differs across grids", rep)
		}
	}
}

// TestCheckpointFillsStore asserts the store is filled cell by cell,
// not at the end of the run: by the time a computed cell is reported,
// it and every cell before it are stored, which is what lets an
// interrupted run resume.
func TestCheckpointFillsStore(t *testing.T) {
	g := Grid{Replicates: 4}
	st := store.NewMemory()
	rs, err := Run(g, []string{"v"}, func(c Cell, src *rng.Source) ([]float64, error) {
		return []float64{float64(c.Rep)}, nil
	}, Options{Seed: 9, Scope: "fill", Workers: 1, Store: st,
		Progress: func(done, total int, c Cell, cached bool) {
			if st.Len() != done {
				t.Errorf("after %d of %d cells the store holds %d", done, total, st.Len())
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Cache.Hits != 0 || rs.Cache.Misses != 4 || st.Len() != 4 {
		t.Fatalf("cache = %+v, store holds %d cells; want 4 computed and stored", rs.Cache, st.Len())
	}
}

// failingStore errors on every operation after a threshold, standing
// in for a full disk mid-run.
type failingStore struct {
	inner *store.Memory
	puts  int32
	after int32
}

func (s *failingStore) Get(key string) ([]float64, bool, error) { return s.inner.Get(key) }

func (s *failingStore) Put(key string, values []float64) error {
	if atomic.AddInt32(&s.puts, 1) > s.after {
		return os.ErrClosed
	}
	return s.inner.Put(key, values)
}

// TestStoreFailureDegrades asserts a result-store failure never aborts
// a sweep: the store is a cache, so the run finishes by computing and
// reports the failure through Cache.Err.
func TestStoreFailureDegrades(t *testing.T) {
	g := Grid{Replicates: 6}
	st := &failingStore{inner: store.NewMemory(), after: 2}
	rs, err := Run(g, []string{"v"}, func(c Cell, src *rng.Source) ([]float64, error) {
		return []float64{float64(c.Rep)}, nil
	}, Options{Seed: 4, Scope: "degrade", Workers: 1, Store: st})
	if err != nil {
		t.Fatalf("store failure must not abort the run: %v", err)
	}
	if rs.Cache.Err == "" {
		t.Fatal("store failure must be reported via Cache.Err")
	}
	if rs.Cache.Misses != 6 {
		t.Fatalf("cache = %+v, want all 6 computed", rs.Cache)
	}
	for i := 0; i < rs.Len(); i++ {
		c, vals := rs.At(i)
		if vals[0] != float64(c.Rep) {
			t.Fatalf("cell %d has value %v", i, vals)
		}
	}
	// After the first failure the store is disabled: no further Puts.
	if n := atomic.LoadInt32(&st.puts); n != 3 {
		t.Fatalf("store saw %d puts, want 3 (2 ok + 1 failing)", n)
	}
}

package gridseg

import (
	"bytes"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"gridseg/internal/metrics"
)

// countingStore wraps a CellStore and counts Get hits and Puts, so the
// end-to-end tests can prove "zero recomputation" from the store's own
// point of view rather than trusting the reported stats.
type countingStore struct {
	inner CellStore
	hits  atomic.Int64
	puts  atomic.Int64
}

func (s *countingStore) Get(key string) ([]float64, bool, error) {
	v, ok, err := s.inner.Get(key)
	if ok {
		s.hits.Add(1)
	}
	return v, ok, err
}

func (s *countingStore) Put(key string, values []float64) error {
	s.puts.Add(1)
	return s.inner.Put(key, values)
}

// artifacts renders both artifact encodings of a sweep.
func artifacts(t *testing.T, r *GridResult) (csv, json []byte) {
	t.Helper()
	var cb, jb bytes.Buffer
	if err := r.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	return cb.Bytes(), jb.Bytes()
}

// TestRunGridStoreZeroRecompute is the acceptance test of the cached
// sweep service at the library layer (the exact path cmd/sweep -cache
// takes): resubmitting an identical grid against the same store
// recomputes zero cells and yields byte-identical CSV/JSON artifacts.
func TestRunGridStoreZeroRecompute(t *testing.T) {
	dir, err := OpenStore(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	st := &countingStore{inner: dir}
	const spec = "n=16,24 w=1 tau=0.4,0.45 reps=2"

	first, err := RunGrid(spec, GridOptions{Seed: 5, Workers: 4, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if cs := first.Cache(); cs.Hits != 0 || cs.Misses != first.Len() {
		t.Fatalf("first run cache = %+v", cs)
	}
	if got := st.puts.Load(); got != int64(first.Len()) {
		t.Fatalf("first run stored %d cells, want %d", got, first.Len())
	}
	csv1, json1 := artifacts(t, first)

	st.puts.Store(0)
	second, err := RunGrid(spec, GridOptions{Seed: 5, Workers: 2, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if cs := second.Cache(); cs.Hits != second.Len() || cs.Misses != 0 {
		t.Fatalf("resubmission cache = %+v", cs)
	}
	if got := st.puts.Load(); got != 0 {
		t.Fatalf("resubmission wrote %d cells to the store", got)
	}
	csv2, json2 := artifacts(t, second)
	if !bytes.Equal(csv1, csv2) || !bytes.Equal(json1, json2) {
		t.Fatal("resubmitted artifacts are not byte-identical")
	}
}

// TestRunGridStoreOverlap asserts an overlapping grid reuses every
// shared cell: only the genuinely new parameter points are computed,
// and the shared rows carry identical bytes in both grids' CSVs.
func TestRunGridStoreOverlap(t *testing.T) {
	st := NewMemoryStore()
	a, err := RunGrid("n=16 w=1 tau=0.40,0.42 reps=2", GridOptions{Seed: 5, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	csvA, _ := artifacts(t, a)

	b, err := RunGrid("n=16 w=1 tau=0.42,0.44 reps=2", GridOptions{Seed: 5, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if cs := b.Cache(); cs.Hits != 2 || cs.Misses != 2 {
		t.Fatalf("overlap cache = %+v (want 2 shared tau=0.42 cells cached)", cs)
	}
	csvB, _ := artifacts(t, b)

	// Every tau=0.42 row of grid A appears verbatim in grid B.
	shared := 0
	for _, line := range bytes.Split(csvA, []byte("\n")) {
		if bytes.Contains(line, []byte(",0.42,")) {
			if !bytes.Contains(csvB, line) {
				t.Fatalf("shared row missing from overlapping grid: %s", line)
			}
			shared++
		}
	}
	if shared != 2 {
		t.Fatalf("found %d shared rows, want 2", shared)
	}
}

// TestGridID pins the content-addressing of whole sweeps: equivalent
// specs share an ID, different specs or seeds do not.
func TestGridID(t *testing.T) {
	a, err := GridID("n=16 w=1 tau=0.4,0.45 reps=2", 5)
	if err != nil {
		t.Fatal(err)
	}
	// The same axes written differently (range vs list, reordered
	// fields) normalize to the same grid and the same ID.
	b, err := GridID("tau=0.4,0.45 w=1 n=16 replicates=2", 5)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("equivalent specs got distinct IDs %s / %s", a, b)
	}
	c, err := GridID("n=16 w=1 tau=0.4,0.45 reps=2", 6)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different seeds must get distinct IDs")
	}
	if _, err := GridID("nope", 1); err == nil {
		t.Fatal("malformed spec must fail")
	}
}

// damageObjects damages the store objects of cells a and b under the
// store directory root: a's no longer decodes, and b's is replaced by
// other's object, a valid object that holds another key.
func damageObjects(t *testing.T, root, a, b, other string) {
	t.Helper()
	path := func(key string) string { return filepath.Join(root, "objects", key[:2], key[2:]) }
	if err := os.WriteFile(path(a), []byte(`{"key":"`+a[:10]), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path(other))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path(b), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// corruptTotal reads gridseg_store_corrupt_total off the default
// registry.
func corruptTotal(t *testing.T) float64 {
	t.Helper()
	var buf bytes.Buffer
	metrics.Default().WritePrometheus(&buf)
	samples, err := metrics.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s := samples["gridseg_store_corrupt_total"]; len(s) == 1 {
		return s[0].Value
	}
	t.Fatal("gridseg_store_corrupt_total missing from the exposition")
	return 0
}

// TestRunGridHealsCorruptObjects pins store healing on the in-process
// path: a cached grid whose store holds an undecodable object and an
// object holding another key recomputes exactly those two cells,
// byte-identical to the first run, never disables the store, rewrites
// both objects, and counts them in gridseg_store_corrupt_total.
func TestRunGridHealsCorruptObjects(t *testing.T) {
	const spec, seed = "n=16 w=1 tau=0.4,0.45 reps=2", 3
	root := filepath.Join(t.TempDir(), "cache")
	st, err := OpenStore(root)
	if err != nil {
		t.Fatal(err)
	}
	first, err := RunGrid(spec, GridOptions{Seed: seed, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := GridJobs(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	damageObjects(t, root, jobs[0].Key, jobs[1].Key, jobs[2].Key)

	before := corruptTotal(t)
	second, err := RunGrid(spec, GridOptions{Seed: seed, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if c := second.Cache(); c.Hits != len(jobs)-2 || c.Misses != 2 || c.Err != "" {
		t.Fatalf("cache = %+v, want %d hits, the 2 damaged cells computed, no store error", c, len(jobs)-2)
	}
	wantCSV, wantJSON := artifacts(t, first)
	gotCSV, gotJSON := artifacts(t, second)
	if !bytes.Equal(gotCSV, wantCSV) || !bytes.Equal(gotJSON, wantJSON) {
		t.Fatal("artifacts over a damaged store differ from the first run")
	}
	for _, fj := range jobs[:2] {
		if v, ok, err := st.Get(fj.Key); err != nil || !ok || len(v) != len(fj.Columns) {
			t.Fatalf("cell %d not rewritten: %v, %v, %v", fj.Index, v, ok, err)
		}
	}
	if d := corruptTotal(t) - before; d != 2 {
		t.Fatalf("gridseg_store_corrupt_total advanced by %v, want 2", d)
	}
}

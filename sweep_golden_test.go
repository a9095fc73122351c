package gridseg

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"gridseg/internal/batch"
	"gridseg/internal/rng"
)

// -update regenerates the committed golden artifacts.
var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenSpec covers both flip/swap dynamics, two sizes, two horizons,
// two intolerances, and the scenario axes (both boundaries, with and
// without vacancies); 128 cells total. The goldens pin the full
// determinism contract: spec + seed fixes every byte of the CSV/JSON
// artifacts, for any worker count, with or without checkpoint-resume,
// on any engine — and, because default-scenario cell seeds are
// identity-stable, the default cells' metric values are pinned across
// the scenario subsystem's introduction.
const goldenSpec = "n=24,32 w=1,2 tau=0.42,0.45 dyn=glauber,kawasaki boundary=torus,open rho=0,0.05 reps=2"

const goldenSeed = 7

// goldenRun executes the golden grid and renders both artifacts.
func goldenRun(t *testing.T, opt GridOptions) (csv, json []byte) {
	t.Helper()
	r, err := RunGrid(goldenSpec, opt)
	if err != nil {
		t.Fatal(err)
	}
	var cb, jb bytes.Buffer
	if err := r.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	return cb.Bytes(), jb.Bytes()
}

// golden reads (or, with -update, writes) a golden file.
func golden(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with go test -run TestRunGridGolden -update): %v", err)
	}
	return want
}

// TestRunGridGolden asserts the CSV and JSON artifacts are byte-equal
// to the committed goldens for worker counts 1, 4, and 8.
func TestRunGridGolden(t *testing.T) {
	csv1, json1 := goldenRun(t, GridOptions{Seed: goldenSeed, Workers: 1})
	if want := golden(t, "grid_golden.csv", csv1); !bytes.Equal(csv1, want) {
		t.Error("workers=1 CSV differs from golden")
	}
	if want := golden(t, "grid_golden.json", json1); !bytes.Equal(json1, want) {
		t.Error("workers=1 JSON differs from golden")
	}
	for _, workers := range []int{4, 8} {
		csvN, jsonN := goldenRun(t, GridOptions{Seed: goldenSeed, Workers: workers})
		if !bytes.Equal(csvN, csv1) {
			t.Errorf("workers=%d CSV differs from workers=1", workers)
		}
		if !bytes.Equal(jsonN, json1) {
			t.Errorf("workers=%d JSON differs from workers=1", workers)
		}
	}
}

// TestRunGridGoldenAcrossEngines asserts the artifacts are identical
// under explicit reference and fast engine selection — the engine is
// invisible in every output byte.
func TestRunGridGoldenAcrossEngines(t *testing.T) {
	csvRef, jsonRef := goldenRun(t, GridOptions{Seed: goldenSeed, Workers: 4, Engine: EngineReference})
	csvFast, jsonFast := goldenRun(t, GridOptions{Seed: goldenSeed, Workers: 4, Engine: EngineFast})
	if !bytes.Equal(csvRef, golden(t, "grid_golden.csv", csvRef)) {
		t.Error("reference-engine CSV differs from golden")
	}
	if !bytes.Equal(csvFast, csvRef) || !bytes.Equal(jsonFast, jsonRef) {
		t.Error("artifacts differ between reference and fast engines")
	}
}

// TestRunGridGoldenParallelEngine asserts the parallel engine keeps
// the sweep determinism contract: in a sweep it runs on one strip,
// which the engine table resolves to the fast engine, so its artifacts
// are byte-equal to the committed goldens — hence to every sequential
// engine — for sweep-worker counts 1, 4, and 8 and for any
// engine-worker count, whether selected through GridOptions or through
// the spec's engine=/parallel= keys.
func TestRunGridGoldenParallelEngine(t *testing.T) {
	csv1, json1 := goldenRun(t, GridOptions{Seed: goldenSeed, Workers: 1, Engine: EngineParallel})
	if !bytes.Equal(csv1, golden(t, "grid_golden.csv", csv1)) {
		t.Error("parallel-engine CSV differs from golden")
	}
	if !bytes.Equal(json1, golden(t, "grid_golden.json", json1)) {
		t.Error("parallel-engine JSON differs from golden")
	}
	for _, workers := range []int{4, 8} {
		csvN, jsonN := goldenRun(t, GridOptions{Seed: goldenSeed, Workers: workers, Engine: EngineParallel})
		if !bytes.Equal(csvN, csv1) || !bytes.Equal(jsonN, json1) {
			t.Errorf("parallel engine: workers=%d artifacts differ from workers=1", workers)
		}
	}
	// The spec-level selection with an explicit engine worker count must
	// produce the same bytes: the worker count is an execution detail.
	r, err := RunGrid(goldenSpec+" engine=parallel parallel=8", GridOptions{Seed: goldenSeed, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var cb, jb bytes.Buffer
	if err := r.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cb.Bytes(), csv1) || !bytes.Equal(jb.Bytes(), json1) {
		t.Error("spec-level engine=parallel parallel=8 artifacts differ from GridOptions selection")
	}
}

// TestRunGridMoveAcrossEngines asserts a relocation-dynamic sweep —
// which until PR 6 silently degraded an explicit fast request to the
// reference engine — produces byte-identical artifacts under explicit
// reference and fast selection, across both boundaries, vacancy
// fractions, and a heterogeneous intolerance field.
func TestRunGridMoveAcrossEngines(t *testing.T) {
	const moveSpec = "n=24,32 w=1,2 tau=0.42,0.45 dyn=move boundary=torus,open rho=0.05,0.2 taudist=global|mix:0.35,0.45:0.5 reps=2"
	run := func(engine Engine) (csv, json []byte) {
		t.Helper()
		r, err := RunGrid(moveSpec, GridOptions{Seed: goldenSeed, Workers: 4, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		var cb, jb bytes.Buffer
		if err := r.WriteCSV(&cb); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteJSON(&jb); err != nil {
			t.Fatal(err)
		}
		return cb.Bytes(), jb.Bytes()
	}
	csvRef, jsonRef := run(EngineReference)
	csvFast, jsonFast := run(EngineFast)
	if !bytes.Equal(csvFast, csvRef) || !bytes.Equal(jsonFast, jsonRef) {
		t.Error("move-sweep artifacts differ between reference and fast engines")
	}
}

// TestRunGridGoldenCheckpointResume interrupts the golden grid partway
// (a runner that fails after 10 cells, flushing a partial checkpoint),
// then resumes through RunGrid and asserts the artifacts still match
// the goldens byte for byte.
func TestRunGridGoldenCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.ck.json")
	g, err := batch.ParseGrid(goldenSpec)
	if err != nil {
		t.Fatal(err)
	}
	g.Engine = EngineAuto.String() // mirror RunGrid's engine resolution
	var done atomic.Int64
	failing := func(c batch.Cell, src *rng.Source) ([]float64, error) {
		if done.Add(1) > 10 {
			return nil, errors.New("synthetic interruption")
		}
		return sweepCell(c, src)
	}
	_, err = batch.Run(g, sweepColumns, failing, batch.Options{
		Seed: goldenSeed, Scope: "grid", Workers: 1, CheckpointPath: path,
	})
	if err == nil {
		t.Fatal("interrupted run must report the failure")
	}

	csv, json := goldenRun(t, GridOptions{Seed: goldenSeed, Workers: 4, CheckpointPath: path})
	if !bytes.Equal(csv, golden(t, "grid_golden.csv", csv)) {
		t.Error("resumed CSV differs from golden")
	}
	if !bytes.Equal(json, golden(t, "grid_golden.json", json)) {
		t.Error("resumed JSON differs from golden")
	}
}

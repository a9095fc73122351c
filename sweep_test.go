package gridseg

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"gridseg/internal/grid"
)

const testSpec = "n=24 w=1,2 tau=0.4,0.45 reps=2"

func runTestGrid(t *testing.T, workers int, st CellStore) *GridResult {
	t.Helper()
	var last int
	r, err := RunGrid(testSpec, GridOptions{
		Seed:     3,
		Workers:  workers,
		Store:    st,
		Progress: func(done, total int) { last = done },
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 8 {
		t.Fatalf("len = %d, want 8", r.Len())
	}
	if last != 8 {
		t.Fatalf("final progress = %d", last)
	}
	return r
}

func TestRunGridSchedulingIndependence(t *testing.T) {
	seq := runTestGrid(t, 1, nil)
	par := runTestGrid(t, 8, nil)
	var a, b bytes.Buffer
	if err := seq.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := par.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("grid CSV differs across worker counts")
	}
	if seq.Text() != par.Text() {
		t.Fatal("grid summary differs across worker counts")
	}
	var js bytes.Buffer
	if err := seq.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), "happy_frac") {
		t.Fatal("JSON missing metric columns")
	}
}

// TestRunGridCheckpointResume reruns a sweep against its store
// directory opened afresh, as a restarted process would: every cell is
// served from disk and the result is reproduced byte for byte.
func TestRunGridCheckpointResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	open := func() CellStore {
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	first := runTestGrid(t, 2, open())
	second := runTestGrid(t, 2, open())
	if cs := second.Cache(); cs.Hits != 8 || cs.Misses != 0 {
		t.Fatalf("resumed cache = %+v, want all 8 cells served", cs)
	}
	var a, b bytes.Buffer
	if err := first.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := second.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("store resume changed results")
	}
}

func TestRunGridErrors(t *testing.T) {
	if _, err := RunGrid("tau=0.9:0.1:0.1", GridOptions{}); err == nil {
		t.Fatal("want parse error for descending range")
	}
	if _, err := RunGrid("n=24 w=2", GridOptions{}); err == nil {
		t.Fatal("want error for underspecified grid (no tau)")
	}
	if _, err := RunGrid("n=2 w=1 tau=0.45", GridOptions{}); err == nil {
		t.Fatal("want model error for n < 3")
	}
}

// TestRunGridGeometryColumns checks the geom=true schema: same grid,
// same seed, two extra columns whose first nine values are
// byte-identical to the plain sweep's, a distinct GridID, and CSV
// headers carrying the geometry columns.
func TestRunGridGeometryColumns(t *testing.T) {
	plain := runTestGrid(t, 4, nil)
	geo, err := RunGrid(testSpec+" geom=true", GridOptions{Seed: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var pb, gb bytes.Buffer
	if err := plain.WriteCSV(&pb); err != nil {
		t.Fatal(err)
	}
	if err := geo.WriteCSV(&gb); err != nil {
		t.Fatal(err)
	}
	pLines := strings.Split(strings.TrimSpace(pb.String()), "\n")
	gLines := strings.Split(strings.TrimSpace(gb.String()), "\n")
	if len(pLines) != len(gLines) {
		t.Fatalf("row counts differ: %d vs %d", len(pLines), len(gLines))
	}
	if !strings.Contains(gLines[0], "iface_length") || !strings.Contains(gLines[0], "curvature") {
		t.Fatalf("geometry header missing columns: %q", gLines[0])
	}
	if strings.Contains(pLines[0], "iface_length") {
		t.Fatalf("plain header gained geometry columns: %q", pLines[0])
	}
	// Every geometry row must extend the corresponding plain row: the
	// trajectories are identical, only the schema grows.
	for i := range pLines {
		if !strings.HasPrefix(gLines[i], strings.TrimSuffix(pLines[i], "\n")+",") {
			t.Fatalf("row %d: geometry row %q does not extend plain row %q", i, gLines[i], pLines[i])
		}
	}
	idPlain, err := GridID(testSpec, 3)
	if err != nil {
		t.Fatal(err)
	}
	idGeo, err := GridID(testSpec+" geom=true", 3)
	if err != nil {
		t.Fatal(err)
	}
	if idPlain == idGeo {
		t.Fatal("geometry sweep shares the plain sweep's GridID")
	}
}

// TestComputeJobLiveTap checks the live-snapshot tap of a job: samples
// arrive with decodable frames and a final sample per computed cell,
// the Active gate suppresses non-final measurement, and — the
// byte-stability contract — the tapped jobs assemble to the artifacts
// of an untapped RunGrid.
func TestComputeJobLiveTap(t *testing.T) {
	jobs, err := GridJobs(testSpec, 3)
	if err != nil {
		t.Fatal(err)
	}
	var samples []LiveSample
	tap := &LiveTap{Every: 16, Sample: func(s LiveSample) { samples = append(samples, s) }}
	values := make([][]float64, len(jobs))
	for _, j := range jobs {
		if values[j.Index], err = ComputeJobLive(j, tap); err != nil {
			t.Fatal(err)
		}
	}
	r, err := AssembleGrid(testSpec, values, CacheStats{})
	if err != nil {
		t.Fatal(err)
	}
	var tapped bytes.Buffer
	if err := r.WriteCSV(&tapped); err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer
	if err := runTestGrid(t, 4, nil).WriteCSV(&plain); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tapped.Bytes(), plain.Bytes()) {
		t.Fatal("snapshot tap changed sweep artifacts")
	}
	finals := 0
	for _, s := range samples {
		if s.Final {
			finals++
		}
		if len(s.Frame) == 0 {
			t.Fatal("sample without frame")
		}
		lat, err := grid.UnmarshalBinary(s.Frame)
		if err != nil {
			t.Fatalf("frame does not decode: %v", err)
		}
		if lat.N() != s.Cell.N {
			t.Fatalf("frame n = %d, cell n = %d", lat.N(), s.Cell.N)
		}
	}
	if finals != 8 {
		t.Fatalf("final samples = %d, want one per cell (8)", finals)
	}
	if len(samples) <= finals {
		t.Fatal("no intermediate samples at a 16-flip interval")
	}

	// An inactive tap still delivers exactly the final samples.
	var gated []LiveSample
	tap = &LiveTap{
		Every:  16,
		Active: func() bool { return false },
		Sample: func(s LiveSample) { gated = append(gated, s) },
	}
	for _, j := range jobs {
		if _, err := ComputeJobLive(j, tap); err != nil {
			t.Fatal(err)
		}
	}
	if len(gated) != 8 {
		t.Fatalf("gated samples = %d, want 8 finals only", len(gated))
	}
	for _, s := range gated {
		if !s.Final {
			t.Fatal("gated tap delivered a non-final sample")
		}
	}
}

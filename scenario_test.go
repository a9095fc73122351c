package gridseg

import (
	"errors"
	"strings"
	"testing"

	"gridseg/internal/batch"
	"gridseg/internal/grid"
)

// TestScenarioSeedStability pins the facade's seed-compatibility
// contract: a default-scenario model built through the scenario-aware
// constructor replays exactly the trajectory of the pre-scenario code
// (the fields just default), for both engines.
func TestScenarioSeedStability(t *testing.T) {
	base := Config{N: 48, W: 2, Tau: 0.42, Seed: 99}
	withDefaults := base
	withDefaults.Boundary = BoundaryTorus
	withDefaults.TauDist = "global"
	for _, engine := range []Engine{EngineReference, EngineFast} {
		a, b := base, withDefaults
		a.Engine, b.Engine = engine, engine
		ma, err := New(a)
		if err != nil {
			t.Fatal(err)
		}
		mb, err := New(b)
		if err != nil {
			t.Fatal(err)
		}
		ma.Run(0)
		mb.Run(0)
		if ma.String() != mb.String() || ma.Flips() != mb.Flips() {
			t.Fatalf("engine %v: explicit scenario defaults changed the trajectory", engine)
		}
	}
}

// TestScenarioModel exercises each scenario axis through the facade.
func TestScenarioModel(t *testing.T) {
	open, err := New(Config{N: 32, W: 2, Tau: 0.42, Seed: 1, Boundary: BoundaryOpen})
	if err != nil {
		t.Fatal(err)
	}
	if _, fixated := open.Run(0); !fixated {
		t.Error("open-boundary Glauber did not fixate")
	}
	st := open.SegregationStats()
	if st.HappyFraction != 1 {
		t.Errorf("open-boundary fixation happy fraction = %v, want 1 (tau < 1/2)", st.HappyFraction)
	}

	vac, err := New(Config{N: 32, W: 2, Tau: 0.42, Seed: 2, Rho: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(vac.Scenario(), "rho=0.1") {
		t.Errorf("scenario = %q", vac.Scenario())
	}
	vac.Run(0)
	if !strings.Contains(vac.String(), ".") {
		t.Error("vacancy model renders no vacancies")
	}
	if !strings.Contains(vac.ASCII(), " ") {
		t.Error("vacancy ASCII renders no blanks")
	}

	het, err := New(Config{N: 32, W: 2, Tau: 0.42, Seed: 3, TauDist: "mix:0.35,0.45:0.5"})
	if err != nil {
		t.Fatal(err)
	}
	if _, fixated := het.Run(0); !fixated {
		t.Error("heterogeneous-tau model did not fixate")
	}
}

// TestScenarioMoveModel drives the relocation dynamic end to end
// through the facade and checks conservation.
func TestScenarioMoveModel(t *testing.T) {
	m, err := New(Config{N: 32, W: 2, Tau: 0.42, Seed: 4, Rho: 0.15, Dynamic: Move})
	if err != nil {
		t.Fatal(err)
	}
	before := m.SegregationStats().Magnetization
	if _, terminal := m.Run(0); !terminal && m.Flips() == 0 {
		t.Error("move model neither moved nor terminated")
	}
	after := m.SegregationStats().Magnetization
	if before != after {
		t.Errorf("move dynamic drifted magnetization: %v -> %v", before, after)
	}
}

// TestScenarioRejections pins the facade validation: bad scenarios and
// move without vacancies fail loudly, while each scenario axis and all
// three dynamics are accepted on an explicit fast request. Which kind
// each (dynamic, engine, horizon) request resolves to is pinned by the
// engine table's own test (internal/dynamics/engines).
func TestScenarioRejections(t *testing.T) {
	cases := []Config{
		{N: 32, W: 2, Tau: 0.42, Rho: 1},
		{N: 32, W: 2, Tau: 0.42, Rho: -0.1},
		{N: 32, W: 2, Tau: 0.42, TauDist: "gauss:0:1"},
		{N: 32, W: 2, Tau: 0.42, Dynamic: Move},
	}
	for _, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted, want error", cfg)
		}
	}
	// Scenario axes now run on the fast engine, including explicitly.
	for _, cfg := range []Config{
		{N: 32, W: 2, Tau: 0.42, Boundary: BoundaryOpen, Engine: EngineFast},
		{N: 32, W: 2, Tau: 0.42, Rho: 0.1, Engine: EngineFast},
		{N: 32, W: 2, Tau: 0.42, TauDist: "mix:0.35,0.45:0.5", Engine: EngineFast},
		{N: 32, W: 2, Tau: 0.42, Rho: 0.1, Dynamic: Kawasaki, Engine: EngineFast},
		{N: 32, W: 2, Tau: 0.42, Rho: 0.1, Dynamic: Move, Engine: EngineFast},
	} {
		if _, err := New(cfg); err != nil {
			t.Errorf("scenario fast config %+v rejected: %v", cfg, err)
		}
	}
}

// TestValidateGridSpecWindow pins the typed-error path through the
// public spec validator: a horizon too large for its lattice is
// rejected with grid.ErrWindowTooLarge at validation time.
func TestValidateGridSpecWindow(t *testing.T) {
	_, err := ValidateGridSpec("n=5 w=3 tau=0.42")
	if !errors.Is(err, grid.ErrWindowTooLarge) {
		t.Fatalf("err = %v, want grid.ErrWindowTooLarge", err)
	}
	if cells, err := ValidateGridSpec("n=16 w=2 tau=0.42 boundary=open rho=0.05"); err != nil || cells != 1 {
		t.Fatalf("valid scenario spec: cells=%d err=%v", cells, err)
	}
}

// TestRunGridScenarioAxes runs a small scenario sweep end to end and
// checks the artifact gains the scenario columns while remaining
// deterministic across worker counts.
func TestRunGridScenarioAxes(t *testing.T) {
	const spec = "n=16 w=1 tau=0.42 boundary=torus,open rho=0,0.1 reps=2"
	run := func(workers int) (string, string) {
		r, err := RunGrid(spec, GridOptions{Seed: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var csv, js strings.Builder
		if err := r.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return csv.String(), js.String()
	}
	csv1, js1 := run(1)
	csv4, js4 := run(4)
	if csv1 != csv4 || js1 != js4 {
		t.Fatal("scenario sweep depends on worker count")
	}
	if !strings.Contains(csv1, "boundary,rho,taudist") {
		t.Errorf("scenario columns missing from CSV header: %.120s", csv1)
	}
	if !strings.Contains(js1, `"boundary": "open"`) {
		t.Error("scenario fields missing from JSON artifact")
	}
	// A default sweep keeps the pre-scenario artifact shape.
	r, err := RunGrid("n=16 w=1 tau=0.42 reps=1", GridOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	if err := r.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(csv.String(), "boundary") {
		t.Error("default sweep grew scenario columns")
	}
}

// TestCellStoreScenarioIsolation guards the cache-key contract at the
// sweep level: the same classic parameters under different scenarios
// must occupy distinct store slots.
func TestCellStoreScenarioIsolation(t *testing.T) {
	st := NewMemoryStore()
	if _, err := RunGrid("n=16 w=1 tau=0.42 reps=1", GridOptions{Seed: 5, Store: st}); err != nil {
		t.Fatal(err)
	}
	r, err := RunGrid("n=16 w=1 tau=0.42 boundary=open reps=1", GridOptions{Seed: 5, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if c := r.Cache(); c.Hits != 0 || c.Misses != 1 {
		t.Fatalf("open-boundary cell aliased the torus slot: %+v", c)
	}
	// Same scenario again: now a pure cache hit.
	r, err = RunGrid("n=16 w=1 tau=0.42 boundary=open reps=1", GridOptions{Seed: 5, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if c := r.Cache(); c.Hits != 1 || c.Misses != 0 {
		t.Fatalf("identical scenario cell missed the cache: %+v", c)
	}
}

// TestSweepCellMoveDynamic runs the move dynamic through the batch
// runner used by RunGrid.
func TestSweepCellMoveDynamic(t *testing.T) {
	r, err := RunGrid("n=16 w=1 tau=0.42 dyn=move rho=0.1 reps=2", GridOptions{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("cells = %d", r.Len())
	}
	var csv strings.Builder
	if err := r.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "move") {
		t.Error("move rows missing from artifact")
	}
}

// TestBatchMoveLabel keeps the facade and batch dynamic labels in sync.
func TestBatchMoveLabel(t *testing.T) {
	if batch.Move != "move" {
		t.Fatalf("batch.Move = %q", batch.Move)
	}
}

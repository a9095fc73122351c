package gridseg

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"gridseg/internal/batch"
	"gridseg/internal/measure"
	"gridseg/internal/rng"
	"gridseg/internal/store"
)

// CellStore is the content-addressed result cache consulted and
// filled by grid sweeps. Keys are canonical hashes of the full cell
// spec (parameters, metric columns, derived seed, schema version — see
// internal/store), so a cached cell is valid for any grid that
// contains it: resubmitting an identical or overlapping grid
// recomputes nothing. Implementations must be safe for concurrent use.
//
// Use OpenStore for the durable file-backed store shared by cmd/sweep
// -cache and cmd/segd, or NewMemoryStore for an in-process cache.
type CellStore interface {
	Get(key string) ([]float64, bool, error)
	Put(key string, values []float64) error
}

// OpenStore opens (creating it if needed) the file-backed
// content-addressed result store rooted at dir.
func OpenStore(dir string) (CellStore, error) {
	s, err := store.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("gridseg: %w", err)
	}
	return s, nil
}

// NewMemoryStore returns an in-process CellStore, useful for tests and
// for servers that do not need persistence.
func NewMemoryStore() CellStore { return store.NewMemory() }

// CacheStats counts how the cells of a sweep were satisfied.
type CacheStats struct {
	// Hits is the number of cells served from the result store
	// without recomputation.
	Hits int
	// Misses is the number of cells computed this run.
	Misses int
	// Err is the first result-store failure, if any. The store is only
	// a cache: on failure the sweep finishes by computing, and the
	// affected cells are simply not cached.
	Err string
}

// CellProgress describes one completed cell for progress reporting.
type CellProgress struct {
	Done, Total int
	Dynamic     string
	N, W        int
	Tau, P      float64
	// Scenario coordinates of the cell: boundary condition, vacancy
	// fraction, and per-site intolerance distribution (canonical
	// labels; "torus"/0/"global" on default cells).
	Boundary string
	Rho      float64
	TauDist  string
	Extra    float64
	Rep      int
	// Cached reports whether the cell was served from the result
	// store instead of being computed.
	Cached bool
	// Worker names the worker process that computed the cell; empty
	// unless a cluster coordinator ran the sweep.
	Worker string
}

// GridOptions configures a parameter-grid sweep.
type GridOptions struct {
	// Seed determines all randomness; identical (spec, seed) pairs
	// replay identically, for any worker count.
	Seed uint64
	// Workers bounds the sweep worker pool; 0 means GOMAXPROCS.
	Workers int
	// Engine selects the engine implementation when the grid
	// spec has no engine= key (EngineAuto picks the fast bit-packed
	// engine whenever it applies). Never changes results, only speed.
	Engine Engine
	// Store, when non-nil, is the shared content-addressed result
	// cache: cells already in the store are served without
	// recomputation, and each computed cell is written back as it
	// completes. Because cell seeds derive from cell identity,
	// overlapping grids share cells, and rerunning an interrupted sweep
	// against the same store resumes it. Engines are bit-identical, so
	// a cell cached under one engine serves any other.
	Store CellStore
	// Progress, when non-nil, is invoked after each completed cell.
	Progress func(done, total int)
}

// LiveTap taps the trajectory of one computed cell (ComputeJobLive):
// every Every flips, and once at the cell's end, Sample receives a
// LiveSample of the live configuration. The tap never draws from the
// cell's random stream, so the cell's values are identical with or
// without it. Sample runs on the computing goroutine: a stalled
// consumer stalls the cell.
type LiveTap struct {
	// Every is the flip interval between samples; values < 1 mean
	// DefaultSnapshotEvery.
	Every int64
	// Active, when non-nil, is consulted before measuring each
	// non-final sample: returning false skips the measurement and the
	// frame encoding entirely, so an unwatched cell pays almost nothing
	// for the tap. Final samples are always delivered.
	Active func() bool
	// Sample receives each sample.
	Sample func(LiveSample)
}

// DefaultSnapshotEvery is the live-sample flip interval used when
// LiveTap.Every is unset.
const DefaultSnapshotEvery = 2048

// LiveSample is one live snapshot of a running sweep cell: the cell's
// identity, the instantaneous observables, and the configuration
// encoded in the binary grid codec (grid.UnmarshalBinary decodes it).
type LiveSample struct {
	// Cell identifies the sampled cell. Done and Total are zero: the
	// cell has not completed, and a tapped job knows nothing of its grid.
	Cell CellProgress
	// Flips is the trajectory clock at the sample (effective flips for
	// Glauber, twice the swaps for Kawasaki, moves for Move).
	Flips int64
	// Phi is the paper's Lyapunov function at the sample.
	Phi int64
	// Observables of the sampled configuration (scenario-aware, like
	// SegregationStats).
	UnhappyCount     int
	HappyFraction    float64
	InterfaceDensity float64
	InterfaceLength  float64
	Curvature        float64
	LargestFraction  float64
	// Frame is the lattice snapshot in the binary grid codec; nil if
	// encoding failed (never expected).
	Frame []byte
	// Final marks the cell's terminal sample, taken at fixation or
	// budget exhaustion.
	Final bool
}

// GridResult holds the per-replicate metrics of a completed sweep.
type GridResult struct {
	rs *batch.ResultSet
}

// sweepColumns is the metric vector measured at fixation for every
// cell of a grid sweep.
var sweepColumns = []string{
	"happy_frac", "unhappy", "iface_density", "mean_same_frac",
	"largest_frac", "magnetization", "mean_M", "flips", "fixated",
}

// geomColumns is the opt-in geometry schema (grid key geom=true): the
// standard columns plus the interface-geometry observables of
// internal/measure. Kept strictly additive and opt-in so default
// artifacts, store keys, and goldens stay byte-identical.
var geomColumns = append(append([]string{}, sweepColumns...),
	"iface_length", "curvature")

// columnsFor returns the metric schema of a parsed grid. The column
// list is part of every cell's store key and of the grid fingerprint,
// so geometry sweeps get distinct cache entries and grid IDs without
// any schema-version bump.
func columnsFor(g batch.Grid) []string {
	if g.Geometry {
		return geomColumns
	}
	return sweepColumns
}

// parseGridSpec is the single structural gatekeeper for sweep specs:
// the batch syntax plus RunGrid's requirement that the n, w, and tau
// axes are set. RunGrid, ValidateGridSpec, and (through them) the
// HTTP service all validate through here, so the rules cannot drift.
func parseGridSpec(spec string) (batch.Grid, error) {
	g, err := batch.ParseGrid(spec)
	if err != nil {
		return batch.Grid{}, fmt.Errorf("gridseg: %w", err)
	}
	if len(g.Ns) == 0 || len(g.Ws) == 0 || len(g.Taus) == 0 {
		return batch.Grid{}, fmt.Errorf("gridseg: grid spec %q must set n, w, and tau", spec)
	}
	return g, nil
}

// ValidateGridSpec checks a sweep spec exactly as RunGrid would and
// returns the number of cells in the expanded grid. The HTTP service
// uses it to reject invalid submissions synchronously.
func ValidateGridSpec(spec string) (cells int, err error) {
	g, err := parseGridSpec(spec)
	if err != nil {
		return 0, err
	}
	return g.Size(), nil
}

// RunGrid parses a -grid spec (see internal/batch.ParseGrid; e.g.
// "n=96,240 w=2:4 tau=0.40:0.48:0.02 reps=8") and runs every cell of
// the expanded grid to fixation on the batch engine, measuring the
// standard segregation observables. Results are byte-identical for
// any Workers setting.
func RunGrid(spec string, opt GridOptions) (*GridResult, error) {
	g, err := parseGridSpec(spec)
	if err != nil {
		return nil, err
	}
	if g.Engine == "" {
		g.Engine = opt.Engine.String()
	}
	bopt := batch.Options{
		Seed:    opt.Seed,
		Scope:   gridScope,
		Workers: opt.Workers,
		Store:   opt.Store,
	}
	if opt.Progress != nil {
		bopt.Progress = func(done, total int, _ batch.Cell, _ bool) { opt.Progress(done, total) }
	}
	runner := func(c batch.Cell, src *rng.Source) ([]float64, error) {
		return runCell(c, src, g.Geometry, nil)
	}
	rs, err := batch.Run(g, columnsFor(g), runner, bopt)
	if err != nil {
		return nil, fmt.Errorf("gridseg: %w", err)
	}
	return &GridResult{rs: rs}, nil
}

// gridScope namespaces the random streams of RunGrid cells. It is
// shared by every client of the result store (cmd/sweep -cache, the
// cmd/segd service), so they all address the same cached cells.
const gridScope = "grid"

// GridID returns the content-addressed identity of a (spec, seed)
// sweep: a stable hex digest of the normalized grid, the seed, and the
// measured columns. Identical or equivalent specs (same axes, however
// written) map to the same ID; the HTTP service uses it to name grid
// runs so resubmissions attach to the existing run.
func GridID(spec string, seed uint64) (string, error) {
	g, err := batch.ParseGrid(spec)
	if err != nil {
		return "", fmt.Errorf("gridseg: %w", err)
	}
	h := sha256.Sum256([]byte(g.Fingerprint(seed, gridScope, columnsFor(g))))
	return hex.EncodeToString(h[:8]), nil
}

// buildSweepModel constructs the model of one grid cell exactly as the
// canonical runner always has: the cell seed drawn first from the
// cell's source, the parallel engine pinned to one strip.
func buildSweepModel(c batch.Cell, src *rng.Source) (*Model, error) {
	dyn := Glauber
	switch c.Dynamic {
	case batch.Kawasaki:
		dyn = Kawasaki
	case batch.Move:
		dyn = Move
	}
	engine, err := ParseEngine(c.Engine)
	if err != nil {
		return nil, err
	}
	boundary, err := ParseBoundary(c.Boundary)
	if err != nil {
		return nil, err
	}
	return New(Config{
		N: c.N, W: c.W, Tau: c.Tau, P: c.P,
		Seed: src.Uint64(), Dynamic: dyn, Engine: engine,
		Boundary: boundary, Rho: c.Rho, TauDist: c.TauDist,
		// Sweeps pin the parallel engine to one strip, which the engine
		// table resolves to the fast engine, so the engine label
		// stays an execution detail and cached cells and goldens remain
		// valid across engines. Multi-strip decomposition
		// is reserved for single giant runs (cmd/segsim, cmd/bench).
		Par: c.Par, ParStrips: 1,
	})
}

// measureSweepCell measures a finished cell in the standard column
// order, appending the geometry columns when the grid opted in. A pure
// read of the final configuration: never touches the random stream.
func measureSweepCell(m *Model, c batch.Cell, fixated, geometry bool) []float64 {
	p := measure.Pack(m.lat)
	st := m.stats(p)
	meanM := p.MeanMonoRegionSize(measure.SamplePoints(c.N, 5))
	p.Release()
	fix := 0.0
	if fixated {
		fix = 1
	}
	values := []float64{
		st.HappyFraction, float64(st.UnhappyCount), st.InterfaceDensity,
		st.MeanSameFraction, st.LargestClusterFraction, st.Magnetization,
		meanM, float64(st.Flips), fix,
	}
	if geometry {
		open := c.Boundary == batch.BoundaryOpen
		values = append(values,
			measure.InterfaceLengthView(m.View(), open),
			measure.BoundaryCurvatureView(m.View(), open))
	}
	return values
}

// runCell runs one grid cell to fixation and measures it, appending
// the geometry columns when the grid opted in: the one cell body of
// RunGrid and ComputeJob. A non-nil tap streams live samples of the
// trajectory; RunSampled is bit-identical to Run, so the tap never
// changes the values, and the first nine columns of a geometry sweep
// equal the plain sweep's.
func runCell(c batch.Cell, src *rng.Source, geometry bool, tap *LiveTap) ([]float64, error) {
	m, err := buildSweepModel(c, src)
	if err != nil {
		return nil, err
	}
	var fixated bool
	if tap != nil {
		every := tap.Every
		if every < 1 {
			every = DefaultSnapshotEvery
		}
		_, fixated = m.RunSampled(0, every, func(final bool) {
			if !final && tap.Active != nil && !tap.Active() {
				return
			}
			tap.Sample(takeLiveSample(m, c, final))
		})
	} else {
		_, fixated = m.Run(0)
	}
	metricFlips.Add(uint64(m.Flips()))
	return measureSweepCell(m, c, fixated, geometry), nil
}

// takeLiveSample measures the model's live state into a LiveSample. A
// pure read: the trajectory and its random stream are untouched.
func takeLiveSample(m *Model, c batch.Cell, final bool) LiveSample {
	st := m.SegregationStats()
	open := c.Boundary == batch.BoundaryOpen
	frame, _ := m.MarshalConfiguration()
	return LiveSample{
		Cell: CellProgress{
			Dynamic: c.Dynamic, N: c.N, W: c.W,
			Tau: c.Tau, P: c.P,
			Boundary: c.Boundary, Rho: c.Rho, TauDist: c.TauDist,
			Extra: c.Extra, Rep: c.Rep,
		},
		Flips:            m.Flips(),
		Phi:              m.Phi(),
		UnhappyCount:     st.UnhappyCount,
		HappyFraction:    st.HappyFraction,
		InterfaceDensity: st.InterfaceDensity,
		InterfaceLength:  measure.InterfaceLengthView(m.View(), open),
		Curvature:        measure.BoundaryCurvatureView(m.View(), open),
		LargestFraction:  st.LargestClusterFraction,
		Frame:            frame,
		Final:            final,
	}
}

// Len returns the number of cells (parameter combinations times
// replicates) in the sweep.
func (r *GridResult) Len() int { return r.rs.Len() }

// Cache reports how many cells were served from the result store
// versus computed this run. Caching never changes the
// result bytes.
func (r *GridResult) Cache() CacheStats {
	return CacheStats{Hits: r.rs.Cache.Hits, Misses: r.rs.Cache.Misses, Err: r.rs.Cache.Err}
}

// Text renders the aggregated sweep (one row per parameter
// combination, metrics averaged over replicates) as an aligned table.
func (r *GridResult) Text() string {
	return r.rs.SummaryTable("Grid sweep (replicate means)").String()
}

// WriteCSV streams the full per-replicate result table as CSV.
func (r *GridResult) WriteCSV(w io.Writer) error { return r.rs.WriteCSV(w) }

// WriteJSON emits the full per-replicate results as one JSON document.
func (r *GridResult) WriteJSON(w io.Writer) error { return r.rs.WriteJSON(w) }

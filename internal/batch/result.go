package batch

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"gridseg/internal/report"
	"gridseg/internal/store"
)

// CacheStats counts how the cells of a run were satisfied.
type CacheStats struct {
	// Hits is the number of cells served from the content-addressed
	// result store without recomputation.
	Hits int
	// Misses is the number of cells computed by the runner this run.
	Misses int
	// Err is the first result-store failure encountered, if any. The
	// store is only a cache, so the engine disables it and finishes
	// the run by computing instead of aborting; callers should surface
	// the message (the affected cells were simply not cached).
	Err string
}

// ResultSet holds the metric vectors of a completed run, indexed by
// cell in canonical grid order. The cells themselves are not kept: they
// are a pure function of Grid, so a render derives them once
// (Grid.Cells) and At decodes one (Grid.Cell), and a retained result
// costs only its values.
type ResultSet struct {
	Grid    Grid
	Columns []string
	Values  [][]float64
	// Cache reports how many cells were served from a cache versus
	// computed. It never affects the result bytes.
	Cache CacheStats
}

// Len returns the number of cells.
func (rs *ResultSet) Len() int { return len(rs.Values) }

// At returns cell i and its metric vector.
func (rs *ResultSet) At(i int) (Cell, []float64) { return rs.Grid.Cell(i), rs.Values[i] }

// Group aggregates the replicates of one parameter combination.
type Group struct {
	// Cell is the representative cell (replicate 0) of the group.
	Cell Cell
	// Values holds the raw metric vectors of the replicates in
	// replicate order.
	Values [][]float64
	// Count is the number of non-NaN samples per column.
	Count []int
	// Mean and Std are per-column moments over the non-NaN samples;
	// NaN when no sample exists (Std also NaN for a single sample).
	Mean []float64
	Std  []float64
}

// Column returns the non-NaN samples of the named column.
func (g Group) Column(name string, columns []string) []float64 {
	for ci, c := range columns {
		if c != name {
			continue
		}
		var out []float64
		for _, vals := range g.Values {
			if !math.IsNaN(vals[ci]) {
				out = append(out, vals[ci])
			}
		}
		return out
	}
	return nil
}

// Groups folds the replicates of each parameter combination, in
// canonical grid order.
func (rs *ResultSet) Groups() []Group {
	var out []Group
	var cur *Group
	key := ""
	for i, c := range rs.Grid.Cells() {
		if cur == nil || c.GroupKey() != key {
			out = append(out, Group{Cell: c})
			cur = &out[len(out)-1]
			key = c.GroupKey()
		}
		cur.Values = append(cur.Values, rs.Values[i])
	}
	for gi := range out {
		g := &out[gi]
		nc := len(rs.Columns)
		g.Count = make([]int, nc)
		g.Mean = make([]float64, nc)
		g.Std = make([]float64, nc)
		for ci := 0; ci < nc; ci++ {
			var sum float64
			for _, vals := range g.Values {
				if vals == nil || math.IsNaN(vals[ci]) {
					continue
				}
				sum += vals[ci]
				g.Count[ci]++
			}
			if g.Count[ci] == 0 {
				g.Mean[ci] = math.NaN()
				g.Std[ci] = math.NaN()
				continue
			}
			mean := sum / float64(g.Count[ci])
			g.Mean[ci] = mean
			if g.Count[ci] < 2 {
				g.Std[ci] = math.NaN()
				continue
			}
			var ss float64
			for _, vals := range g.Values {
				if vals == nil || math.IsNaN(vals[ci]) {
					continue
				}
				d := vals[ci] - mean
				ss += d * d
			}
			g.Std[ci] = math.Sqrt(ss / float64(g.Count[ci]-1))
		}
	}
	return out
}

// sweepsScenario reports whether any scenario axis of the (normalized)
// grid deviates from the paper's defaults. Scenario columns appear in
// tables and artifacts only then, so default sweeps keep their
// pre-scenario shapes.
func (g Grid) sweepsScenario() bool {
	n := g.normalized()
	if len(n.Boundaries) > 1 || n.Boundaries[0] != BoundaryTorus {
		return true
	}
	if len(n.Rhos) > 1 || n.Rhos[0] != 0 {
		return true
	}
	return len(n.TauDists) > 1 || n.TauDists[0] != TauDistGlobal
}

// paramColumns returns the header of the parameter part of a row.
func (rs *ResultSet) paramColumns() []string {
	cols := []string{"dynamic", "n", "w", "tau", "p"}
	if rs.Grid.sweepsScenario() {
		cols = append(cols, "boundary", "rho", "taudist")
	}
	if rs.Grid.ExtraName != "" {
		cols = append(cols, rs.Grid.ExtraName)
	}
	return append(cols, "rep")
}

// paramCells renders the parameter part of the row for a cell.
func (rs *ResultSet) paramCells(c Cell) []string {
	cells := []string{
		c.Dynamic,
		strconv.Itoa(c.N),
		strconv.Itoa(c.W),
		fullFloat(c.Tau),
		fullFloat(c.P),
	}
	if rs.Grid.sweepsScenario() {
		cells = append(cells, c.Boundary, fullFloat(c.Rho), c.TauDist)
	}
	if rs.Grid.ExtraName != "" {
		cells = append(cells, fullFloat(c.Extra))
	}
	return append(cells, strconv.Itoa(c.Rep))
}

// fullFloat renders a float at full precision ('g', shortest exact).
func fullFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Table renders every cell as one row (parameters then metrics).
func (rs *ResultSet) Table(title string) *report.Table {
	t := report.NewTable(title, append(rs.paramColumns(), rs.Columns...)...)
	for i, c := range rs.Grid.Cells() {
		row := rs.paramCells(c)
		for _, v := range rs.Values[i] {
			row = append(row, fullFloat(v))
		}
		t.AddRow(row...)
	}
	return t
}

// WriteCSV streams the full per-replicate result table as CSV. The
// bytes depend only on (grid, seed, scope, runner), never on worker
// count or scheduling.
func (rs *ResultSet) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(append(rs.paramColumns(), rs.Columns...)); err != nil {
		return fmt.Errorf("batch: %w", err)
	}
	for i, c := range rs.Grid.Cells() {
		row := rs.paramCells(c)
		for _, v := range rs.Values[i] {
			row = append(row, fullFloat(v))
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("batch: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("batch: %w", err)
	}
	return nil
}

// jsonResult is the JSON shape of one cell result. The scenario
// fields are populated only for grids that sweep a scenario axis
// (like the CSV columns), so default sweeps keep their pre-scenario
// shape.
type jsonResult struct {
	Index    int              `json:"index"`
	Dynamic  string           `json:"dynamic"`
	N        int              `json:"n"`
	W        int              `json:"w"`
	Tau      float64          `json:"tau"`
	P        float64          `json:"p"`
	Boundary string           `json:"boundary,omitempty"`
	Rho      *float64         `json:"rho,omitempty"`
	TauDist  string           `json:"taudist,omitempty"`
	Extra    float64          `json:"extra,omitempty"`
	Rep      int              `json:"rep"`
	Values   []store.NaNFloat `json:"values"`
}

// WriteJSON emits the result set as a single JSON document with the
// column header and one record per cell.
func (rs *ResultSet) WriteJSON(w io.Writer) error {
	doc := struct {
		ExtraName string       `json:"extra_name,omitempty"`
		Columns   []string     `json:"columns"`
		Results   []jsonResult `json:"results"`
	}{ExtraName: rs.Grid.ExtraName, Columns: rs.Columns}
	scenario := rs.Grid.sweepsScenario()
	for i, c := range rs.Grid.Cells() {
		jr := jsonResult{
			Index: c.Index, Dynamic: c.Dynamic, N: c.N, W: c.W,
			Tau: c.Tau, P: c.P, Extra: c.Extra, Rep: c.Rep,
			Values: store.NaNFloats(rs.Values[i]),
		}
		if scenario {
			rho := c.Rho
			jr.Boundary, jr.Rho, jr.TauDist = c.Boundary, &rho, c.TauDist
		}
		doc.Results = append(doc.Results, jr)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("batch: %w", err)
	}
	return nil
}

// SummaryTable renders one row per parameter combination with the
// per-column mean over replicates (NaN samples skipped).
func (rs *ResultSet) SummaryTable(title string) *report.Table {
	scenario := rs.Grid.sweepsScenario()
	cols := []string{"dynamic", "n", "w", "tau", "p"}
	if scenario {
		cols = append(cols, "boundary", "rho", "taudist")
	}
	if rs.Grid.ExtraName != "" {
		cols = append(cols, rs.Grid.ExtraName)
	}
	cols = append(cols, "replicates")
	for _, c := range rs.Columns {
		cols = append(cols, "mean "+c)
	}
	t := report.NewTable(title, cols...)
	for _, g := range rs.Groups() {
		row := []string{
			g.Cell.Dynamic,
			strconv.Itoa(g.Cell.N),
			strconv.Itoa(g.Cell.W),
			fullFloat(g.Cell.Tau),
			fullFloat(g.Cell.P),
		}
		if scenario {
			row = append(row, g.Cell.Boundary, fullFloat(g.Cell.Rho), g.Cell.TauDist)
		}
		if rs.Grid.ExtraName != "" {
			row = append(row, fullFloat(g.Cell.Extra))
		}
		row = append(row, strconv.Itoa(len(g.Values)))
		for _, m := range g.Mean {
			row = append(row, fullFloat(m))
		}
		t.AddRow(row...)
	}
	return t
}

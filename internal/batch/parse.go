package batch

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"gridseg/internal/dynamics/engines"
	"gridseg/internal/grid"
	"gridseg/internal/topology"
)

// MaxAxisValues bounds the expansion of a single grid axis, so a
// malformed or hostile range spec ("n=1:1000000000") fails with an
// error instead of exhausting memory.
const MaxAxisValues = 1 << 20

// ParseGrid parses the -grid flag syntax into a Grid. The spec is a
// whitespace-separated list of key=value fields:
//
//	n=96,240 w=2:4 tau=0.40:0.48:0.02 p=0.5 dyn=glauber,kawasaki reps=8
//	n=64 w=2 tau=0.42 boundary=torus,open rho=0:0.2:0.05 taudist=global|mix:0.35,0.45:0.5
//
// Values are comma-separated lists whose elements are either single
// numbers or inclusive ranges lo:hi[:step] (step defaults to 1 and
// must be positive). Keys: n, w (ints), tau, p (floats in [0,1]),
// dyn (glauber|kawasaki|move), reps (single int), engine (one label
// of internal/dynamics/engines, single value — engines never change
// results), parallel (single int: the parallel engine's worker count,
// an execution detail like the engine itself),
// plus the scenario axes boundary (torus|open), rho (floats in
// [0,1)), and taudist ('|'-separated distribution specs — global,
// mix:a,b:w, uniform:lo:hi — since the specs themselves contain
// commas and colons), and geom (single bool: opt the grid into the
// interface-geometry columns; not a sweep axis). ParseGrid never panics: malformed specs,
// non-finite floats, ranges expanding beyond MaxAxisValues,
// neighborhoods larger than their lattice (grid.ErrWindowTooLarge),
// and move cells without vacancies all return errors.
func ParseGrid(spec string) (Grid, error) {
	var g Grid
	seen := map[string]bool{}
	for _, field := range strings.Fields(spec) {
		key, value, ok := strings.Cut(field, "=")
		if !ok {
			return Grid{}, fmt.Errorf("batch: malformed grid field %q (want key=value)", field)
		}
		key = strings.ToLower(key)
		// Fold aliases before the duplicate check so "dyn=... dynamic=..."
		// is rejected like "dyn=... dyn=..." instead of silently
		// overwriting.
		switch key {
		case "dynamic":
			key = "dyn"
		case "replicates":
			key = "reps"
		}
		if seen[key] {
			return Grid{}, fmt.Errorf("batch: duplicate grid key %q", key)
		}
		seen[key] = true
		var err error
		switch key {
		case "n":
			g.Ns, err = parseInts(value)
		case "w":
			g.Ws, err = parseInts(value)
		case "tau":
			g.Taus, err = parseFloats(value)
		case "p":
			g.Ps, err = parseFloats(value)
		case "dyn":
			g.Dynamics, err = parseDynamics(value)
		case "reps":
			g.Replicates, err = strconv.Atoi(value)
			if err == nil && g.Replicates <= 0 {
				err = fmt.Errorf("must be positive")
			}
			if err == nil && g.Replicates > MaxAxisValues {
				err = fmt.Errorf("more than %d replicates", MaxAxisValues)
			}
		case "engine":
			var kind engines.Kind
			kind, err = engines.Parse(strings.ToLower(value))
			g.Engine = kind.String()
		case "parallel":
			g.Par, err = strconv.Atoi(value)
			if err == nil && g.Par < 0 {
				err = fmt.Errorf("must be >= 0 (0 means one worker per CPU)")
			}
		case "boundary":
			g.Boundaries, err = parseBoundaries(value)
		case "rho":
			g.Rhos, err = parseFloats(value)
		case "taudist":
			g.TauDists, err = parseTauDists(value)
		case "geom":
			g.Geometry, err = strconv.ParseBool(value)
			if err != nil {
				err = fmt.Errorf("bad bool %q", value)
			}
		default:
			return Grid{}, fmt.Errorf("batch: unknown grid key %q (want n, w, tau, p, dyn, reps, engine, parallel, boundary, rho, taudist, geom)", key)
		}
		if err != nil {
			return Grid{}, fmt.Errorf("batch: grid field %q: %w", field, err)
		}
	}
	for _, tau := range g.Taus {
		if !(tau >= 0 && tau <= 1) {
			return Grid{}, fmt.Errorf("batch: tau=%v out of [0, 1]", tau)
		}
	}
	for _, p := range g.Ps {
		if !(p >= 0 && p <= 1) {
			return Grid{}, fmt.Errorf("batch: p=%v out of [0, 1]", p)
		}
	}
	for _, rho := range g.Rhos {
		if !(rho >= 0 && rho < 1) {
			return Grid{}, fmt.Errorf("batch: rho=%v out of [0, 1)", rho)
		}
	}
	// Every (n, w) combination of the product must fit: a horizon whose
	// window wraps onto the torus is rejected here, with the typed
	// error, instead of panicking mid-sweep. All pairs fit iff the
	// extreme pair does, so the check is O(|Ns|+|Ws|) — a hostile spec
	// with two maximal axes cannot stall the parser.
	if len(g.Ns) > 0 && len(g.Ws) > 0 {
		minN, maxW := g.Ns[0], g.Ws[0]
		for _, n := range g.Ns {
			if n < minN {
				minN = n
			}
		}
		for _, w := range g.Ws {
			if w > maxW {
				maxW = w
			}
		}
		if 2*maxW+1 > minN {
			return Grid{}, fmt.Errorf("batch: n=%d w=%d: %w", minN, maxW, grid.ErrWindowTooLarge)
		}
	}
	// The move dynamic relocates agents into vacant sites; a grid that
	// sweeps it must give every cell some vacancies.
	for _, dyn := range g.Dynamics {
		if dyn != Move {
			continue
		}
		if len(g.Rhos) == 0 {
			return Grid{}, fmt.Errorf("batch: dyn=move requires a positive rho axis (vacant sites to move into)")
		}
		for _, rho := range g.Rhos {
			if rho <= 0 {
				return Grid{}, fmt.Errorf("batch: dyn=move requires rho > 0 in every cell (got rho=%v)", rho)
			}
		}
	}
	if cells := g.boundedSize(); cells > MaxGridCells {
		return Grid{}, fmt.Errorf("batch: grid expands to %d cells (max %d)", cells, MaxGridCells)
	}
	return g, nil
}

// MaxGridCells bounds the total expansion of a parsed grid.
const MaxGridCells = 1 << 24

// boundedSize returns the cell count of the expanded grid, saturating
// above MaxGridCells instead of overflowing.
func (g Grid) boundedSize() uint64 {
	n := g.normalized()
	prod := uint64(1)
	for _, f := range []int{len(n.Dynamics), len(n.Ns), len(n.Ws), len(n.Taus), len(n.Ps), len(n.Extras), n.Replicates} {
		prod *= uint64(f)
		if prod > MaxGridCells {
			return prod
		}
	}
	return prod
}

// parseInts parses a comma list of ints and lo:hi[:step] ranges.
func parseInts(value string) ([]int, error) {
	var out []int
	for _, item := range strings.Split(value, ",") {
		parts := strings.Split(item, ":")
		switch len(parts) {
		case 1:
			v, err := strconv.Atoi(parts[0])
			if err != nil {
				return nil, fmt.Errorf("bad int %q", parts[0])
			}
			out = append(out, v)
		case 2, 3:
			lo, err1 := strconv.Atoi(parts[0])
			hi, err2 := strconv.Atoi(parts[1])
			step := 1
			var err3 error
			if len(parts) == 3 {
				step, err3 = strconv.Atoi(parts[2])
			}
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("bad range %q", item)
			}
			if step <= 0 || hi < lo {
				return nil, fmt.Errorf("bad range %q (want lo<=hi, step>0)", item)
			}
			// Count values first (in uint64: hi-lo may overflow int)
			// so a huge range fails instead of exhausting memory, then
			// enumerate by index, which cannot overflow or hang. The
			// quotient is compared before adding 1: for the full int
			// range the count itself would wrap to 0.
			span := uint64(hi) - uint64(lo)
			if span/uint64(step) >= MaxAxisValues {
				return nil, fmt.Errorf("range %q expands to more than %d values", item, MaxAxisValues)
			}
			count := int(span/uint64(step)) + 1
			for i := 0; i < count; i++ {
				out = append(out, lo+i*step)
			}
		default:
			return nil, fmt.Errorf("bad range %q", item)
		}
		if len(out) > MaxAxisValues {
			return nil, fmt.Errorf("axis expands to more than %d values", MaxAxisValues)
		}
	}
	return out, nil
}

// parseFloats parses a comma list of floats and lo:hi:step ranges
// (the step is required for float ranges; endpoints are included up
// to a half-step tolerance against rounding drift).
func parseFloats(value string) ([]float64, error) {
	var out []float64
	for _, item := range strings.Split(value, ",") {
		parts := strings.Split(item, ":")
		switch len(parts) {
		case 1:
			v, err := strconv.ParseFloat(parts[0], 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("bad float %q", parts[0])
			}
			out = append(out, v)
		case 3:
			lo, err1 := strconv.ParseFloat(parts[0], 64)
			hi, err2 := strconv.ParseFloat(parts[1], 64)
			step, err3 := strconv.ParseFloat(parts[2], 64)
			if err1 != nil || err2 != nil || err3 != nil ||
				math.IsNaN(lo) || math.IsInf(lo, 0) ||
				math.IsNaN(hi) || math.IsInf(hi, 0) ||
				math.IsNaN(step) || math.IsInf(step, 0) {
				return nil, fmt.Errorf("bad range %q", item)
			}
			if step <= 0 || hi < lo {
				return nil, fmt.Errorf("bad range %q (want lo<=hi, step>0)", item)
			}
			// Bound the expansion before converting the (possibly
			// enormous) ratio to an int, then enumerate by index to
			// avoid accumulating rounding error, snapping each value
			// to 12 decimals so 0.42 + 2*0.02 reads as 0.46, not
			// 0.45999999999999996.
			if (hi-lo)/step > MaxAxisValues {
				return nil, fmt.Errorf("range %q expands to more than %d values", item, MaxAxisValues)
			}
			steps := int(math.Floor((hi-lo)/step + 0.5))
			// The tolerance only absorbs floating-point drift: the
			// range stays inclusive of hi but never oversteps it
			// (0.40:0.48:0.03 ends at 0.46, not 0.49).
			for i := 0; i <= steps; i++ {
				v := math.Round((lo+float64(i)*step)*1e12) / 1e12
				if v > hi+step*1e-9 {
					break
				}
				out = append(out, v)
			}
		case 2:
			return nil, fmt.Errorf("float range %q needs an explicit step (lo:hi:step)", item)
		default:
			return nil, fmt.Errorf("bad range %q", item)
		}
		if len(out) > MaxAxisValues {
			return nil, fmt.Errorf("axis expands to more than %d values", MaxAxisValues)
		}
	}
	return out, nil
}

// parseDynamics parses the dyn= list.
func parseDynamics(value string) ([]string, error) {
	var out []string
	for _, item := range strings.Split(value, ",") {
		switch strings.ToLower(item) {
		case Glauber:
			out = append(out, Glauber)
		case Kawasaki:
			out = append(out, Kawasaki)
		case Move:
			out = append(out, Move)
		default:
			return nil, fmt.Errorf("unknown dynamic %q (want glauber, kawasaki, or move)", item)
		}
	}
	return out, nil
}

// parseBoundaries parses the boundary= list through the topology
// vocabulary, storing canonical labels.
func parseBoundaries(value string) ([]string, error) {
	var out []string
	for _, item := range strings.Split(value, ",") {
		b, err := topology.ParseBoundary(item)
		if err != nil {
			return nil, fmt.Errorf("unknown boundary %q (want torus or open)", item)
		}
		out = append(out, b.String())
	}
	return out, nil
}

// parseTauDists parses the taudist= list. Distribution specs contain
// commas and colons, so list elements are separated by '|':
// taudist=global|mix:0.35,0.45:0.5. Specs are validated and stored in
// canonical form, so equivalent spellings share cell identities.
func parseTauDists(value string) ([]string, error) {
	var out []string
	for _, item := range strings.Split(value, "|") {
		d, err := topology.ParseTauDist(item)
		if err != nil {
			return nil, err
		}
		out = append(out, d.String())
	}
	return out, nil
}

// Package grid implements the n x n torus lattice of two-type agents
// that is the state space of the model: spins valued +1/-1, Bernoulli(p)
// initial configurations, efficient neighborhood counting (separable
// sliding-window sums for the extended Moore neighborhood of radius w),
// and wrap-aware two-dimensional prefix sums for O(1) rectangle queries
// used by the measurement and renormalization packages.
package grid

import (
	"errors"
	"fmt"
	"strings"

	"gridseg/internal/geom"
	"gridseg/internal/rng"
	"gridseg/internal/scratch"
)

// Spin is the type of an agent: +1 or -1 (the paper's two agent
// types), or None (0) for a vacant site in vacancy scenarios.
type Spin int8

// The two agent types, plus the vacancy marker.
const (
	Plus  Spin = 1
	Minus Spin = -1
	// None marks a vacant site: no agent lives there. Vacancies only
	// appear in scenarios with a positive vacancy fraction; the paper's
	// lattices are fully occupied.
	None Spin = 0
)

// Opposite returns the other spin (None maps to itself).
func (s Spin) Opposite() Spin { return -s }

// Occupied reports whether the spin is an agent (not a vacancy).
func (s Spin) Occupied() bool { return s != None }

// String returns "+", "-", or "." for a vacancy.
func (s Spin) String() string {
	switch s {
	case Plus:
		return "+"
	case Minus:
		return "-"
	}
	return "."
}

// Lattice is an n x n torus of spins. The zero value is not usable;
// construct with New, Random or Parse.
type Lattice struct {
	tor   geom.Torus
	n     int
	spins []Spin
}

// New returns a lattice of side n with every agent of the given spin.
func New(n int, fill Spin) *Lattice {
	l := &Lattice{tor: geom.NewTorus(n), n: n, spins: make([]Spin, n*n)}
	for i := range l.spins {
		l.spins[i] = fill
	}
	return l
}

// Random returns a lattice whose agents are independently Plus with
// probability p and Minus otherwise — the paper's initial configuration
// (Bernoulli distribution of parameter p, with p = 1/2 in the theorems).
func Random(n int, p float64, src *rng.Source) *Lattice {
	return RandomScenario(n, p, 0, src)
}

// RandomScenario returns a lattice where each site is independently
// vacant with probability rho, and otherwise holds a Plus agent with
// probability p (Minus otherwise). With rho = 0 it consumes the random
// stream exactly like Random (the vacancy draw is skipped, not
// wasted), so default-scenario seeds stay stable.
func RandomScenario(n int, p, rho float64, src *rng.Source) *Lattice {
	l := New(n, Minus)
	for i := range l.spins {
		if src.Bernoulli(rho) {
			l.spins[i] = None
			continue
		}
		// Branch-free on the type coin, which a branch predictor cannot
		// learn: Minus + 2 is Plus.
		var plus Spin
		if src.Bernoulli(p) {
			plus = 1
		}
		l.spins[i] = Minus + 2*plus
	}
	return l
}

// Parse builds a lattice from rows of '+', '-', and '.' (vacancy)
// characters separated by newlines; whitespace-only lines are ignored.
// All rows must have equal length and the result must be square. This
// is a testing convenience.
func Parse(s string) (*Lattice, error) {
	var rows []string
	for _, line := range strings.Split(s, "\n") {
		line = strings.TrimSpace(line)
		if line != "" {
			rows = append(rows, line)
		}
	}
	if len(rows) == 0 {
		return nil, errors.New("grid: empty input")
	}
	n := len(rows)
	l := New(n, Minus)
	for y, row := range rows {
		if len(row) != n {
			return nil, fmt.Errorf("grid: row %d has length %d, want %d", y, len(row), n)
		}
		for x, c := range row {
			switch c {
			case '+':
				l.spins[y*n+x] = Plus
			case '-':
				l.spins[y*n+x] = Minus
			case '.':
				l.spins[y*n+x] = None
			default:
				return nil, fmt.Errorf("grid: invalid character %q at (%d,%d)", c, x, y)
			}
		}
	}
	return l, nil
}

// N returns the side length.
func (l *Lattice) N() int { return l.n }

// Sites returns the number of agents, n^2.
func (l *Lattice) Sites() int { return l.n * l.n }

// Torus returns the underlying torus geometry.
func (l *Lattice) Torus() geom.Torus { return l.tor }

// Spin returns the spin at point p (coordinates are wrapped).
func (l *Lattice) Spin(p geom.Point) Spin {
	return l.spins[l.tor.Index(l.tor.WrapPoint(p))]
}

// SpinAt returns the spin at row-major index i.
func (l *Lattice) SpinAt(i int) Spin { return l.spins[i] }

// Set assigns the spin at point p (coordinates are wrapped).
func (l *Lattice) Set(p geom.Point, s Spin) {
	l.spins[l.tor.Index(l.tor.WrapPoint(p))] = s
}

// SetAt assigns the spin at row-major index i.
func (l *Lattice) SetAt(i int, s Spin) { l.spins[i] = s }

// Flip negates the spin at row-major index i and returns the new spin.
func (l *Lattice) Flip(i int) Spin {
	l.spins[i] = -l.spins[i]
	return l.spins[i]
}

// Clone returns a deep copy.
func (l *Lattice) Clone() *Lattice {
	c := &Lattice{tor: l.tor, n: l.n, spins: make([]Spin, len(l.spins))}
	copy(c.spins, l.spins)
	return c
}

// Equal reports whether two lattices have identical size and spins.
func (l *Lattice) Equal(o *Lattice) bool {
	if l.n != o.n {
		return false
	}
	for i, s := range l.spins {
		if o.spins[i] != s {
			return false
		}
	}
	return true
}

// CountPlus returns the total number of +1 agents.
func (l *Lattice) CountPlus() int {
	c := 0
	for _, s := range l.spins {
		if s == Plus {
			c++
		}
	}
	return c
}

// CountMinus returns the total number of -1 agents.
func (l *Lattice) CountMinus() int {
	c := 0
	for _, s := range l.spins {
		if s == Minus {
			c++
		}
	}
	return c
}

// CountOccupied returns the number of occupied sites (agents of either
// type); it equals Sites() on a fully occupied lattice.
func (l *Lattice) CountOccupied() int {
	c := 0
	for _, s := range l.spins {
		if s != None {
			c++
		}
	}
	return c
}

// OccupiedAt reports whether the site at row-major index i holds an
// agent.
func (l *Lattice) OccupiedAt(i int) bool { return l.spins[i] != None }

// HasVacancies reports whether any site is vacant.
func (l *Lattice) HasVacancies() bool {
	for _, s := range l.spins {
		if s == None {
			return true
		}
	}
	return false
}

// ErrWindowTooLarge is returned when a requested window of radius w
// would wrap onto itself on the torus (2w+1 > n). It reaches users
// through horizon validation: grid specs and model configs that pair a
// horizon with a too-small lattice are rejected with this error
// instead of panicking deep inside a count query.
var ErrWindowTooLarge = errors.New("window larger than lattice")

// CheckWindow validates that a radius-`radius` window fits the torus
// of side n without wrapping onto itself, returning ErrWindowTooLarge
// (wrapped with the offending sizes) otherwise.
func CheckWindow(n, radius int) error {
	if radius < 0 {
		return fmt.Errorf("grid: negative window radius %d", radius)
	}
	if 2*radius+1 > n {
		return fmt.Errorf("grid: %w: window side %d exceeds lattice side %d", ErrWindowTooLarge, 2*radius+1, n)
	}
	return nil
}

// PlusInSquare counts the +1 agents in the neighborhood of the given
// radius centered at p, by direct enumeration. Use WindowCounts for
// the all-centers version. It returns ErrWindowTooLarge when the
// window would wrap onto itself.
func (l *Lattice) PlusInSquare(p geom.Point, radius int) (int, error) {
	if err := CheckWindow(l.n, radius); err != nil {
		return 0, err
	}
	c := 0
	l.tor.Square(p, radius, func(q geom.Point) {
		if l.Spin(q) == Plus {
			c++
		}
	})
	return c, nil
}

// SameTypeInSquare counts agents in N_radius(p) having the same type as
// the agent at p, including the agent itself — the numerator of the
// paper's happiness ratio s(u). It returns ErrWindowTooLarge when the
// window would wrap onto itself.
func (l *Lattice) SameTypeInSquare(p geom.Point, radius int) (int, error) {
	plus, err := l.PlusInSquare(p, radius)
	if err != nil {
		return 0, err
	}
	if l.Spin(p) == Plus {
		return plus, nil
	}
	return geom.SquareSize(radius) - plus, nil
}

// WindowCounts returns, for every site u (row-major), the number of +1
// agents in the Chebyshev ball of the given radius centered at u. It uses
// two separable sliding-window passes (rows, then columns) and runs in
// O(n^2) independent of the radius. It panics if the window wraps onto
// itself (2*radius+1 > n).
func (l *Lattice) WindowCounts(radius int) []int32 {
	if 2*radius+1 > l.n {
		panic("grid: window larger than torus")
	}
	n := l.n
	// Pass 1: horizontal windows. rowSum[y*n+x] = number of +1 in
	// row y, columns x-radius .. x+radius (wrapped). The buffer is
	// pure scratch, recycled across calls (every entry is written
	// before the vertical pass reads it).
	rp := scratch.I32(n * n)
	rowSum := *rp
	for y := 0; y < n; y++ {
		base := y * n
		var acc int32
		for dx := -radius; dx <= radius; dx++ {
			if l.spins[base+wrap(dx, n)] == Plus {
				acc++
			}
		}
		rowSum[base] = acc
		for x := 1; x < n; x++ {
			// Window moves right: drop x-1-radius, add x+radius.
			if l.spins[base+wrap(x-1-radius, n)] == Plus {
				acc--
			}
			if l.spins[base+wrap(x+radius, n)] == Plus {
				acc++
			}
			rowSum[base+x] = acc
		}
	}
	// Pass 2: vertical windows over rowSum.
	out := make([]int32, n*n)
	for x := 0; x < n; x++ {
		var acc int32
		for dy := -radius; dy <= radius; dy++ {
			acc += rowSum[wrap(dy, n)*n+x]
		}
		out[x] = acc
		for y := 1; y < n; y++ {
			acc -= rowSum[wrap(y-1-radius, n)*n+x]
			acc += rowSum[wrap(y+radius, n)*n+x]
			out[y*n+x] = acc
		}
	}
	scratch.PutI32(rp)
	return out
}

func wrap(a, n int) int {
	a %= n
	if a < 0 {
		a += n
	}
	return a
}

// String renders the lattice as rows of '+'/'-' characters, with '.'
// for vacant sites.
func (l *Lattice) String() string {
	var b strings.Builder
	b.Grow(l.n * (l.n + 1))
	for y := 0; y < l.n; y++ {
		for x := 0; x < l.n; x++ {
			switch l.spins[y*l.n+x] {
			case Plus:
				b.WriteByte('+')
			case Minus:
				b.WriteByte('-')
			default:
				b.WriteByte('.')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

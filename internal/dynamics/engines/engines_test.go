package engines

import (
	"errors"
	"fmt"
	"testing"

	"gridseg/internal/dynamics"
	"gridseg/internal/dynamics/pareng"
	"gridseg/internal/grid"
	"gridseg/internal/rng"
)

// TestNew walks the whole engine table: every dynamic, every requested
// kind, and a horizon that fits the packed lanes (w=2) against one past
// their capacity (w=91). Each request must resolve to the documented
// kind and concrete engine, or fail with ErrNeighborhoodTooLarge. The
// lattice exercises every scenario axis at once — open boundary,
// vacancies (which the Move dynamic needs), and a per-site tau field.
func TestNew(t *testing.T) {
	const (
		refProc  = "*dynamics.Process"
		fastProc = "*fastglauber.Process"
		parProc  = "*pareng.Engine"
		refSwap  = "*dynamics.Kawasaki"
		fastSwap = "*fastglauber.Kawasaki"
		refMove  = "*dynamics.Move"
		fastMove = "*fastglauber.Move"
		tooLarge = "ErrNeighborhoodTooLarge"
	)
	type want struct {
		kind Kind
		typ  string // concrete type of the dynamic's engine, or tooLarge
	}
	cases := []struct {
		dyn        Dynamic
		kind       Kind
		fits, over want
	}{
		{Glauber, Auto, want{Fast, fastProc}, want{Reference, refProc}},
		{Glauber, Reference, want{Reference, refProc}, want{Reference, refProc}},
		{Glauber, Fast, want{Fast, fastProc}, want{typ: tooLarge}},
		{Glauber, Parallel, want{Parallel, parProc}, want{typ: tooLarge}},
		{Kawasaki, Auto, want{Fast, fastSwap}, want{Reference, refSwap}},
		{Kawasaki, Reference, want{Reference, refSwap}, want{Reference, refSwap}},
		{Kawasaki, Fast, want{Fast, fastSwap}, want{typ: tooLarge}},
		{Kawasaki, Parallel, want{Fast, fastSwap}, want{typ: tooLarge}},
		{Move, Auto, want{Fast, fastMove}, want{Reference, refMove}},
		{Move, Reference, want{Reference, refMove}, want{Reference, refMove}},
		{Move, Fast, want{Fast, fastMove}, want{typ: tooLarge}},
		{Move, Parallel, want{Fast, fastMove}, want{typ: tooLarge}},
	}
	for _, c := range cases {
		for _, h := range []struct {
			n, w int
			want want
		}{{64, 2, c.fits}, {183, 91, c.over}} {
			name := fmt.Sprintf("%s/%v/w=%d", dynNames[c.dyn], c.kind, h.w)
			t.Run(name, func(t *testing.T) {
				e, err := build(c.dyn, c.kind, h.n, h.w, pareng.Config{Workers: 2})
				if h.want.typ == tooLarge {
					if !errors.Is(err, ErrNeighborhoodTooLarge) {
						t.Fatalf("err = %v, want ErrNeighborhoodTooLarge", err)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				checkEngine(t, c.dyn, e, h.want.kind, h.want.typ)
			})
		}
	}
	// A one-strip parallel request is the fast engine outright.
	e, err := build(Glauber, Parallel, 64, 2, pareng.Config{Workers: 4, Strips: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkEngine(t, Glauber, e, Fast, fastProc)
}

var dynNames = map[Dynamic]string{Glauber: "glauber", Kawasaki: "kawasaki", Move: "move"}

// build draws the test lattice and requests an engine for it.
func build(dyn Dynamic, kind Kind, n, w int, par pareng.Config) (Engine, error) {
	src := rng.New(uint64(n))
	lat := grid.RandomScenario(n, 0.5, 0.1, src.Split(1))
	taus := make([]float64, lat.Sites())
	for i := range taus {
		taus[i] = 0.35 + 0.1*float64(i%2)
	}
	return New(dyn, kind, lat, w, 0.42, dynamics.Scenario{Open: true, Taus: taus}, src.Split(2), par)
}

// checkEngine asserts the resolved kind, the concrete type of the
// dynamic's engine, and that exactly the dynamic's handles are set.
func checkEngine(t *testing.T, dyn Dynamic, e Engine, kind Kind, typ string) {
	t.Helper()
	if e.Kind != kind {
		t.Errorf("kind = %v, want %v", e.Kind, kind)
	}
	var got any = e.Proc
	switch dyn {
	case Kawasaki:
		got = e.Swap
	case Move:
		got = e.Move
	}
	if s := fmt.Sprintf("%T", got); s != typ {
		t.Errorf("engine type = %s, want %s", s, typ)
	}
	if e.Proc == nil || (e.Swap != nil) != (dyn == Kawasaki) || (e.Move != nil) != (dyn == Move) {
		t.Errorf("handles Proc=%T Swap=%T Move=%T do not match the dynamic", e.Proc, e.Swap, e.Move)
	}
}

// TestParse pins the label set: every canonical label and alias, the
// empty string as auto, and the help text built from the same table.
func TestParse(t *testing.T) {
	for label, want := range map[string]Kind{
		"": Auto, "auto": Auto, "reference": Reference, "ref": Reference,
		"fast": Fast, "parallel": Parallel, "par": Parallel,
	} {
		if got, err := Parse(label); err != nil || got != want {
			t.Errorf("Parse(%q) = %v, %v; want %v", label, got, err, want)
		}
	}
	for k := Auto; k <= Parallel; k++ {
		if got, err := Parse(k.String()); err != nil || got != k {
			t.Errorf("Parse(%v.String()) = %v, %v", k, got, err)
		}
	}
	if _, err := Parse("turbo"); err == nil {
		t.Error("Parse accepted an unknown label")
	}
	if got, want := Labels(), "auto, reference (ref), fast, or parallel (par)"; got != want {
		t.Errorf("Labels() = %q, want %q", got, want)
	}
	if _, err := New(Glauber, Kind(9), grid.New(8, grid.Plus), 1, 0.4, dynamics.Scenario{}, rng.New(1), pareng.Config{}); err == nil {
		t.Error("New accepted an unknown engine kind")
	}
	if _, err := New(Dynamic(9), Reference, grid.New(8, grid.Plus), 1, 0.4, dynamics.Scenario{}, rng.New(1), pareng.Config{}); err == nil {
		t.Error("New accepted an unknown dynamic")
	}
}

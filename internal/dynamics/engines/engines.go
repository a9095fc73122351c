// Package engines is the engine table: the one place that maps a
// (dynamic, engine) request to a concrete engine. Every caller — the
// gridseg facade, the experiment harness, the batch grid parser, the
// CLIs, and the differential harness — names engines with this
// package's labels and builds them with New, so the selection rules
// below are stated once:
//
//   - Auto picks Fast whenever the neighborhood fits the packed count
//     lanes (fastglauber.Fits) and Reference otherwise;
//   - an explicit Fast request past the lane capacity fails with
//     ErrNeighborhoodTooLarge instead of falling back;
//   - Parallel applies to Glauber only: Kawasaki and Move resolve it to
//     the sequential fast engine, and so does a one-strip decomposition,
//     requested or automatic (pareng.AutoStrips), which is the fast
//     engine's own trajectory.
//
// The sequential engines are interchangeable bit for bit (enforced by
// internal/difftest), so the choice among them is purely about speed.
package engines

import (
	"fmt"
	"slices"
	"strings"

	"gridseg/internal/dynamics"
	"gridseg/internal/dynamics/fastglauber"
	"gridseg/internal/dynamics/pareng"
	"gridseg/internal/grid"
	"gridseg/internal/rng"
)

// Dynamic selects the evolution rule.
type Dynamic int

const (
	// Glauber: unhappy agents flip type when the flip makes them happy.
	Glauber Dynamic = iota + 1
	// Kawasaki: unhappy pairs of opposite types swap when the swap
	// makes both happy.
	Kawasaki
	// Move: an unhappy agent relocates into a uniformly sampled vacant
	// site iff it would be happy there (vacancy scenarios only).
	Move
)

// Kind names an engine implementation.
type Kind int

const (
	// Auto (the zero value) resolves to Fast or Reference by horizon.
	Auto Kind = iota
	// Reference is the scalar engine of internal/dynamics.
	Reference
	// Fast is the bit-packed SWAR engine of
	// internal/dynamics/fastglauber; it needs (2w+1)^2 <=
	// fastglauber.MaxNeighborhood.
	Fast
	// Parallel is the strip-decomposed Glauber engine of
	// internal/dynamics/pareng, built on the fast engine's packed state.
	Parallel
)

// names lists each kind's canonical label first, then its aliases.
var names = [][]string{
	Auto:      {"auto"},
	Reference: {"reference", "ref"},
	Fast:      {"fast"},
	Parallel:  {"parallel", "par"},
}

// ErrNeighborhoodTooLarge is wrapped by New when an explicit fast (or
// parallel) request needs a neighborhood beyond the packed engine's
// 16-bit count-lane capacity (w <= 90 fits).
var ErrNeighborhoodTooLarge = fastglauber.ErrNeighborhoodTooLarge

// String returns the kind's canonical label.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(names) {
		return names[k][0]
	}
	return fmt.Sprintf("Engine(%d)", int(k))
}

// Labels renders the accepted labels for help and error text:
// "auto, reference (ref), fast, or parallel (par)".
func Labels() string {
	parts := make([]string, len(names))
	for k, ns := range names {
		parts[k] = ns[0]
		if len(ns) > 1 {
			parts[k] += " (" + strings.Join(ns[1:], ", ") + ")"
		}
	}
	last := len(parts) - 1
	return strings.Join(parts[:last], ", ") + ", or " + parts[last]
}

// Parse parses a label or alias ("" parses as Auto).
func Parse(s string) (Kind, error) {
	if s == "" {
		return Auto, nil
	}
	for k, ns := range names {
		if slices.Contains(ns, s) {
			return Kind(k), nil
		}
	}
	return Auto, fmt.Errorf("unknown engine %q (want %s)", s, Labels())
}

// Engine is a built engine and the kind it resolved to.
type Engine struct {
	// Kind is the implementation in use: never Auto, and Parallel only
	// for a Glauber engine of at least two strips.
	Kind Kind
	// Proc is the count-tracking engine. For Kawasaki and Move it is
	// the engine underneath Swap or Move, for read-only use.
	Proc dynamics.Engine
	// Swap is the Kawasaki engine (nil for the other dynamics).
	Swap dynamics.SwapEngine
	// Move is the relocation engine (nil for the other dynamics).
	Move dynamics.MoveEngine
}

// resolve applies the selection rules to a request on a side-n
// lattice.
func resolve(dyn Dynamic, kind Kind, n, w int, par pareng.Config) Kind {
	oneStrip := par.Strips == 1 || par.Strips == 0 && pareng.AutoStrips(n, w) == 1
	switch {
	case kind == Auto && fastglauber.Fits(w):
		return Fast
	case kind == Auto:
		return Reference
	case kind == Parallel && (dyn != Glauber || oneStrip):
		return Fast
	}
	return kind
}

// New builds the engine of dynamic dyn that kind resolves to, over the
// lattice with horizon w, intolerance tau, and topology scenario sc,
// drawing its randomness from src. par configures the parallel engine
// and is ignored by the others.
func New(dyn Dynamic, kind Kind, lat *grid.Lattice, w int, tau float64, sc dynamics.Scenario, src *rng.Source, par pareng.Config) (Engine, error) {
	e := Engine{Kind: resolve(dyn, kind, lat.N(), w, par)}
	if e.Kind < Reference || e.Kind > Parallel {
		return Engine{}, fmt.Errorf("unknown engine %v", kind)
	}
	var err error
	switch dyn {
	case Glauber:
		switch e.Kind {
		case Reference:
			e.Proc, err = dynamics.NewScenario(lat, w, tau, sc, src)
		case Fast:
			e.Proc, err = fastglauber.NewScenario(lat, w, tau, sc, src)
		case Parallel:
			e.Proc, err = pareng.New(lat, w, tau, sc, src, par)
		}
	case Kawasaki:
		if e.Kind == Fast {
			e.Swap, err = fastglauber.NewKawasakiScenario(lat, w, tau, sc, src)
		} else {
			e.Swap, err = dynamics.NewKawasakiScenario(lat, w, tau, sc, src)
		}
		if err == nil {
			e.Proc = e.Swap.Engine()
		}
	case Move:
		if e.Kind == Fast {
			e.Move, err = fastglauber.NewMove(lat, w, tau, sc, src)
		} else {
			e.Move, err = dynamics.NewMove(lat, w, tau, sc, src)
		}
		if err == nil {
			e.Proc = e.Move.Engine()
		}
	default:
		return Engine{}, fmt.Errorf("unknown dynamic %d", dyn)
	}
	if err != nil {
		return Engine{}, err
	}
	return e, nil
}

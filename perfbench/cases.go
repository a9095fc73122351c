package main

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"

	"gridseg"
	"gridseg/internal/rng"
)

// gridCase is one generated (spec, seed) input: a cold grid and a warm
// grid whose cells are a subset of the cold grid's.
type gridCase struct {
	cold, warm string
	seed       uint64
	// ref holds the reference artifact digests: [cold, warm][csv, json].
	ref *[2][2][32]byte
}

// caseSet generates the inputs of a run from its seed. The pool's cases
// get their references during set-up; any case beyond them gets its
// reference after the measured phase, still off the clock.
type caseSet struct {
	mu    sync.Mutex
	src   *rng.Source
	gen   func(i int) (cold, warm string)
	cases []*gridCase
}

func newCaseSet(seed uint64, gen func(i int) (string, string)) *caseSet {
	return &caseSet{src: rng.New(seed), gen: gen}
}

func (cs *caseSet) at(i int) *gridCase {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for len(cs.cases) <= i {
		cold, warm := cs.gen(len(cs.cases))
		cs.cases = append(cs.cases, &gridCase{cold: cold, warm: warm, seed: cs.src.Uint64()})
	}
	return cs.cases[i]
}

func (cs *caseSet) len() int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return len(cs.cases)
}

// reference computes the reference artifacts of the cases in [from, to)
// that have none, on sweepWorkers goroutines.
func (cs *caseSet) reference(from, to int) error {
	cs.mu.Lock()
	var todo []*gridCase
	for _, c := range cs.cases[from:min(to, len(cs.cases))] {
		if c.ref == nil {
			todo = append(todo, c)
		}
	}
	cs.mu.Unlock()
	next := make(chan *gridCase)
	errs := make(chan error, sweepWorkers)
	var wg sync.WaitGroup
	for w := 0; w < sweepWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			for c := range next {
				if err == nil {
					err = c.reference()
				}
			}
			errs <- err
		}()
	}
	for _, c := range todo {
		next <- c
	}
	close(next)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// reference runs the case in-process: RunGrid of the cold grid over a
// memory store, then of the warm grid over the same store.
func (c *gridCase) reference() error {
	mem := gridseg.NewMemoryStore()
	var ref [2][2][32]byte
	for i, spec := range []string{c.cold, c.warm} {
		res, err := gridseg.RunGrid(spec, gridseg.GridOptions{Seed: c.seed, Workers: 1, Store: mem})
		if err != nil {
			return fmt.Errorf("reference %q seed %d: %w", spec, c.seed, err)
		}
		if ref[i], err = digests(res); err != nil {
			return err
		}
	}
	c.ref = &ref
	return nil
}

// digests renders both artifacts of a result and hashes them.
func digests(res *gridseg.GridResult) ([2][32]byte, error) {
	var b strings.Builder
	var d [2][32]byte
	if err := res.WriteCSV(&b); err != nil {
		return d, err
	}
	d[0] = sha256.Sum256([]byte(b.String()))
	b.Reset()
	if err := res.WriteJSON(&b); err != nil {
		return d, err
	}
	d[1] = sha256.Sum256([]byte(b.String()))
	return d, nil
}

// verify checks every grid against its reference and marks mismatches
// as failed.
func verify(results []gridResult) {
	for i := range results {
		r := &results[i]
		if r.err != nil {
			continue
		}
		w := 0
		if r.warm {
			w = 1
		}
		if r.csv != r.c.ref[w][0] {
			r.err = fmt.Errorf("artifact.csv of %q seed %d differs from the in-process reference", r.spec(), r.c.seed)
		} else if r.json != r.c.ref[w][1] {
			r.err = fmt.Errorf("artifact.json of %q seed %d differs from the in-process reference", r.spec(), r.c.seed)
		}
	}
}

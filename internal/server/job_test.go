package server

import (
	"errors"
	"testing"

	"gridseg"
)

// TestTerminalEventLogTrimmed pins the retained-run memory contract: a
// run that reaches done or error keeps its SSE log in an exact-length
// slice, and a subscriber attaching afterwards still replays every
// event.
func TestTerminalEventLogTrimmed(t *testing.T) {
	res, err := gridseg.RunGrid(testSpec, gridseg.GridOptions{Seed: 1, Store: gridseg.NewMemoryStore()})
	if err != nil {
		t.Fatal(err)
	}
	ends := map[string]func(*job){
		"finish": func(j *job) { j.finish(res) },
		"fail":   func(j *job) { j.fail(errors.New("boom")) },
	}
	for name, end := range ends {
		t.Run(name, func(t *testing.T) {
			const cells = 5
			j := newJob("trim-"+name, testSpec, 1, cells)
			for i := 1; i <= cells; i++ {
				j.progress(gridseg.CellProgress{Done: i, Total: cells, N: 16, W: 1, Rep: i})
			}
			j.mu.Lock()
			headroom := cap(j.events) > len(j.events)+1
			j.mu.Unlock()
			if !headroom {
				t.Fatal("the log has no append headroom to trim; the test proves nothing")
			}
			end(j)
			j.mu.Lock()
			n, c := len(j.events), cap(j.events)
			j.mu.Unlock()
			if c != n {
				t.Fatalf("terminal log len %d cap %d, want cap == len", n, c)
			}
			history, live := j.subscribe()
			if live != nil {
				t.Fatal("terminal run handed out a live channel")
			}
			if len(history) != cells+1 {
				t.Fatalf("replayed %d events, want %d", len(history), cells+1)
			}
			for i, e := range history[:cells] {
				if e.Type != "cell" || e.terminal() {
					t.Fatalf("event %d = %s, want a cell event", i, e.Type)
				}
			}
			if !history[cells].terminal() {
				t.Fatalf("last replayed event = %s, want the terminal event", history[cells].Type)
			}
		})
	}
}

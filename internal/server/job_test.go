package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"gridseg"
	"gridseg/internal/fabric"
)

// TestTerminalEventLogTrimmed pins the retained-run memory contract: a
// run that reaches done or error keeps its SSE log as one exact-size
// buffer of payloads and their end offsets, and a subscriber attaching
// afterwards still replays every event, payloads unchanged.
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
			var payloads []string
			for _, e := range j.events {
				payloads = append(payloads, string(e.Data))
			}
			j.mu.Unlock()
			if !headroom {
				t.Fatal("the log has no append headroom to trim; the test proves nothing")
			}
			end(j)
			j.mu.Lock()
			compacted := j.events == nil && len(j.logEnds) == cells+1 && cap(j.logEnds) == len(j.logEnds) &&
				cap(j.logData) == len(j.logData) && int(j.logEnds[cells]) == len(j.logData)
			j.mu.Unlock()
			if !compacted {
				t.Fatal("terminal log not compacted into one exact-size payload buffer and its offsets")
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
				if string(e.Data) != payloads[i] {
					t.Fatalf("event %d replays %s, was %s", i, e.Data, payloads[i])
				}
			}
			if !history[cells].terminal() {
				t.Fatalf("last replayed event = %s, want the terminal event", history[cells].Type)
			}
		})
	}
}

// discardStore is a result store that holds nothing: every Get misses
// and every Put is dropped, so the heap a run leaves behind is the
// run's own.
type discardStore struct{}

func (discardStore) Get(string) ([]float64, bool, error) { return nil, false, nil }
func (discardStore) Put(string, []float64) error         { return nil }

// TestClusterRetainedRunBytes bounds the heap a finished 300-cell
// cluster run keeps while the registry retains it (up to MaxRuns of
// them): its result and its replayable SSE log. It measures the live
// heap with the finished runs registered and again once they are
// dropped from the registry.
func TestClusterRetainedRunBytes(t *testing.T) {
	const (
		spec = "n=16 w=1 tau=0.4,0.42,0.44,0.46 reps=75" // 300 cells
		runs = 8
		// Measured on linux/amd64: about 127 KB per run while each
		// result kept a batch.Cell per cell and the SSE log an sseEvent
		// per event, 75 to 80 KB since.
		bound = 100 << 10
	)
	s, hs := newClusterServer(t, discardStore{}, time.Minute)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := &fabric.Worker{
			Name:        fmt.Sprintf("w%d", i),
			Coordinator: hs.URL + "/fabric",
			Runner:      gridseg.ComputeJob,
			Poll:        20 * time.Millisecond,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	var ids []string
	for seed := uint64(1); seed <= runs; seed++ {
		st, _ := submit(t, hs.URL, spec, seed)
		if final := waitDone(t, hs.URL, st.ID); final.State != StateDone || final.Cells != 300 {
			t.Fatalf("run %s: %+v", st.ID, final)
		}
		ids = append(ids, st.ID)
	}
	cancel()
	wg.Wait()

	heap := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	retained := heap()
	s.mu.Lock()
	for _, id := range ids {
		delete(s.grids, id)
	}
	s.order = s.order[:0]
	s.mu.Unlock()
	per := (retained - heap()) / runs
	t.Logf("a finished 300-cell cluster run retains %d bytes", per)
	if per > bound {
		t.Fatalf("a finished 300-cell cluster run retains %d bytes, want <= %d", per, bound)
	}
}

package fabric

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridseg/internal/store"
	"gridseg/internal/testlog"
)

// countingStore is a store.Backend that counts every call to it.
type countingStore struct{ calls atomic.Int64 }

func (s *countingStore) Get(string) ([]float64, bool, error) {
	s.calls.Add(1)
	return nil, false, nil
}

func (s *countingStore) Put(string, []float64) error {
	s.calls.Add(1)
	return nil
}

// TestWorkerLoop runs the full protocol over real HTTP: a coordinator
// with a short TTL, four workers whose runner outlives a heartbeat
// interval (so renewal is load-bearing), and a store each worker is
// handed. Every cell must complete exactly once, and the workers must
// never touch the store: the coordinator leases only cells its store
// lacks and fills the store from the completions.
func TestWorkerLoop(t *testing.T) {
	const cells = 24
	coord := NewCoordinator(300*time.Millisecond, nil)
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	jobs := make([]Job, cells)
	for i := range jobs {
		jobs[i] = Job{Index: i, Key: store.CellSpec{Scope: "wl", Rep: i}.Key(), Seed: uint64(i), Columns: []string{"a", "b"}}
	}

	var got collector
	done, err := coord.Table().Register("run", jobs, got.add)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st := &countingStore{}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		w := &Worker{
			Name:        fmt.Sprintf("w%d", i),
			Coordinator: srv.URL,
			Client:      srv.Client(),
			Store:       st,
			Poll:        10 * time.Millisecond,
			Runner: func(j Job) ([]float64, error) {
				// Longer than TTL/3: completion depends on heartbeats.
				time.Sleep(150 * time.Millisecond)
				return []float64{float64(j.Index), -1}, nil
			},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}

	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run did not complete")
	}
	cancel()
	wg.Wait()

	if got.count() != cells {
		t.Fatalf("reported %d cells, want %d", got.count(), cells)
	}
	seen := map[int]bool{}
	for _, d := range got.cells {
		if seen[d.Index] {
			t.Fatalf("cell %d reported twice", d.Index)
		}
		seen[d.Index] = true
		if d.Err != "" {
			t.Fatalf("cell %d failed: %s", d.Index, d.Err)
		}
		if d.Values[0] != float64(d.Index) || d.Values[1] != -1 {
			t.Fatalf("cell %d values = %v", d.Index, d.Values)
		}
		if d.Worker == "" {
			t.Fatalf("cell %d missing worker attribution", d.Index)
		}
	}
	if n := st.calls.Load(); n != 0 {
		t.Fatalf("workers called their store %d times, want 0", n)
	}
	if n, _ := coord.Table().Status(); len(n) != 0 {
		t.Fatalf("completed run still registered: %+v", n)
	}
}

// TestWorkerReportsDeterministicError pins the error path: a runner
// failure is reported to the coordinator, not retried forever.
func TestWorkerReportsDeterministicError(t *testing.T) {
	coord := NewCoordinator(time.Second, nil)
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	var got collector
	done, err := coord.Table().Register("run", mkJobs(1), got.add)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{
		Name:        "w0",
		Coordinator: srv.URL,
		Client:      srv.Client(),
		Poll:        10 * time.Millisecond,
		Runner:      func(j Job) ([]float64, error) { return nil, fmt.Errorf("bad cell") },
	}
	go w.Run(ctx)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("error completion never arrived")
	}
	if got.count() != 1 || got.cells[0].Err != "bad cell" {
		t.Fatalf("got %+v", got.cells)
	}
}

// TestWorkerResendsWithheldCompletions pins the completion outbox: a
// worker whose completion posts fail keeps the finished cells and
// sends them again, instead of abandoning them to lease expiry and a
// recomputation. The coordinator's /complete is down for a while; its
// first refused post is torn (applied, but the answer lost), the rest
// are turned away. Once it recovers, every cell lands exactly once and
// none was computed twice.
func TestWorkerResendsWithheldCompletions(t *testing.T) {
	const cells = 6
	outagesBefore := metricWorkerOutages.Value()
	reconnectsBefore := metricWorkerReconnects.Value()
	coord := NewCoordinator(time.Minute, nil)
	h := coord.Handler()
	var outage atomic.Bool
	outage.Store(true)
	var refused atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/complete" && outage.Load() {
			if refused.Add(1) == 1 {
				h.ServeHTTP(httptest.NewRecorder(), r) // torn: applied, answer lost
			}
			http.Error(w, "coordinator restarting", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	var got collector
	done, err := coord.Table().Register("run", mkJobs(cells), got.add)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	computed := map[int]int{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{
		Name:        "keeper",
		Coordinator: srv.URL,
		Client:      srv.Client(),
		Poll:        10 * time.Millisecond,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
		Runner: func(j Job) ([]float64, error) {
			mu.Lock()
			computed[j.Index]++
			mu.Unlock()
			return []float64{float64(j.Index), 0}, nil
		},
		Logger: testlog.New(t),
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.Run(ctx)
	}()
	defer wg.Wait()
	defer cancel()

	deadline := time.Now().Add(10 * time.Second)
	for refused.Load() < 4 {
		if time.Now().After(deadline) {
			t.Fatal("the worker never retried its withheld completions")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// While its completions are withheld the worker leases nothing new.
	if runs, _ := coord.Table().Status(); len(runs) != 1 || runs[0].Pending == 0 {
		t.Fatalf("worker leased past its undelivered batch: %+v", runs)
	}
	outage.Store(false)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("run did not complete after the outage")
	}
	cancel()
	wg.Wait()

	seen := map[int]int{}
	for _, d := range got.cells {
		seen[d.Index]++
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < cells; i++ {
		if seen[i] != 1 || computed[i] != 1 {
			t.Fatalf("cell %d reported %d times and computed %d times, want once each", i, seen[i], computed[i])
		}
	}
	if delta := metricWorkerOutages.Value() - outagesBefore; delta < 1 {
		t.Fatalf("fabric_worker_outages_total advanced by %d, want >= 1", delta)
	}
	if delta := metricWorkerReconnects.Value() - reconnectsBefore; delta < 1 {
		t.Fatalf("fabric_worker_reconnects_total advanced by %d, want >= 1", delta)
	}
}

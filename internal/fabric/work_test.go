package fabric

import (
	"context"
	"sync"
	"testing"
	"time"
)

// startWork runs Table.Work for each named worker with its own runner
// and returns a stop that cancels them and waits for them to return.
func startWork(tab *Table, names []string, runner func(worker string) func(Job) ([]float64, error)) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tab.Work(ctx, name, runner(name))
		}()
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

// TestClusterWorkCountsParkedWorkers pins the grant sizing for
// in-process workers that sat idle longer than the TTL: a 16-cell run
// registered then is shared as four first grants of ceil(16/8) = 2
// cells, not one half-run grant to whichever worker woke first.
func TestClusterWorkCountsParkedWorkers(t *testing.T) {
	const ttl = 200 * time.Millisecond
	tab := NewTable(ttl, nil)
	names := []string{"w0", "w1", "w2", "w3"}
	var mu sync.Mutex
	started := map[string]bool{}
	all := make(chan struct{})
	release := make(chan struct{})
	stop := startWork(tab, names, func(worker string) func(Job) ([]float64, error) {
		return func(Job) ([]float64, error) {
			mu.Lock()
			if !started[worker] {
				started[worker] = true
				if len(started) == len(names) {
					close(all)
				}
			}
			mu.Unlock()
			<-release
			return []float64{1, 2}, nil
		}
	})
	defer stop()

	time.Sleep(5 * ttl / 2) // idle past the TTL
	donec, err := tab.Register("r", mkJobs(16), nil)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-all:
	case <-time.After(5 * time.Second):
		close(release)
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("only %d of %d workers started a cell", len(started), len(names))
	}
	// Every worker is inside its first cell, so nothing has completed
	// and the leased cells are exactly the four first grants.
	runs, _ := tab.Status()
	close(release)
	if len(runs) != 1 || runs[0].Leased != 8 {
		t.Fatalf("status %+v, want 8 cells leased in four first grants of 2", runs)
	}
	select {
	case <-donec:
	case <-time.After(5 * time.Second):
		t.Fatal("run did not complete")
	}
}

// TestClusterWorkSkipsLostLeases pins that an in-process worker stops
// spending time on a run that ended under it: the cells of its batch
// it has not started when the run is canceled are skipped.
func TestClusterWorkSkipsLostLeases(t *testing.T) {
	tab := NewTable(time.Second, nil)
	var mu sync.Mutex
	calls := map[string]int{}
	first := make(chan struct{})
	stop := startWork(tab, []string{"solo"}, func(string) func(Job) ([]float64, error) {
		return func(j Job) ([]float64, error) {
			mu.Lock()
			calls[j.Run]++
			n := calls[j.Run]
			mu.Unlock()
			if j.Run == "r" && n == 1 {
				tab.Cancel("r") // the run fails while its first cell computes
				close(first)
			}
			return []float64{1, 2}, nil
		}
	})
	defer stop()

	// One worker on 8 cells takes ceil(8/2) = 4 in its first grant.
	if _, err := tab.Register("r", mkJobs(8), nil); err != nil {
		t.Fatal(err)
	}
	<-first
	// The worker leases the next run only after it is done with the
	// batch of the canceled one.
	donec, err := tab.Register("next", mkJobs(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-donec:
	case <-time.After(5 * time.Second):
		t.Fatal("next run did not complete")
	}
	mu.Lock()
	defer mu.Unlock()
	if calls["r"] != 1 {
		t.Fatalf("canceled run's cells computed %d times, want 1 (the cell running at the cancel)", calls["r"])
	}
	if calls["next"] != 1 {
		t.Fatalf("next run computed %d cells, want 1", calls["next"])
	}
}

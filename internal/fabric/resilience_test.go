package fabric

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"gridseg/internal/store"
	"gridseg/internal/testlog"
)

// TestLeaseBatchGrantsUpToMax pins the batched-lease table semantics:
// one scan hands out up to max distinct cells, each with its own lease
// token, and never a cell twice.
func TestLeaseBatchGrantsUpToMax(t *testing.T) {
	tab := NewTable(10*time.Second, newFakeClock().now)
	var got collector
	if _, err := tab.Register("r1", mkJobs(5), got.add); err != nil {
		t.Fatal(err)
	}
	grants := tab.LeaseBatch("alice", 3)
	if len(grants) != 3 {
		t.Fatalf("LeaseBatch(3) granted %d cells", len(grants))
	}
	seen := map[int]bool{}
	leases := map[uint64]bool{}
	for _, g := range grants {
		if seen[g.Job.Index] {
			t.Fatalf("cell %d granted twice in one batch", g.Job.Index)
		}
		seen[g.Job.Index] = true
		if leases[g.Lease] {
			t.Fatalf("lease token %d reused within a batch", g.Lease)
		}
		leases[g.Lease] = true
	}
	// Asking for more than remains grants exactly the remainder; a
	// further request grants nothing.
	if rest := tab.LeaseBatch("bob", 10); len(rest) != 2 {
		t.Fatalf("LeaseBatch(10) granted %d cells, want the 2 remaining", len(rest))
	}
	if extra := tab.LeaseBatch("carol", 4); len(extra) != 0 {
		t.Fatalf("exhausted table still granted %d cells", len(extra))
	}
	// Max < 1 behaves like 1 (the single-lease path delegates here).
	tab2 := NewTable(10*time.Second, newFakeClock().now)
	if _, err := tab2.Register("r2", mkJobs(2), got.add); err != nil {
		t.Fatal(err)
	}
	if g := tab2.LeaseBatch("dave", 0); len(g) != 1 {
		t.Fatalf("LeaseBatch(0) granted %d cells, want 1", len(g))
	}
}

// TestWorkerBatchedLeaseLoop runs the full protocol with
// coordinator-sized batches: the worker leases cells several at a round
// trip, renews every held lease in one heartbeat and reports finished
// cells in list-shaped completions, and the run completes exactly once
// per cell.
func TestWorkerBatchedLeaseLoop(t *testing.T) {
	const cells = 12
	coord := NewCoordinator(400*time.Millisecond, nil)
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	jobs := make([]Job, cells)
	for i := range jobs {
		jobs[i] = Job{Index: i, Key: store.CellSpec{Scope: "batch", Rep: i}.Key(), Seed: uint64(i), Columns: []string{"a"}}
	}
	var got collector
	done, err := coord.Table().Register("run", jobs, got.add)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{
		Name:        "batcher",
		Coordinator: srv.URL,
		Client:      srv.Client(),
		Poll:        10 * time.Millisecond,
		Runner: func(j Job) ([]float64, error) {
			// Longer than TTL/3: every held grant in the batch depends on
			// the shared heartbeat goroutine while earlier cells compute.
			time.Sleep(150 * time.Millisecond)
			return []float64{float64(j.Index)}, nil
		},
		Logger: testlog.New(t),
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.Run(ctx)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("batched run did not complete")
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
		if d.Err != "" || d.Values[0] != float64(d.Index) {
			t.Fatalf("cell %d: %+v", d.Index, d)
		}
	}
}

// TestWorkerRequestTimeout pins the per-request deadline: a
// coordinator that accepts the connection and then never answers must
// not hang the worker past RequestTimeout plus the lease's wait, and a
// lease the coordinator may hold is not cut off before that.
func TestWorkerRequestTimeout(t *testing.T) {
	stall := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-stall
	}))
	defer srv.Close()
	defer close(stall) // LIFO: release the handler before Close waits on it

	w := &Worker{
		Name:           "impatient",
		Coordinator:    srv.URL,
		Client:         srv.Client(),
		RequestTimeout: 100 * time.Millisecond,
	}
	const wait = 200 * time.Millisecond
	start := time.Now()
	_, err := w.lease(context.Background(), wait)
	if err == nil {
		t.Fatal("lease against a stalled coordinator returned no error")
	}
	elapsed := time.Since(start)
	if elapsed < w.RequestTimeout+wait {
		t.Fatalf("lease gave up after %v, before its deadline of RequestTimeout + wait", elapsed)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("lease took %v; the request deadline did not bound it", elapsed)
	}
}

// TestWorkerBackoffBounds pins the retry backoff shape: capped
// exponential growth with jitter confined to [d/2, d).
func TestWorkerBackoffBounds(t *testing.T) {
	w := &Worker{Name: "b", BackoffBase: 100 * time.Millisecond, BackoffMax: 800 * time.Millisecond}
	for attempt := 1; attempt <= 8; attempt++ {
		want := 100 * time.Millisecond << (attempt - 1)
		if want > 800*time.Millisecond {
			want = 800 * time.Millisecond
		}
		for i := 0; i < 50; i++ {
			d := w.backoff(attempt)
			if d < want/2 || d >= want {
				t.Fatalf("backoff(%d) = %v, want in [%v, %v)", attempt, d, want/2, want)
			}
		}
	}
}

// TestWorkerRidesOutCoordinatorRestart kills the coordinator's
// listener mid-sweep and rebinds it on the same address: the worker
// must back off through the outage, reconnect on its own, and finish
// the run, with the outage and reconnect counted.
func TestWorkerRidesOutCoordinatorRestart(t *testing.T) {
	const cells = 8
	outagesBefore := metricWorkerOutages.Value()
	reconnectsBefore := metricWorkerReconnects.Value()

	coord := NewCoordinator(300*time.Millisecond, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	hs := &http.Server{Handler: coord.Handler()}
	serving := make(chan struct{})
	go func() {
		close(serving)
		hs.Serve(l)
	}()
	<-serving

	jobs := make([]Job, cells)
	for i := range jobs {
		jobs[i] = Job{Index: i, Key: store.CellSpec{Scope: "restart", Rep: i}.Key(), Seed: uint64(i), Columns: []string{"a"}}
	}
	var got collector
	done, err := coord.Table().Register("run", jobs, got.add)
	if err != nil {
		t.Fatal(err)
	}

	computed := make(chan struct{}, cells)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{
		Name:           "phoenix",
		Coordinator:    "http://" + addr,
		Poll:           10 * time.Millisecond,
		RequestTimeout: 500 * time.Millisecond,
		BackoffBase:    20 * time.Millisecond,
		BackoffMax:     200 * time.Millisecond,
		Runner: func(j Job) ([]float64, error) {
			computed <- struct{}{}
			time.Sleep(30 * time.Millisecond)
			return []float64{float64(j.Index)}, nil
		},
		Logger: testlog.New(t),
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.Run(ctx)
	}()

	// Let the worker get properly into the sweep, then yank the
	// listener out from under it.
	select {
	case <-computed:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never started computing")
	}
	if err := hs.Close(); err != nil {
		t.Fatal(err)
	}
	// The outage outlasts the worker's batch, so the batch's completion
	// post fails, the worker keeps the completions, and its next contact
	// fails too: the loop registers the outage and backs off until the
	// coordinator comes back.
	time.Sleep(1200 * time.Millisecond)

	// Rebind the same address (retry: the kernel may briefly hold it)
	// and serve the same lease table — the fabric analogue of a
	// coordinator process restart.
	var l2 net.Listener
	for i := 0; i < 200; i++ {
		if l2, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	hs2 := &http.Server{Handler: coord.Handler()}
	go hs2.Serve(l2)
	defer hs2.Close()

	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run did not complete after the coordinator came back")
	}
	cancel()
	wg.Wait()

	seen := map[int]bool{}
	for _, d := range got.cells {
		if seen[d.Index] {
			t.Fatalf("cell %d reported twice", d.Index)
		}
		seen[d.Index] = true
	}
	if len(seen) != cells {
		t.Fatalf("completed %d distinct cells, want %d", len(seen), cells)
	}
	if delta := metricWorkerOutages.Value() - outagesBefore; delta < 1 {
		t.Fatalf("fabric_worker_outages_total advanced by %d, want >= 1", delta)
	}
	if delta := metricWorkerReconnects.Value() - reconnectsBefore; delta < 1 {
		t.Fatalf("fabric_worker_reconnects_total advanced by %d, want >= 1", delta)
	}
}

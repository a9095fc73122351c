package fabric

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridseg/internal/store"
	"gridseg/internal/testlog"
)

// The lease long poll: a lease request that finds no work is held
// until a run registers cells, a lease expires, its wait ends, its
// client goes away or the coordinator closes. The tests below pin each
// way out of the hold, and the worker's behaviour against a
// coordinator that does not hold.

// arrivals wraps a handler and signals each lease request as it
// reaches the coordinator.
func arrivals(h http.Handler) (http.Handler, <-chan struct{}) {
	c := make(chan struct{}, 64)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/lease" {
			select {
			case c <- struct{}{}:
			default:
			}
		}
		h.ServeHTTP(w, r)
	}), c
}

// awaitLease waits for the next lease request to arrive, then a
// moment more for it to settle into its hold.
func awaitLease(t *testing.T, leases <-chan struct{}) {
	t.Helper()
	select {
	case <-leases:
	case <-time.After(10 * time.Second):
		t.Fatal("no lease request arrived")
	}
	time.Sleep(50 * time.Millisecond)
}

// TestLeaseWaitWakesWorkerOnRegister pins the point of the long poll:
// an idle worker whose lease request is being held starts on a cell
// registered mid-hold at once, in well under its Poll.
func TestLeaseWaitWakesWorkerOnRegister(t *testing.T) {
	coord := NewCoordinator(time.Minute, nil)
	h, leases := arrivals(coord.Handler())
	srv := httptest.NewServer(h)
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{
		Name:        "sleeper",
		Coordinator: srv.URL,
		Client:      srv.Client(),
		Poll:        5 * time.Second,
		Runner:      func(j Job) ([]float64, error) { return []float64{float64(j.Index)}, nil },
		Logger:      testlog.New(t),
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.Run(ctx)
	}()
	defer wg.Wait()
	defer cancel()

	awaitLease(t, leases)
	jobs := []Job{{Index: 0, Key: store.CellSpec{Scope: "wake", Rep: 0}.Key(), Columns: []string{"a"}}}
	start := time.Now()
	done, err := coord.Table().Register("run", jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(w.Poll):
		t.Fatal("a cell registered mid-hold waited out the worker's whole Poll")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cell registered mid-hold took %v to finish; want well under Poll = %v", d, w.Poll)
	}
}

// TestLeaseWaitRegrantsExpiredLease pins the expiry wake: a held
// request re-grants a lease that lapses during the hold as soon as it
// lapses, not when the hold ends.
func TestLeaseWaitRegrantsExpiredLease(t *testing.T) {
	const ttl = 100 * time.Millisecond
	tab := NewTable(ttl, nil)
	if _, err := tab.Register("r1", mkJobs(1), nil); err != nil {
		t.Fatal(err)
	}
	first, ok := tab.Lease("alice")
	if !ok {
		t.Fatal("no lease for alice")
	}
	start := time.Now()
	grants := tab.LeaseWait(context.Background(), "bob", 5*time.Second)
	d := time.Since(start)
	if len(grants) != 1 || grants[0].Job.Index != 0 || grants[0].Lease == first.Lease {
		t.Fatalf("held request got %+v, want cell 0 re-granted", grants)
	}
	if d < ttl/2 || d > 2*time.Second {
		t.Fatalf("expired lease re-granted after %v; want about the TTL %v", d, ttl)
	}
	if _, m := tab.Status(); m.Requeues != 1 {
		t.Fatalf("requeues = %d, want 1", m.Requeues)
	}
}

// TestLeaseWaitReleasedByCancelAndClose pins the two ways a held
// request ends early: its context is canceled, or the table closes.
// After Close, requests answer at once.
func TestLeaseWaitReleasedByCancelAndClose(t *testing.T) {
	tab := NewTable(time.Minute, nil)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	if g := tab.LeaseWait(ctx, "w", 5*time.Second); len(g) != 0 {
		t.Fatalf("empty table granted %+v", g)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("canceled hold returned after %v", d)
	}

	time.AfterFunc(50*time.Millisecond, tab.Close)
	start = time.Now()
	if g := tab.LeaseWait(context.Background(), "w", 5*time.Second); len(g) != 0 {
		t.Fatalf("empty table granted %+v", g)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("hold outlived Close by %v", d)
	}
	start = time.Now()
	tab.LeaseWait(context.Background(), "w", 5*time.Second)
	if d := time.Since(start); d > time.Second {
		t.Fatalf("request after Close was held %v", d)
	}
	tab.Close() // idempotent
}

// TestLeaseHoldReleasedWhenWorkerStops pins the HTTP side of a
// canceled hold: a worker that stops cancels its held request, the
// coordinator's handler returns at once, and so the test server, which
// waits for its handlers, closes without sitting out a 5 s hold.
func TestLeaseHoldReleasedWhenWorkerStops(t *testing.T) {
	coord := NewCoordinator(time.Minute, nil)
	h, leases := arrivals(coord.Handler())
	srv := httptest.NewServer(h)
	ctx, cancel := context.WithCancel(context.Background())
	w := &Worker{Name: "quitter", Coordinator: srv.URL, Client: srv.Client(), Poll: 5 * time.Second}
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		w.Run(ctx)
	}()
	awaitLease(t, leases)
	start := time.Now()
	cancel()
	<-ran
	srv.Close()
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("worker stop and server close took %v with a lease held", d)
	}
}

// TestLeaseWorkerPacesAgainstNonHoldingCoordinator pins the fallback:
// against a coordinator that ignores wait_ms and answers 204 at once,
// a worker sleeps out the rest of its Poll instead of spinning, so it
// sends about one lease request per Poll.
func TestLeaseWorkerPacesAgainstNonHoldingCoordinator(t *testing.T) {
	const poll = 100 * time.Millisecond
	var count atomic.Int64
	var waitMs atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req leaseRequest
		if json.NewDecoder(r.Body).Decode(&req) == nil {
			waitMs.Store(req.WaitMs)
		}
		count.Add(1)
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 550*time.Millisecond)
	defer cancel()
	w := &Worker{Name: "pacer", Coordinator: srv.URL, Client: srv.Client(), Poll: poll}
	w.Run(ctx)
	if n := count.Load(); n < 2 || n > 8 {
		t.Fatalf("worker sent %d lease requests in 550ms at Poll = %v; want about one per Poll", n, poll)
	}
	if got := waitMs.Load(); got != poll.Milliseconds() {
		t.Fatalf("lease requests carried wait_ms = %d, want Poll = %d", got, poll.Milliseconds())
	}
}

package fabric

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"gridseg/internal/store"
)

// fakeClock is a hand-cranked Clock so the lease tests control expiry
// exactly, with no sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// mkJobs builds n trivial jobs with a two-column schema.
func mkJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Index: i, Key: "k", Seed: uint64(i), Columns: []string{"a", "b"}}
	}
	return jobs
}

// collector records CellDone callbacks for assertions.
type collector struct {
	mu    sync.Mutex
	cells []CellDone
}

func (c *collector) add(d CellDone) {
	c.mu.Lock()
	c.cells = append(c.cells, d)
	c.mu.Unlock()
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cells)
}

// TestLeaseExpiryRequeuesOnce pins the expiry path: a lease whose TTL
// lapses without renewal is handed out exactly once more — not zero
// times (lost cell), not twice (duplicated cell).
func TestLeaseExpiryRequeuesOnce(t *testing.T) {
	clock := newFakeClock()
	tab := NewTable(10*time.Second, clock.now)
	var got collector
	done, err := tab.Register("r1", mkJobs(1), got.add)
	if err != nil {
		t.Fatal(err)
	}

	grantA, ok := tab.Lease("alice")
	if !ok {
		t.Fatal("no lease for alice")
	}
	// While the lease is live, nobody else gets the cell.
	if _, ok := tab.Lease("bob"); ok {
		t.Fatal("live lease handed out twice")
	}

	clock.advance(11 * time.Second)
	grantB, ok := tab.Lease("bob")
	if !ok {
		t.Fatal("expired lease must requeue to bob")
	}
	if grantB.Job.Index != 0 || grantB.Lease == grantA.Lease {
		t.Fatalf("bad requeue grant: %+v", grantB)
	}
	if _, m := tab.Status(); m.Requeues != 1 {
		t.Fatalf("requeues = %d, want 1", m.Requeues)
	}
	// The requeued lease is live again: exactly once, not repeatedly.
	if _, ok := tab.Lease("carol"); ok {
		t.Fatal("requeued cell handed out a second time")
	}

	if err := tab.Complete("r1", 0, grantB.Lease, "bob", []float64{1, 2}, ""); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	default:
		t.Fatal("done channel not closed after last cell")
	}
	if got.count() != 1 {
		t.Fatalf("onDone fired %d times, want 1", got.count())
	}
	// Done is absorbing: even after expiry-scale time passes, the cell
	// never reappears.
	clock.advance(time.Hour)
	if _, ok := tab.Lease("dave"); ok {
		t.Fatal("completed cell re-leased")
	}
}

// TestLeaseBatchGrantOrder pins the order a full scan of the table
// grants in, which the per-run cursor and the expiry bound must keep:
// oldest run first and, within a run, position order, with an expired
// lease re-granted in its position ahead of the run's pending cells,
// while renewed and completed cells are skipped.
func TestLeaseBatchGrantOrder(t *testing.T) {
	clock := newFakeClock()
	tab := NewTable(10*time.Second, clock.now)
	if _, err := tab.Register("a", mkJobs(5), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Register("b", mkJobs(2), nil); err != nil {
		t.Fatal(err)
	}
	first := tab.LeaseBatch("alice", 3) // a0, a1, a2
	if err := tab.Complete("a", 1, first[1].Lease, "alice", []float64{1, 2}, ""); err != nil {
		t.Fatal(err)
	}
	clock.advance(8 * time.Second)
	if lost := tab.Renew("alice", []LeaseRef{first[2].ref()}); len(lost) != 0 {
		t.Fatal("heartbeat rejected")
	}
	clock.advance(3 * time.Second) // a0 expired, a2 renewed
	var got []string
	for _, g := range tab.LeaseBatch("bob", 10) {
		got = append(got, fmt.Sprintf("%s%d", g.Job.Run, g.Job.Index))
	}
	if want := "[a0 a3 a4 b0 b1]"; fmt.Sprint(got) != want {
		t.Fatalf("grant order %v, want %s", got, want)
	}
	if _, m := tab.Status(); m.Requeues != 1 {
		t.Fatalf("requeues = %d, want 1", m.Requeues)
	}
}

// TestLeaseSkipsCellCompletedAheadOfCursor pins a completion that
// lands on a cell never leased by this table — a worker reporting a
// lease granted before a coordinator restart. The cell is done: it is
// not granted again, it is reported once, and the run closes only
// after every other cell has been reported too.
func TestLeaseSkipsCellCompletedAheadOfCursor(t *testing.T) {
	tab := NewTable(10*time.Second, newFakeClock().now)
	var got collector
	done, err := tab.Register("r", mkJobs(3), got.add)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Complete("r", 2, 7, "old", []float64{1, 2}, ""); err != nil {
		t.Fatal(err)
	}
	grants := tab.LeaseBatch("w", 3)
	var idx []int
	for _, g := range grants {
		idx = append(idx, g.Job.Index)
	}
	if fmt.Sprint(idx) != "[0 1]" {
		t.Fatalf("granted cells %v, want [0 1]", idx)
	}
	if _, ok := tab.Lease("v"); ok {
		t.Fatal("a cell was granted past the run's end")
	}
	for k, g := range grants {
		select {
		case <-done:
			t.Fatalf("run closed with %d of 3 cells reported", got.count())
		default:
		}
		if err := tab.Complete("r", g.Job.Index, g.Lease, "w", []float64{1, 2}, ""); err != nil {
			t.Fatal(err)
		}
		if k == 0 && got.count() != 2 {
			t.Fatalf("%d cells reported, want 2", got.count())
		}
	}
	select {
	case <-done:
	default:
		t.Fatal("done channel not closed after every cell reported")
	}
	seen := map[int]int{}
	for _, c := range got.cells {
		seen[c.Index]++
	}
	if len(seen) != 3 || seen[0] != 1 || seen[1] != 1 || seen[2] != 1 {
		t.Fatalf("reports per cell %v, want each of 0, 1, 2 once", seen)
	}
}

// TestLateCompletionIdempotent pins the presumed-dead-worker case: the
// cell requeues, the replacement and the original both finish, and the
// cell is reported exactly once — the late completion with the stale
// lease is accepted (the bytes are identical by construction) but
// never double-reported.
func TestLateCompletionIdempotent(t *testing.T) {
	clock := newFakeClock()
	tab := NewTable(10*time.Second, clock.now)
	var got collector
	done, err := tab.Register("r1", mkJobs(2), got.add)
	if err != nil {
		t.Fatal(err)
	}

	grantA, _ := tab.Lease("alice")
	clock.advance(11 * time.Second)
	grantB, ok := tab.Lease("bob")
	if !ok || grantB.Job.Index != grantA.Job.Index {
		t.Fatalf("requeue grant = %+v, %v", grantB, ok)
	}

	// Alice was only presumed dead: her completion lands first, with
	// the stale lease token.
	if err := tab.Complete("r1", 0, grantA.Lease, "alice", []float64{1, 2}, ""); err != nil {
		t.Fatal(err)
	}
	if got.count() != 1 {
		t.Fatalf("onDone fired %d times after first completion, want 1", got.count())
	}
	// Bob finishes the same cell with the same bytes: silently folded.
	if err := tab.Complete("r1", 0, grantB.Lease, "bob", []float64{1, 2}, ""); err != nil {
		t.Fatal(err)
	}
	if got.count() != 1 {
		t.Fatalf("duplicate completion reported: onDone fired %d times", got.count())
	}

	grantC, ok := tab.Lease("carol")
	if !ok || grantC.Job.Index != 1 {
		t.Fatalf("second cell grant = %+v, %v", grantC, ok)
	}
	if err := tab.Complete("r1", 1, grantC.Lease, "carol", []float64{3, 4}, ""); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	default:
		t.Fatal("done channel not closed")
	}
	if got.count() != 2 {
		t.Fatalf("onDone fired %d times, want 2", got.count())
	}
}

// TestHeartbeatRenewal pins that renewal moves the expiry: a
// heartbeating worker keeps its lease arbitrarily long, and the lease
// only requeues once heartbeats stop for a full TTL.
func TestHeartbeatRenewal(t *testing.T) {
	clock := newFakeClock()
	tab := NewTable(10*time.Second, clock.now)
	if _, err := tab.Register("r1", mkJobs(1), nil); err != nil {
		t.Fatal(err)
	}
	grant, _ := tab.Lease("alice")
	for i := 0; i < 5; i++ {
		clock.advance(8 * time.Second)
		if lost := tab.Renew("alice", []LeaseRef{grant.ref()}); len(lost) != 0 {
			t.Fatalf("heartbeat %d rejected", i)
		}
		if _, ok := tab.Lease("bob"); ok {
			t.Fatalf("renewed lease requeued at heartbeat %d", i)
		}
	}
	// 40s past the original expiry, the lease is still alice's. Stop
	// renewing and it lapses; the next hungry worker takes the cell.
	clock.advance(11 * time.Second)
	if _, ok := tab.Lease("bob"); !ok {
		t.Fatal("lapsed lease must requeue")
	}
	// Alice's token is dead once the cell is re-granted.
	if lost := tab.Renew("alice", []LeaseRef{grant.ref()}); len(lost) != 1 {
		t.Fatal("stale heartbeat accepted after re-grant")
	}
}

// TestCompleteErrorAndCancel pins the failure paths: a deterministic
// cell error is delivered once, and completions for canceled runs are
// silent no-ops.
func TestCompleteErrorAndCancel(t *testing.T) {
	clock := newFakeClock()
	tab := NewTable(10*time.Second, clock.now)
	var got collector
	if _, err := tab.Register("r1", mkJobs(2), got.add); err != nil {
		t.Fatal(err)
	}
	grant, _ := tab.Lease("alice")
	if err := tab.Complete("r1", grant.Job.Index, grant.Lease, "alice", nil, "boom"); err != nil {
		t.Fatal(err)
	}
	if got.count() != 1 || got.cells[0].Err != "boom" {
		t.Fatalf("error cell not delivered: %+v", got.cells)
	}
	tab.Cancel("r1")
	if err := tab.Complete("r1", 1, 99, "bob", []float64{1, 2}, ""); err != nil {
		t.Fatal(err)
	}
	if got.count() != 1 {
		t.Fatal("completion for canceled run must not be reported")
	}
	if _, ok := tab.Lease("bob"); ok {
		t.Fatal("canceled run still leasing")
	}
}

// TestCompleteValidates pins the two hard rejections: an out-of-range
// index and a schema-width mismatch are protocol errors, not data.
func TestCompleteValidates(t *testing.T) {
	tab := NewTable(time.Second, nil)
	if _, err := tab.Register("r1", mkJobs(1), nil); err != nil {
		t.Fatal(err)
	}
	if err := tab.Complete("r1", 5, 1, "w", []float64{1, 2}, ""); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if err := tab.Complete("r1", 0, 1, "w", []float64{1}, ""); err == nil {
		t.Fatal("short value vector accepted")
	}
}

// TestNaNValuesCrossTheWire pins the NaN<->null completion encoding.
func TestNaNValuesCrossTheWire(t *testing.T) {
	req := completion{Values: store.NaNFloats([]float64{1, math.NaN(), -2})}
	data, err := req.Values[1].MarshalJSON()
	if err != nil || string(data) != "null" {
		t.Fatalf("NaN marshals to %s, %v", data, err)
	}
	got := store.Float64s(req.Values)
	if got[0] != 1 || !math.IsNaN(got[1]) || got[2] != -2 {
		t.Fatalf("round trip = %v", got)
	}
}

// TestHeartbeatConcurrent exercises lease/heartbeat/complete from many
// goroutines under the race detector: the table must stay consistent
// and report every cell exactly once.
func TestHeartbeatConcurrent(t *testing.T) {
	const cells, workers = 64, 8
	tab := NewTable(50*time.Millisecond, nil)
	var got collector
	done, err := tab.Register("r1", mkJobs(cells), got.add)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := string(rune('a' + w))
			for {
				grant, ok := tab.Lease(name)
				if !ok {
					select {
					case <-done:
						return
					default:
						time.Sleep(time.Millisecond)
						continue
					}
				}
				// Hold the cell across a couple of heartbeat rounds.
				for i := 0; i < 2; i++ {
					time.Sleep(5 * time.Millisecond)
					tab.Renew(name, []LeaseRef{grant.ref()})
				}
				if err := tab.Complete("r1", grant.Job.Index, grant.Lease, name, []float64{float64(grant.Job.Index), 0}, ""); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case <-done:
	default:
		t.Fatal("done not closed")
	}
	if got.count() != cells {
		t.Fatalf("reported %d cells, want %d", got.count(), cells)
	}
	seen := map[int]bool{}
	for _, d := range got.cells {
		if seen[d.Index] {
			t.Fatalf("cell %d reported twice", d.Index)
		}
		seen[d.Index] = true
	}
}

// BenchmarkLeaseBatch measures one single-cell lease against a run of
// 300 and of 30k cells, the table filling with leased cells as the run
// drains. A lease is served from the run's cursor, so its cost should
// not grow with the grid.
func BenchmarkLeaseBatch(b *testing.B) {
	for _, cells := range []int{300, 30000} {
		b.Run(fmt.Sprintf("cells=%d", cells), func(b *testing.B) {
			jobs := mkJobs(cells)
			var tab *Table
			left := 0
			for i := 0; i < b.N; i++ {
				if left == 0 {
					b.StopTimer()
					tab = NewTable(time.Hour, nil)
					if _, err := tab.Register("r", jobs, nil); err != nil {
						b.Fatal(err)
					}
					left = cells
					b.StartTimer()
				}
				if len(tab.LeaseBatch("w", 1)) != 1 {
					b.Fatal("no cell granted")
				}
				left--
			}
		})
	}
}

// TestLeaseGrantSizing pins the table's grant sizing (factoring): a
// grant takes ceil(R/2W) of a run's R available cells, W being the
// workers seen within the last TTL, at most maxGrant and at least one,
// so a run drains in shrinking grants that end in single cells. An
// expired lease is re-granted first, and a worker that went quiet for
// a TTL no longer counts.
func TestLeaseGrantSizing(t *testing.T) {
	const cells = 300
	ceilDiv := func(a, b int) int { return (a + b - 1) / b }
	for _, workers := range []int{2, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			clock := newFakeClock()
			tab := NewTable(10*time.Second, clock.now)
			names := make([]string, workers)
			for w := range names {
				names[w] = fmt.Sprintf("w%d", w)
				// An idle lease request makes the worker known.
				if g := tab.LeaseWait(context.Background(), names[w], 0); len(g) != 0 {
					t.Fatalf("empty table granted %d cells", len(g))
				}
			}
			if _, err := tab.Register("r", mkJobs(cells), nil); err != nil {
				t.Fatal(err)
			}
			var sizes []int
			seen := map[int]bool{}
			for left, k := cells, 0; left > 0; k++ {
				grants := tab.LeaseWait(context.Background(), names[k%workers], 0)
				if want := min(ceilDiv(left, 2*workers), maxGrant); len(grants) != want {
					t.Fatalf("grant %d with %d cells left: %d cells, want ceil(%d/%d) = %d", k, left, len(grants), left, 2*workers, want)
				}
				for _, g := range grants {
					if seen[g.Job.Index] {
						t.Fatalf("cell %d granted twice", g.Job.Index)
					}
					seen[g.Job.Index] = true
				}
				sizes = append(sizes, len(grants))
				left -= len(grants)
			}
			if workers == 2 && fmt.Sprint(sizes[:3]) != "[75 57 42]" {
				t.Fatalf("first grants %v, want [75 57 42]", sizes[:3])
			}
			// The run's last cells go out one at a time, one round per
			// worker at least.
			for _, n := range sizes[len(sizes)-workers:] {
				if n != 1 {
					t.Fatalf("tail grants %v, want single cells", sizes[len(sizes)-workers:])
				}
			}
			if g := tab.LeaseWait(context.Background(), names[0], 0); len(g) != 0 {
				t.Fatalf("drained run granted %d more cells", len(g))
			}
			t.Logf("%d workers: %d grants %v", workers, len(sizes), sizes)
		})
	}

	t.Run("cap", func(t *testing.T) {
		tab := NewTable(10*time.Second, newFakeClock().now)
		if _, err := tab.Register("r", mkJobs(10*maxGrant), nil); err != nil {
			t.Fatal(err)
		}
		if g := tab.LeaseWait(context.Background(), "solo", 0); len(g) != maxGrant {
			t.Fatalf("one worker on %d cells got %d, want the cap %d", 10*maxGrant, len(g), maxGrant)
		}
	})

	t.Run("expiry", func(t *testing.T) {
		clock := newFakeClock()
		tab := NewTable(10*time.Second, clock.now)
		for _, w := range []string{"a", "b", "c"} {
			tab.LeaseWait(context.Background(), w, 0)
		}
		if _, err := tab.Register("r", mkJobs(cells), nil); err != nil {
			t.Fatal(err)
		}
		held := map[string][]LeaseRef{}
		for _, w := range []string{"a", "b", "c"} {
			for _, g := range tab.LeaseWait(context.Background(), w, 0) {
				held[w] = append(held[w], g.ref())
			}
		}
		if n := []int{len(held["a"]), len(held["b"]), len(held["c"])}; fmt.Sprint(n) != "[50 42 35]" {
			t.Fatalf("grants %v, want [50 42 35]", n)
		}
		// b and c renew their leases; a goes quiet, so its leases lapse
		// and it stops counting as a worker.
		clock.advance(8 * time.Second)
		for _, w := range []string{"b", "c"} {
			if lost := tab.Renew(w, held[w]); len(lost) != 0 {
				t.Fatalf("%s lost %d live leases", w, len(lost))
			}
		}
		clock.advance(3 * time.Second)
		grants := tab.LeaseWait(context.Background(), "b", 0)
		// R = 50 expired + 173 pending, W = 2 (b and c).
		if want := ceilDiv(50+173, 4); len(grants) != want {
			t.Fatalf("grant after expiry: %d cells, want %d", len(grants), want)
		}
		for i, g := range grants {
			want := i // a's cells 0..49 first, then the pending cells from 127
			if i >= 50 {
				want = 127 + i - 50
			}
			if g.Job.Index != want {
				t.Fatalf("grant position %d is cell %d, want %d (expired leases first)", i, g.Job.Index, want)
			}
		}
		if _, m := tab.Status(); m.Requeues != 50 {
			t.Fatalf("requeues = %d, want 50", m.Requeues)
		}
		if lost := tab.Renew("a", held["a"]); len(lost) != 50 {
			t.Fatalf("a renewed its re-granted leases: %d of 50 lost", len(lost))
		}
	})
}

package fabric

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Clock is the lease table's time source, injectable so the expiry
// protocol is testable without sleeping.
type Clock func() time.Time

// DefaultTTL is the lease TTL used when a Table is built with zero.
// Workers heartbeat at a third of the TTL, so transient stalls of two
// missed heartbeats survive; a worker gone for a full TTL loses the
// cell to requeue.
const DefaultTTL = 15 * time.Second

// CellDone reports one finished cell to the run's owner. Err carries a
// deterministic compute failure (the run should be failed, not the
// cell retried — the same inputs would fail anywhere).
type CellDone struct {
	// Index is the cell's Job.Index — its position in the grid's
	// canonical cell order, not its registration position.
	Index  int
	Values []float64
	Worker string
	Err    string
}

// cellState is the lease state machine:
//
//	pending ──lease──▶ leased ──complete──▶ done
//	   ▲                  │
//	   └──── TTL expiry ──┘   (requeue: the next Lease call re-grants)
//
// done is absorbing: late completions from presumed-dead workers are
// accepted idempotently (the bytes are identical by construction) and
// never reported twice.
type cellState uint8

const (
	statePending cellState = iota
	stateLeased
	stateDone
)

// Table is the coordinator's lease table. All state is in memory: the
// durable artifact of a run is the content-addressed store, so a
// coordinator restart just recomputes leases (and cache hits make the
// replay cheap).
//
// The completion callback registered with a run executes with the
// table locked, which serializes callbacks and guarantees that when a
// run's done channel closes every callback has returned. Callbacks
// must therefore not call back into the Table.
type Table struct {
	mu       sync.Mutex
	now      Clock
	ttl      time.Duration
	seq      uint64
	order    []string
	runs     map[string]*tableRun
	requeues int
	// wake is closed and replaced whenever Register adds pending cells,
	// releasing every LeaseWait that found nothing to grant; closed is
	// closed once by Close.
	wake      chan struct{}
	closed    chan struct{}
	closeOnce sync.Once
	// nextExpiry is a lower bound on the earliest expiry of a leased
	// cell (zero when none is leased). Leased cells are scanned for
	// expiry only once it has passed; heartbeats and completions may
	// leave it early, which costs one scan that finds nothing.
	nextExpiry time.Time
	// Observability aggregates, cumulative across runs (see
	// TableMetrics). Guarded by mu like everything else; the protocol
	// handlers already hold it at every increment site.
	grants      int
	expiries    int
	completions int
	completedBy map[string]int
	leaseCount  int
	leaseSum    float64 // seconds, grant -> accepted completion
	leaseMax    float64
	// Restart-recovery aggregates: runs re-registered from the journal
	// on reboot, and their cells found in the store instead of
	// recomputed.
	recoveredRuns  int
	recoveredCells int
	// active records each worker's last lease request, heartbeat or
	// completion; the workers seen within the last TTL are the W of
	// the grant-sizing rule (see grantSizeLocked).
	active map[string]time.Time
}

// NoteRecovered adds to the restart-recovery aggregates surfaced in
// TableMetrics and the fabric_recovered_cells_total counter: runs
// re-registered from the journal, and cells their re-registration
// scan found in the store.
func (t *Table) NoteRecovered(runs, cells int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recoveredRuns += runs
	t.recoveredCells += cells
	if cells > 0 {
		metricRecoveredCells.Add(uint64(cells))
	}
}

type tableRun struct {
	jobs      []Job
	state     []cellState
	lease     []uint64
	worker    []string
	expiry    []time.Time
	granted   []time.Time
	remaining int
	// pending counts the cells in statePending: never granted and not
	// yet completed. It is the R of the grant-sizing rule, together
	// with the run's expired leases.
	pending int
	// next is the lease cursor. Pending cells are granted in position
	// order and never return to pending, so every position before next
	// is leased or done. Positions from next on are pending or done: a
	// completion may land on a cell that was never leased (a worker
	// reporting a lease granted before a coordinator restart), and the
	// cursor steps over such cells.
	next   int
	onDone func(CellDone)
	done   chan struct{}
	// byIndex maps a Job.Index (the wire identity workers report back)
	// to the job's position in the slices above. The two differ when a
	// run registers only a subset of its grid's cells — the cache
	// misses — so positions are dense while Job indices are sparse.
	byIndex map[int]int
}

// NewTable builds a lease table. A zero ttl means DefaultTTL; a nil
// clock means time.Now.
func NewTable(ttl time.Duration, clock Clock) *Table {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	if clock == nil {
		clock = time.Now
	}
	return &Table{now: clock, ttl: ttl, runs: map[string]*tableRun{}, completedBy: map[string]int{},
		active: map[string]time.Time{}, wake: make(chan struct{}), closed: make(chan struct{})}
}

// Register adds a run's cells to the table and returns a channel that
// closes when every cell has completed. onDone fires exactly once per
// cell, serialized, before the channel closes. Lease requests held in
// LeaseWait are woken to take the new cells.
func (t *Table) Register(runID string, jobs []Job, onDone func(CellDone)) (<-chan struct{}, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.runs[runID]; ok {
		return nil, fmt.Errorf("fabric: run %s already registered", runID)
	}
	r := &tableRun{
		jobs:      make([]Job, len(jobs)),
		state:     make([]cellState, len(jobs)),
		lease:     make([]uint64, len(jobs)),
		worker:    make([]string, len(jobs)),
		expiry:    make([]time.Time, len(jobs)),
		granted:   make([]time.Time, len(jobs)),
		remaining: len(jobs),
		pending:   len(jobs),
		onDone:    onDone,
		done:      make(chan struct{}),
		byIndex:   make(map[int]int, len(jobs)),
	}
	copy(r.jobs, jobs)
	for i := range r.jobs {
		r.jobs[i].Run = runID
		if _, dup := r.byIndex[r.jobs[i].Index]; dup {
			return nil, fmt.Errorf("fabric: run %s registers cell index %d twice", runID, r.jobs[i].Index)
		}
		r.byIndex[r.jobs[i].Index] = i
	}
	if r.remaining == 0 {
		close(r.done)
		return r.done, nil
	}
	t.runs[runID] = r
	t.order = append(t.order, runID)
	close(t.wake)
	t.wake = make(chan struct{})
	return r.done, nil
}

// Close releases every lease request held in LeaseWait; later ones
// answer at once, so a coordinator shutting down never waits out a
// hold. Leasing itself keeps working. Close is idempotent.
func (t *Table) Close() {
	t.closeOnce.Do(func() { close(t.closed) })
}

// Cancel removes a run from the table. In-flight completions for a
// canceled run are accepted as no-ops; the done channel is left open
// (the canceler has already decided the run's fate).
func (t *Table) Cancel(runID string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.removeLocked(runID)
}

func (t *Table) removeLocked(runID string) {
	if _, ok := t.runs[runID]; !ok {
		return
	}
	delete(t.runs, runID)
	for i, id := range t.order {
		if id == runID {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
}

// Lease grants the oldest available cell to worker: a pending cell, or
// a leased cell whose TTL has expired (which counts as a requeue). The
// boolean reports whether any work was available.
func (t *Table) Lease(worker string) (LeaseGrant, bool) {
	grants := t.LeaseBatch(worker, 1)
	if len(grants) == 0 {
		return LeaseGrant{}, false
	}
	return grants[0], true
}

// LeaseBatch grants up to n available cells to worker in one call,
// a grant of a fixed size rather than the sized one of LeaseWait; an
// empty slice means no work was available. Cells are granted oldest run
// first and, within a run, in position order. An n below 1 means 1.
func (t *Table) LeaseBatch(worker string, n int) []LeaseGrant {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.leaseLocked(worker, max(n, 1))
}

// LeaseWait is the coordinator's lease: it grants worker a batch of
// cells sized by the table (see grantSizeLocked), and as a long poll,
// when no cell is available, holds the request until Register adds
// cells, the earliest lease expires (so the expired cell is re-granted
// at once), wait elapses, ctx is canceled, or the table is closed, and
// returns what it could grant by then. A wait <= 0 answers at once.
// Every call is observed in fabric_lease_wait_seconds.
func (t *Table) LeaseWait(ctx context.Context, worker string, wait time.Duration) []LeaseGrant {
	start := time.Now()
	defer func() { metricLeaseWaitSeconds.Observe(time.Since(start).Seconds()) }()
	var hold <-chan time.Time
	for {
		t.mu.Lock()
		grants := t.leaseLocked(worker, 0)
		wake, next, now := t.wake, t.nextExpiry, t.now()
		t.mu.Unlock()
		if len(grants) > 0 || wait <= 0 {
			return grants
		}
		if hold == nil {
			timer := time.NewTimer(wait)
			defer timer.Stop()
			hold = timer.C
		}
		var expire <-chan time.Time
		var expiry *time.Timer
		if !next.IsZero() {
			d := next.Sub(now)
			if d < time.Millisecond {
				d = time.Millisecond
			}
			expiry = time.NewTimer(d)
			expire = expiry.C
		}
		released := true
		select {
		case <-wake:
			released = false
		case <-expire:
			released = false
		case <-hold:
		case <-ctx.Done():
		case <-t.closed:
		}
		if expiry != nil {
			expiry.Stop()
		}
		if released {
			return nil
		}
	}
}

// leaseLocked grants worker up to size cells, or, with size 0, as many
// as grantSizeLocked allows for the first run with a cell available;
// t.mu must be held. Each run serves its pending cells from its cursor,
// skipping cells completed ahead of it, so a grant costs O(runs)
// amortized, not O(cells). Only when nextExpiry has passed are the
// runs' leased cells scanned: an expired one is re-granted ahead of the
// run's pending cells, the position order of a full scan, and the scan
// continues past a full grant to recompute nextExpiry.
func (t *Table) leaseLocked(worker string, size int) []LeaseGrant {
	now := t.now()
	t.active[worker] = now
	due := !t.nextExpiry.IsZero() && !now.Before(t.nextExpiry)
	if due {
		t.nextExpiry = time.Time{}
	}
	var out []LeaseGrant
	for _, id := range t.order {
		r := t.runs[id]
		var expired []int
		if due {
			for i := 0; i < r.next; i++ {
				if r.state[i] != stateLeased {
					continue
				}
				if r.expiry[i].After(now) {
					t.noteExpiry(r.expiry[i])
					continue
				}
				expired = append(expired, i)
			}
		}
		if size == 0 && len(expired)+r.pending > 0 {
			size = t.grantSizeLocked(len(expired)+r.pending, now)
		}
		for _, i := range expired {
			if len(out) == size {
				t.noteExpiry(r.expiry[i])
				continue
			}
			t.requeues++
			metricLeaseRequeues.Inc()
			out = t.grantLocked(out, r, i, worker, now)
		}
		for len(out) < size && r.next < len(r.jobs) {
			if r.state[r.next] == statePending {
				r.pending--
				out = t.grantLocked(out, r, r.next, worker, now)
			}
			r.next++
		}
		if size > 0 && len(out) == size && !due {
			break
		}
	}
	return out
}

// grantSizeLocked is the table's grant-sizing rule, factoring
// (Hummel, Schonberg and Flynn): a grant takes ceil(R/2W) of a run's R
// available cells, where W is the number of workers that asked for a
// lease, heartbeated or completed within the last TTL (at least 1). A
// grant holds at least one cell and at most maxGrant. Each worker's
// first grants carry the bulk of a run in a few round trips, and the
// grants shrink as the run drains, down to single cells at its tail, so
// the last cells still spread over every worker instead of waiting
// behind one worker's long batch. Workers not seen within the TTL are
// forgotten here.
func (t *Table) grantSizeLocked(avail int, now time.Time) int {
	w := 0
	for name, seen := range t.active {
		if now.Sub(seen) >= t.ttl {
			delete(t.active, name)
			continue
		}
		w++
	}
	w = max(w, 1)
	return min(max((avail+2*w-1)/(2*w), 1), maxGrant)
}

// grantLocked leases run r's cell i to worker and appends the grant.
func (t *Table) grantLocked(out []LeaseGrant, r *tableRun, i int, worker string, now time.Time) []LeaseGrant {
	t.seq++
	t.grants++
	metricLeaseGrants.Inc()
	r.state[i] = stateLeased
	r.lease[i] = t.seq
	r.worker[i] = worker
	r.expiry[i] = now.Add(t.ttl)
	r.granted[i] = now
	t.noteExpiry(r.expiry[i])
	return append(out, LeaseGrant{Job: r.jobs[i], Lease: t.seq, TTLMilli: t.ttl.Milliseconds()})
}

// noteExpiry lowers nextExpiry to e when e is earlier.
func (t *Table) noteExpiry(e time.Time) {
	if t.nextExpiry.IsZero() || e.Before(t.nextExpiry) {
		t.nextExpiry = e
	}
}

// Renew renews every lease worker lists and returns the ones that are
// no longer current, in list order. An expired lease that nobody has
// requeued yet can still be renewed — the worker is alive, merely
// late, and reviving its lease avoids duplicate work. A lost lease
// tells the worker its cell was requeued (or the run canceled); it may
// keep computing — a late completion is still accepted — but renewal
// is over.
func (t *Table) Renew(worker string, leases []LeaseRef) (lost []LeaseRef) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.active[worker] = t.now()
	for _, l := range leases {
		if !t.heartbeatLocked(l.Run, l.Index, l.Lease) {
			lost = append(lost, l)
		}
	}
	return lost
}

// heartbeatLocked renews one lease, reporting whether it is still
// current; t.mu must be held.
func (t *Table) heartbeatLocked(runID string, index int, lease uint64) bool {
	r, ok := t.runs[runID]
	if !ok {
		return false
	}
	i, ok := r.byIndex[index]
	if !ok {
		return false
	}
	if r.state[i] != stateLeased || r.lease[i] != lease {
		t.expiries++
		metricLeaseExpiries.Inc()
		return false
	}
	r.expiry[i] = t.now().Add(t.ttl)
	return true
}

// Complete records a cell result. It is idempotent: completions for
// unknown (canceled) runs and already-done cells are accepted
// silently, and a stale lease token does not invalidate the result —
// cells are content-addressed, so a presumed-dead worker's late answer
// carries exactly the bytes the replacement would produce. Only the
// first completion fires the run's callback, so a cell is never
// double-reported.
func (t *Table) Complete(runID string, index int, lease uint64, worker string, values []float64, errMsg string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.active[worker] = t.now()
	r, ok := t.runs[runID]
	if !ok {
		return nil
	}
	i, ok := r.byIndex[index]
	if !ok {
		return fmt.Errorf("fabric: run %s has no cell %d", runID, index)
	}
	if r.state[i] == stateDone {
		return nil
	}
	if errMsg == "" && len(values) != len(r.jobs[i].Columns) {
		return fmt.Errorf("fabric: cell %d: got %d values, want %d", index, len(values), len(r.jobs[i].Columns))
	}
	if !r.granted[i].IsZero() {
		d := t.now().Sub(r.granted[i]).Seconds()
		if d < 0 {
			d = 0
		}
		t.leaseCount++
		t.leaseSum += d
		if d > t.leaseMax {
			t.leaseMax = d
		}
		metricLeaseSeconds.Observe(d)
	}
	t.completions++
	t.completedBy[worker]++
	metricCompletions.Inc()
	if r.state[i] == statePending {
		r.pending--
	}
	r.state[i] = stateDone
	r.worker[i] = worker
	r.remaining--
	if r.onDone != nil {
		r.onDone(CellDone{Index: index, Values: values, Worker: worker, Err: errMsg})
	}
	if r.remaining == 0 {
		t.removeLocked(runID)
		close(r.done)
	}
	return nil
}

// RunStatus summarizes one registered run for the status endpoint.
type RunStatus struct {
	Run     string `json:"run"`
	Cells   int    `json:"cells"`
	Pending int    `json:"pending"`
	Leased  int    `json:"leased"`
	Done    int    `json:"done"`
}

// TableMetrics is the coordinator's cumulative protocol snapshot,
// served as JSON inside GET /fabric/status so autoscalers can read
// lease health from the endpoint they already poll. The same events
// feed the Prometheus counters on /metrics; this struct is the
// scrape-free view. Lease latency is the grant-to-accepted-completion
// time, aggregated as count/sum/max (mean = sum/count).
type TableMetrics struct {
	Requeues          int            `json:"requeues"`
	Grants            int            `json:"grants"`
	Expiries          int            `json:"expiries"`
	Completions       int            `json:"completions"`
	CompletedByWorker map[string]int `json:"completed_by_worker"`
	LeaseSecondsCount int            `json:"lease_seconds_count"`
	LeaseSecondsSum   float64        `json:"lease_seconds_sum"`
	LeaseSecondsMax   float64        `json:"lease_seconds_max"`
	// RecoveredRuns and RecoveredCells surface coordinator restart
	// recovery: runs re-registered from the journal on reboot, and
	// their cells found in the store instead of recomputed.
	RecoveredRuns  int `json:"recovered_runs"`
	RecoveredCells int `json:"recovered_cells"`
}

// Status snapshots the table: per-run cell counts plus the cumulative
// protocol metrics.
func (t *Table) Status() ([]RunStatus, TableMetrics) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]RunStatus, 0, len(t.order))
	for _, id := range t.order {
		r := t.runs[id]
		s := RunStatus{Run: id, Cells: len(r.jobs)}
		for i := range r.state {
			switch r.state[i] {
			case statePending:
				s.Pending++
			case stateLeased:
				s.Leased++
			default:
				s.Done++
			}
		}
		out = append(out, s)
	}
	m := TableMetrics{
		Requeues:          t.requeues,
		Grants:            t.grants,
		Expiries:          t.expiries,
		Completions:       t.completions,
		CompletedByWorker: make(map[string]int, len(t.completedBy)),
		LeaseSecondsCount: t.leaseCount,
		LeaseSecondsSum:   t.leaseSum,
		LeaseSecondsMax:   t.leaseMax,
		RecoveredRuns:     t.recoveredRuns,
		RecoveredCells:    t.recoveredCells,
	}
	for w, n := range t.completedBy {
		m.CompletedByWorker[w] = n
	}
	return out, m
}

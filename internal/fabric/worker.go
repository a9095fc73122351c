package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"gridseg/internal/rng"
	"gridseg/internal/store"
)

// Worker is the compute side of the fabric: a loop that leases cells
// from a coordinator, serves them from the shared store when possible,
// computes them otherwise, and reports completion. The worker never
// writes the store: the completion carries the values, and the
// coordinator fills its store from it.
//
// The loop is deliberately stateless between cells — a worker can die
// at any point without corrupting anything. Die before completion and
// the lease expires and the cell requeues to a worker that computes it
// again, to the same bytes.
//
// The loop also outlives the coordinator: every HTTP call carries a
// per-request deadline (RequestTimeout), so a dead or partitioned
// coordinator can never hang the worker, and lease failures back off
// exponentially with jitter (BackoffBase..BackoffMax) until the
// coordinator is reachable again — a coordinator restart needs no
// operator intervention on the worker side. Outage entries and
// recoveries are counted in fabric_worker_outages_total and
// fabric_worker_reconnects_total.
type Worker struct {
	// Name identifies the worker in leases and SSE events.
	Name string
	// Coordinator is the base URL of the fabric endpoints, e.g.
	// "http://host:8080/fabric".
	Coordinator string
	// Client is the HTTP client; nil means http.DefaultClient. The
	// chaos tests inject faults through this client's transport.
	Client *http.Client
	// Store is the shared result store (usually a store.Remote over
	// the coordinator's object endpoint), probed before computing a
	// cell; the worker only reads it. Optional: nil disables the probe.
	Store store.Backend
	// Runner computes one cell. Required.
	Runner func(Job) ([]float64, error)
	// Poll is how long an idle worker waits for work per lease request.
	// It is sent as the request's wait_ms, so the coordinator holds the
	// request until a cell is available or Poll elapses, and the worker
	// starts on a new grid the moment it registers. An empty answer that
	// comes back sooner (from a coordinator that ignores wait_ms) is
	// followed by a sleep for the rest of Poll, so an idle worker sends
	// at most about one lease request per Poll. Zero means 200ms.
	Poll time.Duration
	// RequestTimeout bounds every fabric HTTP round trip, plus Poll for
	// a lease request the coordinator may hold; zero means 10s.
	// Without it a coordinator that accepts the connection and
	// then dies (or a black-holing network) would hang the worker
	// forever mid-request.
	RequestTimeout time.Duration
	// BackoffBase and BackoffMax shape the capped exponential backoff
	// (with jitter) applied to failed lease and completion attempts;
	// zero means 100ms base and 5s cap.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// LeaseMax asks the coordinator for up to k cells per lease round
	// trip (batched leasing; heartbeats and completions stay per
	// cell). Values < 2 lease one cell at a time.
	LeaseMax int
	// Token, when non-empty, is sent as an "Authorization: Bearer"
	// header on every fabric call, matching the coordinator's -token.
	Token string
	// Logger, when non-nil, receives structured progress and retry
	// events (log/slog) tagged with the worker name and per-cell
	// attrs. It takes precedence over Logf.
	Logger *slog.Logger
	// Logf receives progress and retry noise when Logger is nil; nil
	// discards it. Kept for tests that want t.Logf plumbing.
	Logf func(format string, args ...any)

	// jitter randomizes backoff so a worker fleet released by a
	// coordinator restart does not stampede in lockstep. Seeded from
	// the worker name; only touched from the Run goroutine.
	jitter *rng.Source
}

// completeRetries bounds how often a worker retries posting one
// completion before abandoning the cell to lease expiry. With the
// default backoff shape the retries span several seconds, enough to
// ride out a coordinator restart.
const completeRetries = 6

// Run executes the lease loop until ctx is canceled, returning
// ctx.Err(). Transport errors never abort the loop — a worker outlives
// coordinator restarts, backing off between attempts and resuming
// leasing as soon as the coordinator answers again.
func (w *Worker) Run(ctx context.Context) error {
	poll := w.Poll
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	failures := 0
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		asked := time.Now()
		grants, err := w.lease(ctx, poll)
		if err != nil {
			if failures == 0 {
				metricWorkerOutages.Inc()
				w.log("coordinator unreachable, backing off", "err", err)
			}
			failures++
			if !sleep(ctx, w.backoff(failures)) {
				return ctx.Err()
			}
			continue
		}
		if failures > 0 {
			metricWorkerReconnects.Inc()
			w.log("coordinator reachable again", "failed_attempts", failures)
			failures = 0
		}
		if len(grants) == 0 {
			if rest := poll - time.Since(asked); rest > 0 && !sleep(ctx, rest) {
				return ctx.Err()
			}
			continue
		}
		w.workBatch(ctx, grants)
	}
}

// backoff returns the capped exponential wait before retry `attempt`
// (1-based), jittered over the upper half of the window so a fleet of
// workers spreads its retries instead of stampeding together.
func (w *Worker) backoff(attempt int) time.Duration {
	base := w.BackoffBase
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := w.BackoffMax
	if max <= 0 {
		max = 5 * time.Second
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if w.jitter == nil {
		h := fnv.New64a()
		h.Write([]byte(w.Name))
		w.jitter = rng.New(h.Sum64() | 1)
	}
	return d/2 + time.Duration(w.jitter.Float64()*float64(d/2))
}

// leaseKey identifies one held grant; a batch can span runs, so the
// cell index alone is not unique.
type leaseKey struct {
	run   string
	index int
}

// heldLeases is the set of grants a worker currently holds, shared
// between the batch's compute loop and its heartbeat goroutine.
type heldLeases struct {
	mu     sync.Mutex
	grants map[leaseKey]LeaseGrant
}

func newHeldLeases(grants []LeaseGrant) *heldLeases {
	h := &heldLeases{grants: make(map[leaseKey]LeaseGrant, len(grants))}
	for _, g := range grants {
		h.grants[leaseKey{g.Job.Run, g.Job.Index}] = g
	}
	return h
}

func (h *heldLeases) remove(g LeaseGrant) {
	h.mu.Lock()
	delete(h.grants, leaseKey{g.Job.Run, g.Job.Index})
	h.mu.Unlock()
}

func (h *heldLeases) snapshot() []LeaseGrant {
	h.mu.Lock()
	out := make([]LeaseGrant, 0, len(h.grants))
	for _, g := range h.grants {
		out = append(out, g)
	}
	h.mu.Unlock()
	return out
}

// workBatch handles one lease batch end to end: a single heartbeat
// goroutine renews every still-held grant while the cells are computed
// in order. A worker killed mid-batch stops heartbeating everything,
// and all its unfinished leases expire and requeue.
func (w *Worker) workBatch(ctx context.Context, grants []LeaseGrant) {
	held := newHeldLeases(grants)
	hbCtx, stopHB := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeats(hbCtx, grants[0].TTLMilli, held)
	}()
	for _, g := range grants {
		if ctx.Err() != nil {
			break
		}
		w.workCell(ctx, g)
		held.remove(g)
	}
	stopHB()
	<-hbDone
}

// workCell handles one granted lease: store probe, compute,
// completion. The completion carries the values, and the coordinator
// fills the store from it; heartbeats are the batch's job, not the
// cell's.
func (w *Worker) workCell(ctx context.Context, grant LeaseGrant) {
	job := grant.Job
	if w.Store != nil {
		if v, ok, err := w.Store.Get(job.Key); err == nil && ok && len(v) == len(job.Columns) {
			w.complete(ctx, grant, v, true, "")
			return
		}
	}
	values, err := w.Runner(job)
	if ctx.Err() != nil {
		// Killed mid-cell: abandon without completing. Even if the
		// runner returned a value, reporting it now would race our own
		// shutdown; the lease expiry path covers the cell.
		return
	}
	if err != nil {
		w.complete(ctx, grant, nil, false, err.Error())
		return
	}
	w.complete(ctx, grant, values, false, "")
}

// lease asks the coordinator for up to LeaseMax cells, letting it hold
// the request up to wait for one to appear. A nil slice with nil error
// means no work became available.
func (w *Worker) lease(ctx context.Context, wait time.Duration) ([]LeaseGrant, error) {
	max := w.LeaseMax
	if max < 1 {
		max = 1
	}
	status, body, err := w.post(ctx, "/lease", leaseRequest{Worker: w.Name, Max: max, WaitMs: wait.Milliseconds()}, wait)
	if err != nil {
		return nil, err
	}
	switch status {
	case http.StatusNoContent:
		return nil, nil
	case http.StatusOK:
	default:
		return nil, fmt.Errorf("lease: %s", respError(status, body))
	}
	if max > 1 {
		var batch leaseBatchResponse
		if err := json.Unmarshal(body, &batch); err != nil {
			return nil, fmt.Errorf("lease: %w", err)
		}
		return batch.Grants, nil
	}
	var grant LeaseGrant
	if err := json.Unmarshal(body, &grant); err != nil {
		return nil, fmt.Errorf("lease: %w", err)
	}
	return []LeaseGrant{grant}, nil
}

// heartbeats renews every held lease at a third of the TTL until
// stopped. A 409 means that lease was requeued; its renewal stops but
// the computation continues — the completion will still be accepted
// idempotently. Transport failures are logged and retried on the next
// tick; the per-request deadline keeps a dead coordinator from
// hanging the goroutine.
func (w *Worker) heartbeats(ctx context.Context, ttlMilli int64, held *heldLeases) {
	interval := time.Duration(ttlMilli) * time.Millisecond / 3
	if interval <= 0 {
		interval = time.Second
	}
	for {
		if !sleep(ctx, interval) {
			return
		}
		for _, g := range held.snapshot() {
			status, _, err := w.post(ctx, "/heartbeat", heartbeatRequest{Run: g.Job.Run, Index: g.Job.Index, Lease: g.Lease}, 0)
			if err != nil {
				w.log("heartbeat failed", "run", g.Job.Run, "cell", g.Job.Index, "err", err)
				continue
			}
			if status == http.StatusConflict {
				w.log("lease lost", "run", g.Job.Run, "cell", g.Job.Index)
				held.remove(g)
			}
		}
	}
}

// complete reports a finished cell, retrying with backoff through
// transport faults: the coordinator's Complete is idempotent, so a
// torn connection whose request actually landed is safely resent, and
// the backoff window is wide enough to span a coordinator restart.
func (w *Worker) complete(ctx context.Context, grant LeaseGrant, values []float64, cached bool, errMsg string) {
	req := completeRequest{
		Run:    grant.Job.Run,
		Index:  grant.Job.Index,
		Lease:  grant.Lease,
		Worker: w.Name,
		Cached: cached,
		Values: encodeValues(values),
		Error:  errMsg,
	}
	for attempt := 1; attempt <= completeRetries; attempt++ {
		status, body, err := w.post(ctx, "/complete", req, 0)
		if err == nil {
			if status == http.StatusNoContent || status == http.StatusOK {
				if errMsg == "" {
					w.log("cell complete", "run", grant.Job.Run, "cell", grant.Job.Index, "cached", cached)
				}
				return
			}
			w.log("complete rejected", "run", grant.Job.Run, "cell", grant.Job.Index, "status", status, "body", respError(status, body))
		} else {
			w.log("complete failed", "run", grant.Job.Run, "cell", grant.Job.Index, "err", err)
		}
		if !sleep(ctx, w.backoff(attempt)) {
			return
		}
	}
	// Abandoned: the lease expires and the cell requeues, and the
	// next worker recomputes the same bytes.
	w.log("complete abandoned", "run", grant.Job.Run, "cell", grant.Job.Index, "attempts", completeRetries)
}

// post sends one JSON protocol request under the per-request deadline,
// stretched by hold for a request the coordinator may hold, and returns
// the status plus the (bounded) response body. The body is fully
// consumed before returning so the deadline covers the whole exchange
// and the connection is reusable.
func (w *Worker) post(ctx context.Context, path string, body any, hold time.Duration) (int, []byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	timeout := w.RequestTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	rctx, cancel := context.WithTimeout(ctx, timeout+hold)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, strings.TrimRight(w.Coordinator, "/")+path, bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if w.Token != "" {
		req.Header.Set("Authorization", "Bearer "+w.Token)
	}
	client := w.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

// log emits one structured event. With a Logger it goes through
// log/slog at Info with the worker name attached; otherwise the attrs
// are rendered as k=v pairs through Logf so tests wiring t.Logf keep
// readable output.
func (w *Worker) log(msg string, attrs ...any) {
	if w.Logger != nil {
		w.Logger.Info(msg, append([]any{slog.String("worker", w.Name)}, attrs...)...)
		return
	}
	if w.Logf == nil {
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fabric worker %s: %s", w.Name, msg)
	for i := 0; i+1 < len(attrs); i += 2 {
		fmt.Fprintf(&b, " %v=%v", attrs[i], attrs[i+1])
	}
	w.Logf("%s", b.String())
}

// respError summarizes a non-success protocol response.
func respError(status int, body []byte) string {
	msg := strings.TrimSpace(string(body))
	if i := strings.IndexByte(msg, '\n'); i >= 0 {
		msg = msg[:i]
	}
	if len(msg) > 256 {
		msg = msg[:256]
	}
	if msg == "" {
		return http.StatusText(status)
	}
	return fmt.Sprintf("%d %s: %s", status, http.StatusText(status), msg)
}

// sleep waits for d or until ctx is canceled, reporting whether the
// full wait elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

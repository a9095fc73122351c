package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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

// Worker is the compute side of the fabric: a loop that leases batches
// of cells from a coordinator (the coordinator sizes each batch),
// computes each cell, and reports the batch's completions in one post
// at its end and on every heartbeat tick. The worker never touches the
// store: the coordinator leases only cells its store lacked, the
// completions carry the values, and the coordinator fills its store
// from them.
//
// The only state a worker keeps between batches is the completions
// the coordinator has not acknowledged yet, and a worker can die at
// any point without corrupting anything. Die before reporting and the
// leases expire and the cells requeue to a worker that computes them
// again, to the same bytes.
//
// The loop also outlives the coordinator: every HTTP call carries a
// per-request deadline (RequestTimeout), so a dead or partitioned
// coordinator can never hang the worker, and lease failures back off
// exponentially with jitter (BackoffBase..BackoffMax) until the
// coordinator is reachable again — a coordinator restart needs no
// operator intervention on the worker side. Completions a failed post
// could not deliver are kept and sent again before the next lease:
// completion is idempotent, so a resent cell that did land is a no-op.
// Outage entries and recoveries are counted in
// fabric_worker_outages_total and fabric_worker_reconnects_total.
type Worker struct {
	// Name identifies the worker in leases and SSE events.
	Name string
	// Coordinator is the base URL of the fabric endpoints, e.g.
	// "http://host:8080/fabric".
	Coordinator string
	// Client is the HTTP client; nil means http.DefaultClient. The
	// chaos tests inject faults through this client's transport.
	Client *http.Client
	// Store is ignored: the worker computes every leased cell without
	// probing a store. The field remains only for callers that still
	// set it.
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
	// Token, when non-empty, is sent as an "Authorization: Bearer"
	// header on every fabric call, matching the coordinator's -token.
	Token string
	// Logger, when non-nil, receives structured progress and retry
	// events (log/slog) tagged with the worker name; nil discards them.
	Logger *slog.Logger

	// jitter randomizes backoff so a worker fleet released by a
	// coordinator restart does not stampede in lockstep. Seeded from
	// the worker name; only touched from the Run goroutine.
	jitter *rng.Source
	// unsent holds the finished cells the coordinator has not
	// acknowledged, in finishing order.
	unsentMu sync.Mutex
	unsent   []completion
}

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
		grants, err := w.contact(ctx, poll)
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

// heldLeases is the set of leases a worker holds for the cells of its
// batch that are not finished yet, shared between the batch's compute
// loop and its heartbeat goroutine.
type heldLeases struct {
	mu     sync.Mutex
	leases map[LeaseRef]struct{}
}

func newHeldLeases(grants []LeaseGrant) *heldLeases {
	h := &heldLeases{leases: make(map[LeaseRef]struct{}, len(grants))}
	for _, g := range grants {
		h.leases[g.ref()] = struct{}{}
	}
	return h
}

func (h *heldLeases) remove(l LeaseRef) {
	h.mu.Lock()
	delete(h.leases, l)
	h.mu.Unlock()
}

func (h *heldLeases) snapshot() []LeaseRef {
	h.mu.Lock()
	out := make([]LeaseRef, 0, len(h.leases))
	for l := range h.leases {
		out = append(out, l)
	}
	h.mu.Unlock()
	return out
}

// renewing starts renewing the held leases: every interval it passes
// them to renew and drops the ones renew reports lost. A lost lease was
// requeued; its renewal stops but the computation continues — the
// completion will still be accepted idempotently. The returned stop
// ends the loop and returns once it has exited.
func (h *heldLeases) renewing(ctx context.Context, interval time.Duration, renew func(context.Context, []LeaseRef) []LeaseRef) (stop func()) {
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for sleep(ctx, interval) {
			for _, l := range renew(ctx, h.snapshot()) {
				h.remove(l)
			}
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

// Work runs an in-process worker on the table until ctx is canceled,
// then starts no further cell: it leases a batch (LeaseWait), computes
// each cell with run and completes it at once, renewing the batch's
// unfinished leases every third of the TTL so that no cell is granted
// twice, and skipping a cell whose lease is lost before it starts (its
// run was canceled or failed). An idle worker asks again every half
// TTL, so grantSizeLocked keeps counting it.
func (t *Table) Work(ctx context.Context, worker string, run func(Job) ([]float64, error)) {
	for ctx.Err() == nil {
		grants := t.LeaseWait(ctx, worker, t.ttl/2)
		held := newHeldLeases(grants)
		stop := held.renewing(ctx, max(t.ttl/3, time.Millisecond), func(_ context.Context, leases []LeaseRef) []LeaseRef {
			return t.Renew(worker, leases)
		})
		for _, g := range grants {
			if ctx.Err() != nil || len(t.Renew(worker, []LeaseRef{g.ref()})) > 0 {
				continue
			}
			values, err := run(g.Job)
			if err == nil {
				err = t.Complete(g.Job.Run, g.Job.Index, g.Lease, worker, values, "")
			}
			if err != nil {
				// Either failure would recur on any worker.
				t.Complete(g.Job.Run, g.Job.Index, g.Lease, worker, nil, err.Error())
			}
			held.remove(g.ref())
		}
		stop()
	}
}

// workBatch handles one lease batch end to end: the cells are computed
// in order while the held leases are renewed at a third of the TTL by
// heartbeat, which also reports the finished cells on every tick, and
// the rest are reported when the batch ends. A worker killed mid-batch
// stops heartbeating everything, and all its unreported cells' leases
// expire and requeue. Completions whose post fails stay queued for the
// next contact (see Run).
func (w *Worker) workBatch(ctx context.Context, grants []LeaseGrant) {
	held := newHeldLeases(grants)
	stop := held.renewing(ctx, max(time.Duration(grants[0].TTLMilli)*time.Millisecond/3, time.Millisecond), w.heartbeat)
	for _, g := range grants {
		if ctx.Err() != nil {
			break
		}
		if c, ok := w.workCell(ctx, g); ok {
			w.queue(c)
		}
		held.remove(g.ref())
	}
	stop()
	if err := w.flush(ctx); err != nil {
		w.log("complete failed, kept for the next contact", "err", err)
	}
}

// workCell computes one granted cell. It returns the cell's
// completion, or false when the worker was stopped mid-cell.
func (w *Worker) workCell(ctx context.Context, grant LeaseGrant) (completion, bool) {
	c := completion{LeaseRef: grant.ref()}
	values, err := w.Runner(grant.Job)
	if ctx.Err() != nil {
		// Killed mid-cell: abandon without completing. Even if the
		// runner returned a value, reporting it now would race our own
		// shutdown; the lease expiry path covers the cell.
		return c, false
	}
	if err != nil {
		c.Error = err.Error()
		if len(c.Error) > maxErrorBytes {
			c.Error = c.Error[:maxErrorBytes]
		}
		return c, true
	}
	c.Values = store.NaNFloats(values)
	return c, true
}

// contact is the worker's turn at the coordinator between batches: it
// first delivers the completions an earlier post failed to deliver,
// then asks for a lease. A delivery failure fails the contact, so the
// loop backs off through an outage before it leases anything new.
func (w *Worker) contact(ctx context.Context, wait time.Duration) ([]LeaseGrant, error) {
	if err := w.flush(ctx); err != nil {
		return nil, err
	}
	return w.lease(ctx, wait)
}

// lease asks the coordinator for a batch of cells, letting it hold the
// request up to wait for one to appear. A nil slice with nil error
// means no work became available.
func (w *Worker) lease(ctx context.Context, wait time.Duration) ([]LeaseGrant, error) {
	status, body, err := w.post(ctx, "/lease", leaseRequest{Worker: w.Name, WaitMs: wait.Milliseconds()}, wait)
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
	var resp leaseResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("lease: %w", err)
	}
	return resp.Grants, nil
}

// heartbeat is one tick of a batch's renewal: it reports the cells
// finished since the last tick, then renews every held lease in one
// post and returns the ones the answer lists as lost. Transport
// failures are logged and retried on the next tick; the per-request
// deadline keeps a dead coordinator from hanging the goroutine.
func (w *Worker) heartbeat(ctx context.Context, leases []LeaseRef) []LeaseRef {
	if err := w.flush(ctx); err != nil {
		w.log("complete failed, kept for the next tick", "err", err)
	}
	if len(leases) == 0 {
		return nil
	}
	status, body, err := w.post(ctx, "/heartbeat", heartbeatRequest{Worker: w.Name, Leases: leases}, 0)
	if err == nil && status != http.StatusOK {
		err = errors.New(respError(status, body))
	}
	var resp heartbeatResponse
	if err == nil {
		err = json.Unmarshal(body, &resp)
	}
	if err != nil {
		w.log("heartbeat failed", "leases", len(leases), "err", err)
		return nil
	}
	for _, l := range resp.Lost {
		w.log("lease lost", "run", l.Run, "cell", l.Index)
	}
	return resp.Lost
}

// queue adds a finished cell to the completions awaiting delivery.
func (w *Worker) queue(c completion) {
	w.unsentMu.Lock()
	w.unsent = append(w.unsent, c)
	w.unsentMu.Unlock()
}

// flush posts every queued completion in one list-shaped complete. A
// transport failure or a 5xx keeps them queued, ahead of any queued
// since, for the next flush: the coordinator's Complete is idempotent,
// so a torn post whose request actually landed is safely resent. A 4xx
// is final — those entries were malformed or the worker is not
// authorized, and sending them again cannot change the answer; every
// valid entry of the post was applied — so they are dropped, and their
// cells requeue when the leases expire.
func (w *Worker) flush(ctx context.Context) error {
	w.unsentMu.Lock()
	cells := w.unsent
	w.unsent = nil
	w.unsentMu.Unlock()
	if len(cells) == 0 {
		return nil
	}
	status, body, err := w.post(ctx, "/complete", completeRequest{Worker: w.Name, Cells: cells}, 0)
	switch {
	case err == nil && status < 300:
		w.log("cells complete", "cells", len(cells))
		return nil
	case err == nil && status < 500:
		w.log("complete rejected", "cells", len(cells), "status", status, "body", respError(status, body))
		return nil
	case err == nil:
		err = errors.New(respError(status, body))
	}
	w.unsentMu.Lock()
	w.unsent = append(cells, w.unsent...)
	w.unsentMu.Unlock()
	return fmt.Errorf("complete: %w", err)
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

// log emits one structured event through Logger, at Info with the
// worker name attached.
func (w *Worker) log(msg string, attrs ...any) {
	if w.Logger != nil {
		w.Logger.Info(msg, append([]any{slog.String("worker", w.Name)}, attrs...)...)
	}
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

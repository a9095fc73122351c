// Package fabric is the distributed sweep fabric: the lease protocol
// that lets one coordinator farm the cells of a submitted grid out to
// many worker processes over HTTP.
//
// The protocol leans entirely on the determinism contract of
// internal/store: a cell's metric vector is a pure function of its
// content-addressed identity (store key + fully derived seed), so the
// fabric never needs distributed consensus. Leases only bound wasted
// work — if a lease expires and the cell is handed to a second worker
// while the first is still alive, both compute identical bytes and
// completion is idempotent by construction. The moving parts:
//
//   - Table: the coordinator's in-memory lease table. Cells are
//     pending, leased (with a TTL refreshed by heartbeats), or done;
//     an expired lease silently requeues the cell. The table sizes
//     every grant itself by factoring: a share of the remaining cells
//     that shrinks as the run drains, so few round trips carry the bulk
//     of a grid and its tail still spreads over every worker.
//   - Coordinator: the HTTP face of the table — POST lease/heartbeat/
//     complete plus a status endpoint. A lease is a long poll: with no
//     cell available the request is held until a run registers cells
//     or a lease expires, so an idle worker starts on a new grid the
//     moment it arrives.
//   - Worker: the client loop — lease a batch of cells, compute each,
//     and report the batch's completions with their values in one
//     post, heartbeating every held lease in one post while it
//     computes. The worker never touches the store: the coordinator
//     leases only the cells its store lacks and fills the store from
//     each completion.
//   - Journal: the coordinator's durable set of unfinished runs. The
//     store is the only per-cell state; a restarted coordinator
//     re-registers each unfinished run and leases the cells its store
//     lacks.
//   - ChaosTransport: a seeded fault-injecting http.RoundTripper used
//     by the chaos tests to prove the above survives timeouts, 5xx,
//     and torn connections.
package fabric

import (
	"gridseg/internal/batch"
	"gridseg/internal/store"
)

// Job is the unit of leasable work: one grid cell, carried with its
// full content-addressed identity so any worker can compute it without
// knowing anything about the grid it came from. Columns pins the
// metric schema the coordinator expects back; a worker must refuse a
// job whose schema it does not produce.
type Job struct {
	// Run is the grid run the cell belongs to (the server's run ID).
	Run string `json:"run"`
	// Index is the cell's position in the grid's canonical cell order.
	Index int `json:"index"`
	// Key is the cell's content address (store.CellSpec.Key).
	Key string `json:"key"`
	// Seed is the cell's fully derived random seed (batch.CellSeed).
	Seed uint64 `json:"seed"`
	// Columns is the metric schema of the expected result vector.
	Columns []string `json:"columns"`
	// Cell is the cell's parameters.
	Cell batch.Cell `json:"cell"`
}

// LeaseGrant is one cell of the coordinator's answer to a lease
// request: a job, the lease token that must accompany heartbeats and
// completion, and the TTL within which the worker must renew.
type LeaseGrant struct {
	Job      Job    `json:"job"`
	Lease    uint64 `json:"lease"`
	TTLMilli int64  `json:"ttl_ms"`
}

// LeaseRef names one held lease: the cell and the token it was granted
// under. Heartbeats list the refs a worker holds, and the answer lists
// the ones it lost.
type LeaseRef struct {
	Run   string `json:"run"`
	Index int    `json:"index"`
	Lease uint64 `json:"lease"`
}

// ref returns the grant's lease reference.
func (g LeaseGrant) ref() LeaseRef {
	return LeaseRef{Run: g.Job.Run, Index: g.Job.Index, Lease: g.Lease}
}

// maxGrant caps the cells of one grant. A worker reports a grant's
// cells in one completion body, and at this cap that body stays a few
// hundred kilobytes even with every error message at maxErrorBytes,
// well under maxBodyBytes.
const maxGrant = 128

// maxErrorBytes bounds the error text a worker reports for one cell.
const maxErrorBytes = 1024

// leaseRequest, heartbeatRequest, and completeRequest are the wire
// bodies of the three protocol posts.
type leaseRequest struct {
	Worker string `json:"worker"`
	// WaitMs makes the request a long poll: with no cell available the
	// coordinator holds it up to this many milliseconds (capped) for
	// one to appear. Omitted or <= 0 answers 204 at once.
	WaitMs int64 `json:"wait_ms,omitempty"`
}

// leaseResponse is the 200 body of a lease request: the grant the
// coordinator sized (see Table.LeaseWait), each cell with its own lease
// token and TTL.
type leaseResponse struct {
	Grants []LeaseGrant `json:"grants"`
}

// heartbeatRequest renews every lease a worker holds in one post; the
// answer, heartbeatResponse, lists the leases that are no longer the
// worker's.
type heartbeatRequest struct {
	Worker string     `json:"worker"`
	Leases []LeaseRef `json:"leases"`
}

type heartbeatResponse struct {
	Lost []LeaseRef `json:"lost"`
}

// completeRequest reports a worker's finished cells in one post. Each
// entry is applied on its own, exactly like a single completion.
type completeRequest struct {
	Worker string       `json:"worker"`
	Cells  []completion `json:"cells"`
}

// completion is one finished cell of a completeRequest.
type completion struct {
	LeaseRef
	// Values is the metric vector; NaN crosses the wire as null,
	// mirroring the store's object encoding. Empty when Error is set.
	Values []store.NaNFloat `json:"values,omitempty"`
	// Error carries a deterministic per-cell failure. Since cells are
	// pure functions of their identity, such an error would reproduce
	// on any worker, so the coordinator fails the run instead of
	// requeueing.
	Error string `json:"error,omitempty"`
}

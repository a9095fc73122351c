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
//     an expired lease silently requeues the cell.
//   - Coordinator: the HTTP face of the table — POST lease/heartbeat/
//     complete plus a status endpoint. A lease is a long poll: with no
//     cell available the request is held until a run registers cells
//     or a lease expires, so an idle worker starts on a new grid the
//     moment it arrives.
//   - Worker: the client loop — lease a cell, probe the shared store,
//     compute on a miss, report completion with the values, heartbeat
//     while computing. The coordinator, not the worker, fills the
//     store from each completion.
//   - ChaosTransport: a seeded fault-injecting http.RoundTripper used
//     by the chaos tests to prove the above survives timeouts, 5xx,
//     and torn connections.
package fabric

import (
	"math"
	"strconv"

	"gridseg/internal/batch"
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

// LeaseGrant is the coordinator's answer to a lease request: a job,
// the lease token that must accompany heartbeats and completion, and
// the TTL within which the worker must renew.
type LeaseGrant struct {
	Job      Job    `json:"job"`
	Lease    uint64 `json:"lease"`
	TTLMilli int64  `json:"ttl_ms"`
}

// leaseRequest, heartbeatRequest, and completeRequest are the wire
// bodies of the three protocol posts.
type leaseRequest struct {
	Worker string `json:"worker"`
	// Max asks for up to k cells in one round trip (batched leasing).
	// Omitted or <= 1 keeps the original single-grant response shape;
	// > 1 switches the 200 response to leaseBatchResponse.
	Max int `json:"max,omitempty"`
	// WaitMs makes the request a long poll: with no cell available the
	// coordinator holds it up to this many milliseconds (capped) for
	// one to appear. Omitted or <= 0 answers 204 at once.
	WaitMs int64 `json:"wait_ms,omitempty"`
}

// leaseBatchResponse is the 200 body of a batched lease request
// (Max > 1): up to Max grants, each carrying its own lease token and
// TTL. Heartbeats and completions stay per cell.
type leaseBatchResponse struct {
	Grants []LeaseGrant `json:"grants"`
}

type heartbeatRequest struct {
	Run   string `json:"run"`
	Index int    `json:"index"`
	Lease uint64 `json:"lease"`
}

type completeRequest struct {
	Run    string `json:"run"`
	Index  int    `json:"index"`
	Lease  uint64 `json:"lease"`
	Worker string `json:"worker"`
	// Cached reports that the worker served the cell from the shared
	// store instead of computing it.
	Cached bool `json:"cached,omitempty"`
	// Values is the metric vector; NaN crosses the wire as null,
	// mirroring the store's object encoding. Empty when Error is set.
	Values []nanFloat `json:"values,omitempty"`
	// Error carries a deterministic per-cell failure. Since cells are
	// pure functions of their identity, such an error would reproduce
	// on any worker, so the coordinator fails the run instead of
	// requeueing.
	Error string `json:"error,omitempty"`
}

// nanFloat maps NaN <-> null across the JSON boundary, exactly like
// the store's object encoding.
type nanFloat float64

// MarshalJSON encodes NaN as null.
func (f nanFloat) MarshalJSON() ([]byte, error) {
	if math.IsNaN(float64(f)) {
		return []byte("null"), nil
	}
	return []byte(strconv.FormatFloat(float64(f), 'g', -1, 64)), nil
}

// UnmarshalJSON decodes null as NaN.
func (f *nanFloat) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*f = nanFloat(math.NaN())
		return nil
	}
	v, err := strconv.ParseFloat(string(data), 64)
	if err != nil {
		return err
	}
	*f = nanFloat(v)
	return nil
}

// encodeValues and decodeValues convert between the engine's []float64
// and the NaN-safe wire slice.
func encodeValues(v []float64) []nanFloat {
	out := make([]nanFloat, len(v))
	for i, x := range v {
		out[i] = nanFloat(x)
	}
	return out
}

func decodeValues(v []nanFloat) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}

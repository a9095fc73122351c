package fabric

import (
	"encoding/json"
	"io"
	"net/http"
	"time"
)

// maxBodyBytes bounds a protocol request body; the largest legitimate
// body is a completion carrying a small metric vector.
const maxBodyBytes = 1 << 20

// maxLeaseWait caps how long a lease request is held waiting for work,
// whatever wait_ms the worker asked for. A variable only so the
// protocol fuzz test can shorten it.
var maxLeaseWait = 30 * time.Second

// Coordinator serves the lease protocol over HTTP. It owns a Table;
// the embedding server registers runs on it and mounts Handler under
// its fabric prefix.
type Coordinator struct {
	table *Table
}

// NewCoordinator builds a coordinator around a fresh lease table.
func NewCoordinator(ttl time.Duration, clock Clock) *Coordinator {
	return &Coordinator{table: NewTable(ttl, clock)}
}

// Table exposes the lease table for run registration.
func (c *Coordinator) Table() *Table { return c.table }

// Handler returns the protocol endpoints, relative to the mount point:
//
//	POST /lease      {"worker":...} -> 200 LeaseGrant | 204 no work
//	                 {"worker":..., "max":k} -> 200 {"grants":[...]} (up to k) | 204
//	                 {..., "wait_ms":t} -> the same, but with no work the
//	                 request is held up to t ms (capped) until a cell is
//	                 available; 204 only once the hold ends
//	POST /heartbeat  {"run","index","lease"} -> 200 | 409 lease lost
//	POST /complete   {"run","index","lease","worker","cached","values","error"} -> 204
//	GET  /status     -> per-run cell counts + cumulative protocol metrics
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /lease", func(w http.ResponseWriter, r *http.Request) {
		var req leaseRequest
		if !decodeBody(w, r, &req) {
			return
		}
		wait := time.Duration(min(max(req.WaitMs, 0), maxLeaseWait.Milliseconds())) * time.Millisecond
		grants := c.table.LeaseWait(r.Context(), req.Worker, req.Max, wait)
		if len(grants) == 0 {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if req.Max > 1 {
			// Batched shape only when asked for: single-cell clients
			// (and pre-batching workers) keep the original response.
			json.NewEncoder(w).Encode(leaseBatchResponse{Grants: grants})
			return
		}
		json.NewEncoder(w).Encode(grants[0])
	})
	mux.HandleFunc("POST /heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req heartbeatRequest
		if !decodeBody(w, r, &req) {
			return
		}
		if !c.table.Heartbeat(req.Run, req.Index, req.Lease) {
			http.Error(w, "lease lost", http.StatusConflict)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST /complete", func(w http.ResponseWriter, r *http.Request) {
		var req completeRequest
		if !decodeBody(w, r, &req) {
			return
		}
		err := c.table.Complete(req.Run, req.Index, req.Lease, req.Worker, req.Cached, decodeValues(req.Values), req.Error)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		runs, m := c.table.Status()
		w.Header().Set("Content-Type", "application/json")
		// Requeues stays duplicated at the top level for clients that
		// predate the metrics snapshot.
		json.NewEncoder(w).Encode(struct {
			Runs     []RunStatus  `json:"runs"`
			Requeues int          `json:"requeues"`
			Metrics  TableMetrics `json:"metrics"`
		}{runs, m.Requeues, m})
	})
	return mux
}

// decodeBody parses a JSON request body, answering 400 on failure.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes)).Decode(v); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

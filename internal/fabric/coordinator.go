package fabric

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"gridseg/internal/store"
)

// maxBodyBytes bounds a protocol request body; the largest legitimate
// body is a completion listing the cells of one grant (at most
// maxGrant), each with a small metric vector.
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
//	POST /lease      {"worker":...} -> 200 {"grants":[LeaseGrant...]} | 204 no work
//	                 {..., "wait_ms":t} -> the same, but with no work the
//	                 request is held up to t ms (capped) until a cell is
//	                 available; 204 only once the hold ends
//	POST /heartbeat  {"worker":..., "leases":[{"run","index","lease"}...]}
//	                 -> 200 {"lost":[...]}: the listed leases that were
//	                 requeued or whose run is gone; the rest are renewed
//	POST /complete   {"worker":..., "cells":[{"run","index","lease","values","error"}...]}
//	                 -> 204 | 400 naming the entries rejected (the others
//	                 are applied)
//	GET  /status     -> per-run cell counts + cumulative protocol metrics
//
// The table sizes each grant (see Table.LeaseWait); the worker reports
// a grant's cells in list-shaped completions, and each entry is applied
// on its own through Table.Complete, so a resent entry is a no-op.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /lease", func(w http.ResponseWriter, r *http.Request) {
		var req leaseRequest
		if !decodeBody(w, r, &req) {
			return
		}
		wait := time.Duration(min(max(req.WaitMs, 0), maxLeaseWait.Milliseconds())) * time.Millisecond
		grants := c.table.LeaseWait(r.Context(), req.Worker, wait)
		if len(grants) == 0 {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, leaseResponse{Grants: grants})
	})
	mux.HandleFunc("POST /heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req heartbeatRequest
		if !decodeBody(w, r, &req) {
			return
		}
		writeJSON(w, heartbeatResponse{Lost: c.table.Renew(req.Worker, req.Leases)})
	})
	mux.HandleFunc("POST /complete", func(w http.ResponseWriter, r *http.Request) {
		var req completeRequest
		if !decodeBody(w, r, &req) {
			return
		}
		var errs []error
		for _, d := range req.Cells {
			if err := c.table.Complete(d.Run, d.Index, d.Lease, req.Worker, store.Float64s(d.Values), d.Error); err != nil {
				errs = append(errs, err)
			}
		}
		if len(errs) > 0 {
			http.Error(w, errors.Join(errs...).Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		runs, m := c.table.Status()
		// Requeues stays duplicated at the top level for clients that
		// predate the metrics snapshot.
		writeJSON(w, struct {
			Runs     []RunStatus  `json:"runs"`
			Requeues int          `json:"requeues"`
			Metrics  TableMetrics `json:"metrics"`
		}{runs, m.Requeues, m})
	})
	return mux
}

// writeJSON answers 200 with v as the JSON body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// decodeBody parses a JSON request body, answering 400 on failure.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes)).Decode(v); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

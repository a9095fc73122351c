// Package server is the HTTP serving layer of the cached sweep
// pipeline (cmd/segd): it accepts parameter-grid specs in the
// cmd/sweep -grid syntax, serves the cells the shared content-addressed
// result store already holds, leases the rest through a lease table
// (internal/fabric) to the server's in-process workers or, in cluster
// mode, to worker processes, streams per-cell progress over
// Server-Sent Events, and serves the resulting CSV/JSON artifacts.
//
// Grid runs are content-addressed too: the ID of a run is a stable
// digest of its normalized spec and seed (gridseg.GridID), so
// resubmitting an identical grid attaches to the existing run instead
// of creating a duplicate, and — because every cell result lives in
// the store under a key derived from the cell's identity — any
// overlap with previously computed grids is served without
// recomputation, byte for byte. Only the standard library is used.
//
// # API
//
//	POST /grids              {"spec": "n=96 w=2 tau=0.40:0.48:0.02 reps=4", "seed": 1}
//	GET  /grids              list all runs
//	GET  /grids/{id}         run status (state, done/cells, cache hits/misses)
//	GET  /grids/{id}/cells   per-cell results in the status envelope (409 until done)
//	GET  /grids/{id}/artifact.csv    full CSV artifact (409 until done)
//	GET  /grids/{id}/artifact.json   full JSON artifact (409 until done)
//	GET  /grids/{id}/events  SSE progress stream (replays history, then live)
//	GET  /grids/{id}/live    SSE trajectory stream (binary frames + observables)
//	GET  /metrics            Prometheus text exposition (internal/metrics)
//	GET  /ui                 embedded live-grid viewer (zero dependencies)
//	GET  /healthz            liveness probe
//
// In cluster mode (Options.Cluster) the server becomes a coordinator:
// it computes nothing itself, instead leasing cache-missing cells to
// fabric workers and serving the shared store over HTTP, with two
// extra endpoint groups:
//
//	POST /fabric/lease       worker requests work: a batch of cell leases the coordinator sizes (held up to wait_ms; 204 when no work)
//	POST /fabric/heartbeat   renew every held lease; the answer lists the lost ones
//	POST /fabric/complete    report finished cells, one list per post (idempotent per cell)
//	GET  /fabric/status      lease-table snapshot and cumulative requeues
//	GET  /objects/{key}      fetch one cell result by store key (404 on miss)
//	PUT  /objects/{key}      store one cell result (atomic, key-checked)
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"time"

	"gridseg"
	"gridseg/internal/fabric"
	"gridseg/internal/metrics"
	"gridseg/internal/store"
)

// States of a grid run.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Server owns the run registry, the job queue, the lease table, and
// the shared store.
type Server struct {
	store     gridseg.CellStore
	maxRuns   int
	liveEvery int64
	logger    *slog.Logger
	// fabric holds the lease table every run registers its missing
	// cells with; its workers are the server's own goroutines, or in
	// cluster mode worker processes on the /fabric/ endpoints.
	fabric  *fabric.Coordinator
	cluster bool
	// journal is the crash-recovery log of unfinished runs; nil when
	// journaling is disabled.
	journal *fabric.Journal
	// token, when non-empty, gates the /fabric/ and /objects/ endpoint
	// groups behind a constant-time bearer check.
	token string
	// writers is the number of store writers per run (see fillBehind).
	writers int

	mu    sync.Mutex
	grids map[string]*job
	order []string // submission order, for stable listings

	queue chan *job
	stop  chan struct{}
	// halt stops the in-process workers.
	halt context.CancelFunc
	wg   sync.WaitGroup
}

// Options configures a Server.
type Options struct {
	// Store is the shared content-addressed result cache; required.
	Store gridseg.CellStore
	// Workers is the number of in-process worker goroutines, which
	// lease cells from the server's lease table for as long as it lives
	// (0 means GOMAXPROCS; cluster mode starts none). Runs execute one
	// at a time, so this bounds the server's simulation concurrency.
	Workers int
	// QueueDepth bounds how many runs may wait behind the executing
	// one before submissions are rejected with 503; 0 means 64.
	QueueDepth int
	// MaxRuns bounds how many runs the in-memory registry retains;
	// 0 means 256. When exceeded, the oldest *finished* runs are
	// evicted (their cells stay in the store, so resubmitting an
	// evicted grid replays it from cache without recomputation).
	MaxRuns int
	// Logger, when non-nil, receives structured lifecycle events
	// (log/slog) tagged with per-run attrs; nil discards them.
	Logger *slog.Logger
	// LiveEvery is the flip interval between live trajectory frames on
	// the /grids/{id}/live stream; values < 1 mean
	// gridseg.DefaultSnapshotEvery. Sampling runs only while someone is
	// subscribed, so an unwatched server pays nothing for it.
	LiveEvery int64
	// Cluster switches the server into coordinator mode: submitted
	// grids are decomposed into content-addressed cell jobs and leased
	// to segd worker processes over the /fabric/ endpoints instead of
	// being computed in-process; the coordinator fills the shared store
	// from their completions and exports it read-write at /objects/ for
	// external readers. A coordinator computes nothing itself — with no
	// workers attached, a grid whose cells are not already cached waits
	// until one arrives.
	Cluster bool
	// LeaseTTL bounds how long a leased cell may go unrenewed before it
	// is requeued to another worker (0 means fabric.DefaultTTL).
	// Workers, in-process or not, renew at a third of the TTL.
	LeaseTTL time.Duration
	// Journal, when non-nil, makes run registrations crash-durable:
	// New replays the journal and re-enqueues every unfinished run,
	// which absorbs the cells already in the store without
	// recomputation. The server takes ownership of the journal; close
	// it after Close.
	Journal *fabric.Journal
	// Token, when non-empty, requires "Authorization: Bearer <Token>"
	// on every /fabric/ and /objects/ request (compared in constant
	// time; 401 otherwise). The public grid API stays open.
	Token string
}

// New builds a Server and starts its dispatcher and, outside cluster
// mode, its in-process workers. Call Close to stop them. With a
// journal, New first replays it and re-enqueues every run the previous
// process left unfinished, so a restart resumes where the crash
// interrupted.
func New(opt Options) (*Server, error) { return newServer(opt, gridseg.ComputeJobLive) }

// newServer is New with the in-process workers' cell function, which
// is gridseg.ComputeJobLive except in tests.
func newServer(opt Options, compute func(fabric.Job, *gridseg.LiveTap) ([]float64, error)) (*Server, error) {
	if opt.Store == nil {
		return nil, fmt.Errorf("server: Options.Store is required")
	}
	var recovered []fabric.RecoveredRun
	if opt.Journal != nil {
		recovered = opt.Journal.Runs()
	}
	depth := opt.QueueDepth
	if depth <= 0 {
		depth = 64
	}
	if depth < len(recovered) {
		// Recovery must never drop a journaled run to a full queue.
		depth = len(recovered)
	}
	maxRuns := opt.MaxRuns
	if maxRuns <= 0 {
		maxRuns = 256
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if opt.Cluster {
		workers = 0
	}
	ctx, halt := context.WithCancel(context.Background())
	s := &Server{
		store:     opt.Store,
		maxRuns:   maxRuns,
		liveEvery: opt.LiveEvery,
		logger:    opt.Logger,
		fabric:    fabric.NewCoordinator(opt.LeaseTTL, nil),
		cluster:   opt.Cluster,
		journal:   opt.Journal,
		token:     opt.Token,
		writers:   max(workers, 1),
		grids:     map[string]*job{},
		queue:     make(chan *job, depth),
		stop:      make(chan struct{}),
		halt:      halt,
	}
	// Replay-recovered runs are enqueued before the dispatcher starts,
	// in their original registration order; run absorbs the cells
	// their store holds and counts them as recovered.
	for _, r := range recovered {
		j := newJob(r.Run, r.Spec, r.Seed, r.Cells)
		j.recovered = true
		close(j.registered)
		s.grids[r.Run] = j
		s.order = append(s.order, r.Run)
		s.queue <- j
		metricQueueDepth.Add(1)
		s.fabric.Table().NoteRecovered(1, 0)
		s.logRun(r.Run, "recovered from journal", "spec", r.Spec, "seed", r.Seed, "cells", r.Cells)
	}
	s.wg.Add(1)
	go s.dispatch()
	cell := func(fj fabric.Job) ([]float64, error) { return compute(fj, s.liveTap(fj.Run)) }
	for i := range workers {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.fabric.Table().Work(ctx, fmt.Sprintf("local-%d", i), cell)
		}()
	}
	return s, nil
}

// liveTap taps a run's cells into its live hub; the watched gate skips
// all measurement while nobody is subscribed.
func (s *Server) liveTap(id string) *gridseg.LiveTap {
	s.mu.Lock()
	j := s.grids[id]
	s.mu.Unlock()
	if j == nil {
		return nil
	}
	return &gridseg.LiveTap{Every: s.liveEvery, Active: j.live.watched, Sample: j.publishLive}
}

// Close stops the dispatcher and the in-process workers (each after its
// current cell) and waits for them. A run still executing fails with
// "server shut down" and stays in the journal for the next server.
func (s *Server) Close() {
	close(s.stop)
	s.halt()
	s.wg.Wait()
}

// ReleaseLeases answers every lease request the coordinator is holding
// for work and makes later ones answer at once, so a shutting-down
// http.Server does not wait out held long polls: register it with
// http.Server.RegisterOnShutdown. It is a no-op outside cluster mode.
func (s *Server) ReleaseLeases() {
	if s.cluster {
		s.fabric.Table().Close()
	}
}

// logRun emits one structured lifecycle event tagged with the run id.
func (s *Server) logRun(id, msg string, attrs ...any) {
	if s.logger != nil {
		s.logger.Info(msg, append([]any{slog.String("grid", id)}, attrs...)...)
	}
}

// dispatch executes queued runs one at a time, in submission order.
// Close takes priority over remaining queued work: the inner select
// alone would pick randomly when both channels are ready.
func (s *Server) dispatch() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		select {
		case <-s.stop:
			return
		case j := <-s.queue:
			metricQueueDepth.Add(-1)
			s.run(j)
		}
	}
}

// Handler returns the routing table of the API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /grids", s.handleSubmit)
	mux.HandleFunc("GET /grids", s.handleList)
	mux.HandleFunc("GET /grids/{id}", s.handleStatus)
	mux.HandleFunc("GET /grids/{id}/cells", s.handleCells)
	mux.HandleFunc("GET /grids/{id}/artifact.csv", s.handleArtifactCSV)
	mux.HandleFunc("GET /grids/{id}/artifact.json", s.handleArtifactJSON)
	mux.HandleFunc("GET /grids/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /grids/{id}/live", s.handleLive)
	mux.Handle("GET /metrics", metrics.Default().Handler())
	mux.HandleFunc("GET /ui", handleUI)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	if s.cluster {
		// Cluster mode: the lease protocol for workers and the shared
		// object store for external readers. Both groups sit behind the
		// shared-secret check when one is configured; the public grid
		// API above stays open either way.
		fh := http.Handler(http.StripPrefix("/fabric", s.fabric.Handler()))
		oh := http.Handler(http.StripPrefix("/objects", store.ObjectHandler(s.store)))
		if s.token != "" {
			fh = requireToken(s.token, fh)
			oh = requireToken(s.token, oh)
		}
		mux.Handle("/fabric/", fh)
		mux.Handle("/objects/", oh)
	}
	return mux
}

// requireToken gates h behind "Authorization: Bearer <token>". The
// header is compared against the expected value in constant time (via
// fixed-size digests, so the comparison length leaks nothing either)
// and a mismatch answers 401 without touching h.
func requireToken(token string, h http.Handler) http.Handler {
	want := sha256.Sum256([]byte("Bearer " + token))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got := sha256.Sum256([]byte(r.Header.Get("Authorization")))
		if subtle.ConstantTimeCompare(got[:], want[:]) != 1 {
			http.Error(w, "unauthorized", http.StatusUnauthorized)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// submitRequest is the body of POST /grids.
type submitRequest struct {
	// Spec is a parameter grid in the cmd/sweep -grid syntax, e.g.
	// "n=96,240 w=2:4 tau=0.40:0.48:0.02 reps=8".
	Spec string `json:"spec"`
	// Seed is the root seed of the run (default 1; the zero seed must
	// be given explicitly as any other).
	Seed *uint64 `json:"seed"`
}

// handleSubmit registers (or re-attaches to) a grid run.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	// Specs are short; bound the body before the decoder allocates, so
	// an oversized request cannot exhaust memory.
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request body: %w", err))
		return
	}
	seed := uint64(1)
	if req.Seed != nil {
		seed = *req.Seed
	}
	// ValidateGridSpec applies RunGrid's own rules, so anything it
	// rejects is a synchronous 400 here rather than an asynchronous
	// run failure, and the rules cannot drift apart.
	cells, err := gridseg.ValidateGridSpec(req.Spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	id, err := gridseg.GridID(req.Spec, seed)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	// Registration and enqueueing are one critical section: the send is
	// non-blocking, and doing it under the lock means a full queue
	// leaves no half-registered job to roll back.
	s.mu.Lock()
	if j, exists := s.grids[id]; exists && j.status().State != StateFailed {
		s.mu.Unlock()
		// Content-addressed resubmission: same normalized grid and
		// seed, so the existing run (finished or not) answers for it.
		// Failed runs fall through instead: their causes are usually
		// environmental (full disk, store errors), so resubmission is
		// the retry path and replaces the poisoned entry.
		writeJSON(w, http.StatusOK, j.status())
		return
	}
	retry := s.grids[id] != nil
	j := newJob(id, req.Spec, seed, cells)
	select {
	case s.queue <- j:
		metricQueueDepth.Add(1)
		s.grids[id] = j
		if !retry {
			s.order = append(s.order, id)
		}
		s.evictLocked()
		s.mu.Unlock()
		if s.journal != nil {
			// Durable registration before the 202: a coordinator that
			// crashes after answering will resume this run on reboot. A
			// journal write failure degrades durability, not the run.
			if err := s.journal.Register(id, req.Spec, seed, cells); err != nil {
				s.logRun(id, "journal register failed", "err", err)
			}
		}
		close(j.registered)
		s.logRun(id, "queued", "spec", req.Spec, "seed", seed)
		writeJSON(w, http.StatusAccepted, j.status())
	default:
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("run queue is full"))
	}
}

// evictLocked drops the oldest finished runs once the registry
// exceeds its cap, bounding the server's memory over a long life;
// s.mu must be held. Queued and running jobs are never evicted, and
// an evicted grid loses nothing durable: its cells live in the store,
// so resubmitting replays it from cache.
func (s *Server) evictLocked() {
	for i := 0; len(s.order) > s.maxRuns && i < len(s.order); {
		id := s.order[i]
		st := s.grids[id].status()
		if st.State != StateDone && st.State != StateFailed {
			i++
			continue
		}
		delete(s.grids, id)
		s.order = append(s.order[:i], s.order[i+1:]...)
		s.logRun(id, "evicted from the registry (cells remain cached)")
	}
}

// handleList returns every run's status in submission order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]jobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.grids[id].status())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]interface{}{"grids": out})
}

// lookup resolves the {id} path segment.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.grids[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown grid %q", r.PathValue("id")))
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

// finished returns the completed result of a run, or reports why it
// cannot be served yet (409 while queued/running, 500 when failed).
func finished(w http.ResponseWriter, j *job) *gridseg.GridResult {
	st := j.status()
	switch st.State {
	case StateDone:
		return j.result()
	case StateFailed:
		writeError(w, http.StatusInternalServerError, fmt.Errorf("grid %s failed: %s", j.id, st.Error))
	default:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, fmt.Errorf("grid %s is %s (%d/%d cells); retry when done", j.id, st.State, st.Done, st.Cells))
	}
	return nil
}

// handleCells serves the per-cell results wrapped in the run's status
// envelope — one fetch yields provenance (spec, seed, cache split) and
// data. The bare artifact bytes live at /artifact.json instead.
func (s *Server) handleCells(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	res := finished(w, j)
	if res == nil {
		return
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		s.logRun(j.id, "rendering cells failed", "err", err)
		writeError(w, http.StatusInternalServerError, fmt.Errorf("rendering cells"))
		return
	}
	writeJSON(w, http.StatusOK, struct {
		jobStatus
		Artifact json.RawMessage `json:"artifact"`
	}{j.status(), json.RawMessage(buf.Bytes())})
}

func (s *Server) handleArtifactCSV(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	if res := finished(w, j); res != nil {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", j.id+".csv"))
		if err := res.WriteCSV(w); err != nil {
			s.logRun(j.id, "writing CSV failed", "err", err)
		}
	}
}

func (s *Server) handleArtifactJSON(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	if res := finished(w, j); res != nil {
		w.Header().Set("Content-Type", "application/json")
		if err := res.WriteJSON(w); err != nil {
			s.logRun(j.id, "writing JSON failed", "err", err)
		}
	}
}

// writeJSON encodes v as the response with the given status.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError encodes an error response.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

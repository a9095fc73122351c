// Command segd serves parameter-grid sweeps over HTTP, backed by the
// shared content-addressed result store: the cells a grid lacks there
// are leased to in-process workers, per-cell progress streams over SSE,
// and finished CSV/JSON artifacts are served straight from cached
// results. Resubmitting an identical or overlapping grid recomputes
// nothing, and a restarted segd resumes its unfinished runs.
//
//	segd -addr :8080 -store segstore/
//	curl -X POST localhost:8080/grids -d '{"spec": "n=96 w=2 tau=0.40:0.48:0.02 reps=4", "seed": 1}'
//	curl localhost:8080/grids/<id>/events        # SSE progress
//	curl localhost:8080/grids/<id>/artifact.csv  # final artifact
//
// segd also scales out: a coordinator runs grids the same way but
// leases the cells its store lacks to worker processes, which compute
// them and report the values back for the coordinator to store.
// Results are byte-identical to a single process, whatever the
// cluster does.
//
//	segd -role coordinator -addr :8080 -store segstore/
//	segd -role worker -peer http://coordinator:8080
//
// The store directory is shared with cmd/sweep -cache: cells computed
// by either are served by both. See README.md for the API reference.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"gridseg"
	"gridseg/internal/fabric"
	"gridseg/internal/metrics"
	"gridseg/internal/server"
)

// config holds the parsed command-line options.
type config struct {
	addr      string
	store     string
	workers   int
	queue     int
	verbose   bool
	role      string
	peer      string
	name      string
	leaseTTL  time.Duration
	journal   string
	token     string
	logFormat string
	liveEvery int64
}

// newFlagSet declares the command's flags; main parses it, and the
// usage test pins it against the README documentation.
func newFlagSet() (*flag.FlagSet, *config) {
	c := &config{}
	fs := flag.NewFlagSet("segd", flag.ExitOnError)
	fs.StringVar(&c.addr, "addr", ":8080", "HTTP listen address")
	fs.StringVar(&c.store, "store", "segstore", "content-addressed result store directory (created if missing; shared with cmd/sweep -cache)")
	fs.IntVar(&c.workers, "workers", 0, "in-process cell workers of the single role (0 = GOMAXPROCS); never affects results")
	fs.IntVar(&c.queue, "queue", 64, "maximum queued grid runs before submissions get 503")
	fs.BoolVar(&c.verbose, "v", false, "per-run lifecycle logging")
	fs.StringVar(&c.role, "role", "single", "process role: single (serve and compute in-process), coordinator (serve the API and lease cells to workers), or worker (compute cells leased by -peer)")
	fs.StringVar(&c.peer, "peer", "", "coordinator base URL a worker attaches to, e.g. http://host:8080 (worker role)")
	fs.StringVar(&c.name, "name", "", "worker name reported in leases and SSE events (worker role; default host-pid)")
	fs.DurationVar(&c.leaseTTL, "lease-ttl", fabric.DefaultTTL, "how long a leased cell may go unrenewed before it is requeued to another worker (coordinator role)")
	fs.StringVar(&c.journal, "journal", "", "crash-recovery journal of the server's unfinished runs (single and coordinator roles; empty = <store>/fabric.journal, \"off\" disables); a restarted segd replays it and resumes every unfinished run, recomputing only the cells its store lacks")
	fs.StringVar(&c.token, "token", "", "shared secret gating the /fabric/ and /objects/ endpoints (coordinator role: required of callers when set; worker role: sent as a bearer token)")
	fs.StringVar(&c.logFormat, "log-format", "text", "structured log encoding: text or json (log/slog)")
	fs.Int64Var(&c.liveEvery, "live-every", 0, "flips between live trajectory frames on /grids/{id}/live (0 = the server default); sampling only runs while someone is subscribed")
	return fs, c
}

// newLogger builds the process logger from -log-format and -v: slog
// text or JSON on stderr, at Info when verbose and Warn otherwise.
func newLogger(cfg *config) *slog.Logger {
	level := slog.LevelWarn
	if cfg.verbose {
		level = slog.LevelInfo
	}
	opts := &slog.HandlerOptions{Level: level}
	if cfg.logFormat == "json" {
		return slog.New(slog.NewJSONHandler(os.Stderr, opts))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, opts))
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("segd: ")
	fs, cfg := newFlagSet()
	_ = fs.Parse(os.Args[1:])
	if cfg.logFormat != "text" && cfg.logFormat != "json" {
		log.Fatalf("unknown -log-format %q (want text or json)", cfg.logFormat)
	}

	switch cfg.role {
	case "single", "coordinator":
		serve(cfg)
	case "worker":
		work(cfg)
	default:
		log.Fatalf("unknown -role %q (want single, coordinator, or worker)", cfg.role)
	}
}

// serve runs the HTTP service, leasing cells to in-process workers
// (single) or to worker processes (coordinator).
func serve(cfg *config) {
	st, err := gridseg.OpenStore(cfg.store)
	if err != nil {
		log.Fatal(err)
	}
	opt := server.Options{
		Store:      st,
		Workers:    cfg.workers,
		QueueDepth: cfg.queue,
		Cluster:    cfg.role == "coordinator",
		LeaseTTL:   cfg.leaseTTL,
		Token:      cfg.token,
		Logger:     newLogger(cfg),
		LiveEvery:  cfg.liveEvery,
	}
	// Both serving roles journal beside the store by default, so a
	// restarted segd resumes its registered runs, losing no cell whose
	// store fill landed. -journal names another file; "off" opts out.
	var journal *fabric.Journal
	if cfg.journal != "off" {
		path := cfg.journal
		if path == "" {
			path = filepath.Join(cfg.store, "fabric.journal")
		}
		journal, err = fabric.OpenJournal(path, fabric.DefaultSyncBatch)
		if err != nil {
			log.Fatal(err)
		}
		opt.Journal = journal
	}
	srv, err := server.New(opt)
	if err != nil {
		log.Fatal(err)
	}

	hs := &http.Server{
		Addr:    cfg.addr,
		Handler: srv.Handler(),
		// SSE streams are long-lived, so only the header read is
		// bounded; no write timeout.
		ReadHeaderTimeout: 10 * time.Second,
	}
	// Held lease requests answer at once on shutdown instead of being
	// waited out.
	hs.RegisterOnShutdown(srv.ReleaseLeases)

	// Graceful shutdown: on SIGINT/SIGTERM stop accepting connections,
	// then stop the server. A grid still running fails with "server shut
	// down" and stays in the journal: the next segd on this store
	// resumes it from the cells whose fills landed.
	idle := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Print("shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		srv.Close()
		if journal != nil {
			if err := journal.Close(); err != nil {
				log.Printf("journal close: %v", err)
			}
		}
		close(idle)
	}()

	log.Printf("serving on %s (store %s, role %s)", cfg.addr, cfg.store, cfg.role)
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-idle
}

// work runs the worker loop against the coordinator at -peer: lease a
// batch of cells (the coordinator sizes it), compute each, and report
// the batch's completions with their values (the coordinator fills its
// store from them). Killing a worker at any point is safe — its leases
// expire and requeue.
func work(cfg *config) {
	if cfg.peer == "" {
		log.Fatal("worker role requires -peer (coordinator base URL)")
	}
	name := cfg.name
	if name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w := &fabric.Worker{
		Name:        name,
		Coordinator: cfg.peer + "/fabric",
		Runner:      gridseg.ComputeJob,
		Token:       cfg.token,
		Logger:      newLogger(cfg),
	}

	// Workers expose /metrics and /healthz on -addr like the serving
	// roles, so one scrape config covers the whole fleet (compute and
	// worker resilience counters live process-side, not on the
	// coordinator).
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", metrics.Default().Handler())
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(rw, `{"status": "ok"}`)
	})
	hs := &http.Server{Addr: cfg.addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			// Observability must never take compute down: log and keep
			// leasing cells.
			log.Printf("metrics listener: %v", err)
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Print("shutting down")
		cancel()
	}()

	log.Printf("worker %s attached to %s (metrics on %s)", name, cfg.peer, cfg.addr)
	err := w.Run(ctx)
	sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer scancel()
	_ = hs.Shutdown(sctx)
	if err != nil && err != context.Canceled {
		log.Fatal(err)
	}
}

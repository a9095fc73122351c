package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"gridseg"
	"gridseg/internal/fabric"
	"gridseg/internal/server"
	"gridseg/internal/store"
)

// servePool and fabricPool are how many cases set-up references, a third
// per round, which keeps each round to a second or two. A run uses more
// cases than that (a 40 s fabric_small run about 120); the rest are
// referenced after the measured phase, still off the clock.
const (
	servePool  = 1200
	fabricPool = 60
)

// serveCase is a small-cell grid of tens of cells; its warm subset drops
// the n=24 cells, so it has another grid ID and every cell is stored.
func serveCase(int) (string, string) {
	return "n=16,24,32 w=1,2 tau=0.40:0.48:0.02", "n=16,32 w=1,2 tau=0.40:0.48:0.02"
}

// fabricCase is a small-cell grid of several hundred cells, so the
// workers' idle lease poll is a minority of each grid.
func fabricCase(int) (string, string) {
	return "n=16,24,32 w=1,2 tau=0.40:0.48:0.02 reps=10", "n=16,32 w=1,2 tau=0.40:0.48:0.02 reps=10"
}

// schedule maps operation k to a case and whether it is the case's
// warm grid: three cold grids, then warm and cold alternating, each warm
// grid over the cold grid three operations back, which has usually
// finished by then.
func schedule(k int) (caseIdx int, warm bool) {
	if k < 3 {
		return k, false
	}
	if (k-3)%2 == 0 {
		return (k - 3) / 2, true
	}
	return 3 + (k-4)/2, false
}

// httpBench is segd in-process on loopback: serve_small runs it as a
// single server computing grids itself, fabric_small as a cluster-mode
// coordinator (journal beside the store, as segd's default) with two
// in-process fabric workers that reach the store through store.Remote.
type httpBench struct {
	cases   *caseSet
	cluster bool

	base    string
	client  *http.Client
	hs      *http.Server
	served  chan error
	srv     *server.Server
	journal *fabric.Journal
	tr      *tracer

	cancel  context.CancelFunc
	wg      sync.WaitGroup
	workers []*tracedTransport
}

func newHTTPBench(cs *caseSet, cluster bool) sut {
	return &httpBench{cases: cs, cluster: cluster}
}

func (h *httpBench) clients() int {
	if h.cluster {
		return 1
	}
	return 2
}

func (h *httpBench) start(dir string, tr *tracer) (err error) {
	h.tr = tr
	st, err := gridseg.OpenStore(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	if tr != nil {
		st = timedStore{inner: st, t: tr}
	}
	opt := server.Options{Store: st, Workers: sweepWorkers, Cluster: h.cluster}
	if h.cluster {
		if h.journal, err = fabric.OpenJournal(filepath.Join(dir, "store", "fabric.journal"), fabric.DefaultSyncBatch); err != nil {
			return err
		}
		defer func() {
			if err != nil {
				h.journal.Close()
			}
		}()
		opt.Journal = h.journal
	}
	if h.srv, err = server.New(opt); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.srv.Close()
		return err
	}
	h.base = "http://" + ln.Addr().String()
	h.hs = &http.Server{Handler: h.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	h.served = make(chan error, 1)
	go func() { h.served <- h.hs.Serve(ln) }()
	h.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	if h.cluster {
		h.startWorkers()
	}
	return nil
}

// startWorkers boots two fabric workers with segd's default worker
// settings. Traced workers get a timing transport each, shared by their
// lease client and their store.Remote.
func (h *httpBench) startWorkers() {
	ctx, cancel := context.WithCancel(context.Background())
	h.cancel = cancel
	for i := 0; i < 2; i++ {
		w := &fabric.Worker{
			Name:        fmt.Sprintf("w%d", i+1),
			Coordinator: h.base + "/fabric",
			Store:       store.NewRemoteWith(h.base+"/objects", store.RemoteOptions{}),
			Runner:      gridseg.ComputeJob,
		}
		if h.tr != nil {
			tt := &tracedTransport{base: http.DefaultTransport, t: h.tr}
			client := &http.Client{Transport: tt}
			w.Client = client
			w.Store = store.NewRemoteWith(h.base+"/objects", store.RemoteOptions{Client: client})
			w.Runner = func(j fabric.Job) ([]float64, error) {
				id := h.tr.begin("worker.compute", int(tt.parent.Load()))
				defer h.tr.end(id, 0)
				return gridseg.ComputeJob(j)
			}
			h.workers = append(h.workers, tt)
		}
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			_ = w.Run(ctx) // returns ctx.Err() once stopped
		}()
	}
}

// timeline opens one span per traced worker for the whole phase, or
// closes them; every round trip and computation of a worker is a child
// of its span.
func (h *httpBench) timeline(open bool) {
	for _, tt := range h.workers {
		if open {
			tt.parent.Store(int64(h.tr.begin("worker", 0)))
		} else {
			h.tr.end(int(tt.parent.Swap(0)), 0)
		}
	}
}

func (h *httpBench) stop() {
	if h.cancel != nil {
		h.cancel()
		h.wg.Wait()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: server shutdown: %v\n", err)
	}
	<-h.served
	h.srv.Close()
	if h.journal != nil {
		if err := h.journal.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: journal close: %v\n", err)
		}
	}
	h.client.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
}

// workerPoll is fabric.Worker's default idle poll: a worker whose lease
// came back empty sleeps this long before it asks again.
const workerPoll = 200 * time.Millisecond

// pause delays each fabric_small cold grid by a time drawn from its
// case's seed, uniform over one worker poll. Without it the closed loop
// locks onto the workers' poll: every cycle takes the same time, so
// every cold grid lands at the same point of the idle workers' sleep,
// and a run's latencies shift by up to a whole poll when a cycle's
// length crosses a multiple of it. Submitting at a random point of the
// sleep, as independent users do, makes the wait for the first lease a
// fresh draw for every grid.
func (h *httpBench) pause(k int) time.Duration {
	ci, warm := schedule(k)
	if !h.cluster || warm {
		return 0
	}
	return time.Duration(h.cases.at(ci).seed % uint64(workerPoll))
}

// op is one closed-loop client cycle: submit the grid, follow its SSE
// stream to done, then fetch artifact.csv and artifact.json.
func (h *httpBench) op(ph *phase, k int) []gridResult {
	ci, warm := schedule(k)
	c := h.cases.at(ci)
	if warm {
		<-ph.done(c)
	} else {
		defer close(ph.done(c))
	}
	r := gridResult{c: c, warm: warm}
	sp := c.cold
	if warm {
		sp = c.warm
	}
	root := h.tr.begin("cycle", 0)
	defer h.tr.end(root, 0)
	t0 := time.Now()
	r.cells, r.err = h.runGrid(root, sp, c.seed, warm, &r)
	r.grid = time.Since(t0)
	return []gridResult{r}
}

// runGrid submits one grid and fetches its artifacts, returning the
// number of cells the server reported.
func (h *httpBench) runGrid(root int, sp string, seed uint64, warm bool, r *gridResult) (int, error) {
	id := h.tr.begin("http.submit", root)
	body, _ := json.Marshal(map[string]any{"spec": sp, "seed": seed})
	var sub struct {
		ID string `json:"id"`
	}
	status, err := h.call(http.MethodPost, "/grids", body, &sub)
	h.tr.end(id, int64(status))
	if err != nil {
		return 0, err
	}
	acked := time.Now()
	cells, hits, err := h.follow(root, sub.ID, acked)
	if err != nil {
		return 0, err
	}
	if warm && hits != cells {
		return 0, fmt.Errorf("warm grid %s served %d of %d cells from the store", sub.ID, hits, cells)
	}
	for i, name := range []string{"artifact.csv", "artifact.json"} {
		t := time.Now()
		id := h.tr.begin("http."+strings.Replace(name, ".", "_", 1), root)
		b, err := h.get("/grids/" + sub.ID + "/" + name)
		h.tr.end(id, 0)
		r.artifacts = append(r.artifacts, time.Since(t))
		if err != nil {
			return 0, err
		}
		if i == 0 {
			r.csv = sha256.Sum256(b)
		} else {
			r.json = sha256.Sum256(b)
		}
	}
	return cells, nil
}

// follow reads a run's SSE progress stream until its terminal event.
// The queue wait runs from the submit acknowledgement to the first cell
// event.
func (h *httpBench) follow(root int, gridID string, acked time.Time) (cells, hits int, err error) {
	id := h.tr.begin("http.events", root)
	defer h.tr.end(id, 0)
	resp, err := h.client.Get(h.base + "/grids/" + gridID + "/events")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("events of %s: %s", gridID, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	event, waited := "", false
	for sc.Scan() {
		line := sc.Text()
		if e, ok := strings.CutPrefix(line, "event: "); ok {
			event = e
			if e == "cell" && !waited {
				waited = true
				h.tr.add("server.queue_wait", id, acked, 0)
			}
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		switch event {
		case "done":
			var d struct {
				Cells int            `json:"cells"`
				Cache map[string]int `json:"cache"`
			}
			if err := json.Unmarshal([]byte(data), &d); err != nil {
				return 0, 0, fmt.Errorf("done event of %s: %w", gridID, err)
			}
			return d.Cells, d.Cache["hits"], nil
		case "error":
			return 0, 0, fmt.Errorf("grid %s failed: %s", gridID, data)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	return 0, 0, fmt.Errorf("events of %s ended without a terminal event", gridID)
}

// call sends a JSON request and decodes a 2xx JSON answer into out.
func (h *httpBench) call(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, h.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	return resp.StatusCode, json.Unmarshal(b, out)
}

// get fetches one resource, which must answer 200.
func (h *httpBench) get(path string) ([]byte, error) {
	resp, err := h.client.Get(h.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, errors.New("GET " + path + ": " + resp.Status)
	}
	return b, nil
}

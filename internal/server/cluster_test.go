package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gridseg"
	"gridseg/internal/fabric"
	"gridseg/internal/store"
	"gridseg/internal/testlog"
)

// clusterSpec is large enough that three workers genuinely interleave
// (16 cells) while each cell stays cheap.
const clusterSpec = "n=16 w=1 tau=0.4,0.42,0.44,0.46 reps=4"

// newClusterServer starts a coordinator-mode Server behind httptest.
func newClusterServer(t *testing.T, st gridseg.CellStore, ttl time.Duration) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Options{Store: st, Cluster: true, LeaseTTL: ttl, Logger: testlog.New(t)})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

// localArtifacts computes the single-process reference bytes for a
// (spec, seed) pair: what plain segd (or cmd/sweep) would serve.
func localArtifacts(t *testing.T, spec string, seed uint64) (csv, jsonBytes []byte) {
	t.Helper()
	res, err := gridseg.RunGrid(spec, gridseg.GridOptions{Seed: seed, Store: gridseg.NewMemoryStore()})
	if err != nil {
		t.Fatal(err)
	}
	var cbuf, jbuf bytes.Buffer
	if err := res.WriteCSV(&cbuf); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteJSON(&jbuf); err != nil {
		t.Fatal(err)
	}
	return cbuf.Bytes(), jbuf.Bytes()
}

// TestClusterChaos is the fault-injection e2e of the distributed
// fabric: a coordinator plus three in-process workers whose transports
// inject timeouts, 5xx, and torn connections on a seeded schedule. One
// worker is killed mid-sweep (after completing a cell), one is killed
// mid-cell (inside a computation); the grid must still complete with
// zero lost and zero double-counted cells, and the artifacts must be
// byte-identical to a single-process run.
func TestClusterChaos(t *testing.T) {
	const seed = 7
	st := gridseg.NewMemoryStore()
	_, hs := newClusterServer(t, st, 300*time.Millisecond)

	// Fault schedule: deterministic per worker given its seed — rerun
	// with the same seeds to reproduce a failure exactly.
	transports := []*fabric.ChaosTransport{
		fabric.NewChaosTransport(101, http.DefaultTransport, 0.05, 0.05, 0.05),
		fabric.NewChaosTransport(202, http.DefaultTransport, 0.05, 0.05, 0.05),
		fabric.NewChaosTransport(303, http.DefaultTransport, 0.05, 0.05, 0.05),
	}

	ctxSweep, cancelSweep := context.WithCancel(context.Background())
	ctxCell, cancelCell := context.WithCancel(context.Background())
	ctxSurvivor, cancelSurvivor := context.WithCancel(context.Background())
	defer cancelSweep()
	defer cancelCell()
	defer cancelSurvivor()

	// Worker killed mid-sweep: its first cell completes end to end;
	// the second call parks until the kill lands, so it dies holding a
	// lease it will never report — the requeue path must recover it.
	var sweepCalls int
	var sweepMu sync.Mutex
	sweepKilled := make(chan struct{})
	runnerSweep := func(j fabric.Job) ([]float64, error) {
		sweepMu.Lock()
		sweepCalls++
		n := sweepCalls
		sweepMu.Unlock()
		if n >= 2 {
			close(sweepKilled)
			<-ctxSweep.Done()
			return nil, ctxSweep.Err()
		}
		return gridseg.ComputeJob(j)
	}
	// Worker killed mid-cell: dies inside its first computation.
	cellStarted := make(chan struct{})
	var cellOnce sync.Once
	runnerCell := func(j fabric.Job) ([]float64, error) {
		cellOnce.Do(func() { close(cellStarted) })
		<-ctxCell.Done()
		return nil, ctxCell.Err()
	}

	workers := []struct {
		name   string
		ctx    context.Context
		tr     *fabric.ChaosTransport
		runner func(fabric.Job) ([]float64, error)
	}{
		{"w-sweepkill", ctxSweep, transports[0], runnerSweep},
		{"w-cellkill", ctxCell, transports[1], runnerCell},
		{"w-survivor", ctxSurvivor, transports[2], gridseg.ComputeJob},
	}
	var wg sync.WaitGroup
	for _, wk := range workers {
		client := &http.Client{Transport: wk.tr}
		w := &fabric.Worker{
			Name:        wk.name,
			Coordinator: hs.URL + "/fabric",
			Client:      client,
			Runner:      wk.runner,
			Poll:        20 * time.Millisecond,
			Logger:      testlog.New(t),
		}
		wg.Add(1)
		go func(ctx context.Context) {
			defer wg.Done()
			w.Run(ctx)
		}(wk.ctx)
	}
	defer wg.Wait()

	status, code := submit(t, hs.URL, clusterSpec, seed)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	cells := status.Cells

	// Deliver the kills once each victim is in position.
	select {
	case <-cellStarted:
	case <-time.After(20 * time.Second):
		t.Fatal("mid-cell victim never started a cell")
	}
	cancelCell()
	select {
	case <-sweepKilled:
	case <-time.After(20 * time.Second):
		t.Fatal("mid-sweep victim never reached its second cell")
	}
	cancelSweep()

	final := waitDone(t, hs.URL, status.ID)
	cancelSurvivor()
	if final.State != StateDone {
		t.Fatalf("final state = %s (%s)", final.State, final.Error)
	}
	// Zero lost, zero double-counted: every cell accounted for exactly
	// once in the completion and cache tallies.
	if final.Done != cells {
		t.Fatalf("done = %d, want %d", final.Done, cells)
	}
	if final.Cache.Hits+final.Cache.Misses != cells {
		t.Fatalf("cache hits %d + misses %d != %d cells", final.Cache.Hits, final.Cache.Misses, cells)
	}

	// The SSE replay must carry exactly one event per cell — a
	// double-reported cell would show up as a duplicate identity here.
	events := sseCellEvents(t, hs.URL+"/grids/"+status.ID+"/events")
	if len(events) != cells {
		t.Fatalf("SSE streamed %d cell events, want %d", len(events), cells)
	}
	seen := map[string]bool{}
	for _, ev := range events {
		id := fmt.Sprintf("%s|%d|%d|%v|%v|%v|%d", ev.Dynamic, ev.N, ev.W, ev.Tau, ev.P, ev.Extra, ev.Rep)
		if seen[id] {
			t.Fatalf("cell %s reported twice over SSE", id)
		}
		seen[id] = true
		if !ev.Cached && ev.Worker == "" {
			t.Fatalf("computed cell %s lacks worker attribution", id)
		}
	}

	// Byte-identical artifacts: the cluster's CSV and JSON must equal a
	// single-process run of the same (spec, seed).
	wantCSV, wantJSON := localArtifacts(t, clusterSpec, seed)
	gotCSV, code := fetch(t, hs.URL+"/grids/"+status.ID+"/artifact.csv")
	if code != http.StatusOK || !bytes.Equal(gotCSV, wantCSV) {
		t.Fatalf("cluster CSV differs from single-process run (status %d)\ngot:\n%s\nwant:\n%s", code, gotCSV, wantCSV)
	}
	gotJSON, code := fetch(t, hs.URL+"/grids/"+status.ID+"/artifact.json")
	if code != http.StatusOK || !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("cluster JSON differs from single-process run (status %d)", code)
	}

	// The kills actually exercised the requeue path, and the seeded
	// schedule actually injected faults.
	var fstatus struct {
		Requeues int                 `json:"requeues"`
		Metrics  fabric.TableMetrics `json:"metrics"`
	}
	data, _ := fetch(t, hs.URL+"/fabric/status")
	if err := json.Unmarshal(data, &fstatus); err != nil {
		t.Fatal(err)
	}
	if fstatus.Requeues < 2 {
		t.Fatalf("requeues = %d, want >= 2 (both victims died holding leases)", fstatus.Requeues)
	}
	// The cumulative metrics snapshot must balance the run's books:
	// every cell completed exactly once (dupes folded), every requeue
	// re-granted, and every accepted completion measured for latency.
	fm := fstatus.Metrics
	if fm.Requeues != fstatus.Requeues {
		t.Fatalf("metrics.requeues = %d, top-level requeues = %d", fm.Requeues, fstatus.Requeues)
	}
	if fm.Completions != cells {
		t.Fatalf("metrics.completions = %d, want %d (one per cell, dupes folded)", fm.Completions, cells)
	}
	if fm.Grants < fm.Completions {
		t.Fatalf("metrics.grants = %d < completions %d (every completion needs a grant)", fm.Grants, fm.Completions)
	}
	if fm.LeaseSecondsCount != fm.Completions || fm.LeaseSecondsSum < 0 || fm.LeaseSecondsMax < 0 {
		t.Fatalf("lease latency snapshot inconsistent: %+v", fm)
	}
	total := 0
	for _, n := range fm.CompletedByWorker {
		total += n
	}
	if total != fm.Completions {
		t.Fatalf("per-worker completions sum to %d, want %d", total, fm.Completions)
	}
	if fm.CompletedByWorker["w-survivor"] == 0 {
		t.Fatalf("survivor worker completed no cells: %v", fm.CompletedByWorker)
	}
	faults := 0
	for _, tr := range transports {
		faults += tr.Faults()
	}
	if faults == 0 {
		t.Fatal("chaos schedule injected no faults; the test proved nothing")
	}
	t.Logf("chaos: %d faults injected, %d requeues", faults, fstatus.Requeues)
}

// TestClusterServesCachedRunWithoutWorkers pins the coordinator's
// cache path: a grid whose cells are all in the shared store completes
// with no workers attached at all, every cell a hit.
func TestClusterServesCachedRunWithoutWorkers(t *testing.T) {
	const seed = 9
	st := gridseg.NewMemoryStore()
	if _, err := gridseg.RunGrid(testSpec, gridseg.GridOptions{Seed: seed, Store: st}); err != nil {
		t.Fatal(err)
	}
	_, hs := newClusterServer(t, st, time.Second)

	status, code := submit(t, hs.URL, testSpec, seed)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	final := waitDone(t, hs.URL, status.ID)
	if final.State != StateDone {
		t.Fatalf("final state = %s (%s)", final.State, final.Error)
	}
	if final.Cache.Hits != final.Cells || final.Cache.Misses != 0 {
		t.Fatalf("cache = %+v, want all %d cells hit", final.Cache, final.Cells)
	}
	wantCSV, _ := localArtifacts(t, testSpec, seed)
	gotCSV, _ := fetch(t, hs.URL+"/grids/"+status.ID+"/artifact.csv")
	if !bytes.Equal(gotCSV, wantCSV) {
		t.Fatalf("cached cluster CSV differs from single-process run")
	}
}

// TestClusterWorkerErrorFailsRun pins the deterministic-error path: a
// cell that fails on a worker fails the run (it would fail anywhere),
// and resubmission is still possible afterwards.
func TestClusterWorkerErrorFailsRun(t *testing.T) {
	st := gridseg.NewMemoryStore()
	_, hs := newClusterServer(t, st, time.Second)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &fabric.Worker{
		Name:        "w-broken",
		Coordinator: hs.URL + "/fabric",
		Runner:      func(j fabric.Job) ([]float64, error) { return nil, fmt.Errorf("synthetic cell failure") },
		Poll:        10 * time.Millisecond,
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.Run(ctx)
	}()
	defer wg.Wait()
	defer cancel()

	status, _ := submit(t, hs.URL, testSpec, 11)
	final := waitDone(t, hs.URL, status.ID)
	if final.State != StateFailed || !strings.Contains(final.Error, "synthetic cell failure") {
		t.Fatalf("final = %+v, want failed with the worker's error", final)
	}
}

// sseCellEvents fetches a finished run's SSE replay and decodes its
// cell events.
func sseCellEvents(t *testing.T, url string) []cellEvent {
	t.Helper()
	body, code := fetch(t, url)
	if code != http.StatusOK {
		t.Fatalf("events status = %d", code)
	}
	var out []cellEvent
	lines := strings.Split(string(body), "\n")
	for i := 0; i < len(lines); i++ {
		if lines[i] != "event: cell" {
			continue
		}
		if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "data: ") {
			t.Fatalf("malformed SSE frame at line %d", i)
		}
		var ev cellEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[i+1], "data: ")), &ev); err != nil {
			t.Fatal(err)
		}
		out = append(out, ev)
	}
	return out
}

// TestClusterShutdownReleasesHeldLease pins segd's shutdown wiring: with
// ReleaseLeases registered on the http.Server, a lease request the
// coordinator is holding for work answers 204 at shutdown instead of
// keeping Shutdown waiting for its whole wait_ms.
func TestClusterShutdownReleasesHeldLease(t *testing.T) {
	s, err := New(Options{Store: gridseg.NewMemoryStore(), Cluster: true, Logger: testlog.New(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	arrived := make(chan struct{}, 1)
	h := s.Handler()
	hs := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/fabric/lease" {
			arrived <- struct{}{}
		}
		h.ServeHTTP(w, r)
	}))
	hs.Config.RegisterOnShutdown(s.ReleaseLeases)
	hs.Start()
	defer hs.Close()

	status := make(chan int, 1)
	go func() {
		resp, err := http.Post(hs.URL+"/fabric/lease", "application/json", strings.NewReader(`{"worker":"w","wait_ms":10000}`))
		if err != nil {
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	select {
	case <-arrived:
	case <-time.After(10 * time.Second):
		t.Fatal("lease request never arrived")
	}
	time.Sleep(50 * time.Millisecond) // let the request settle into its hold
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := hs.Config.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("shutdown waited %v on a held lease", d)
	}
	if code := <-status; code != http.StatusNoContent {
		t.Fatalf("held lease answered %d at shutdown, want 204", code)
	}
}

// slowPutStore delays every Put, so a run that published done before
// its write-behind fills landed is caught by the read that follows.
type slowPutStore struct {
	gridseg.CellStore
	delay time.Duration
}

func (s slowPutStore) Put(key string, values []float64) error {
	time.Sleep(s.delay)
	return s.CellStore.Put(key, values)
}

// failPutStore refuses every Put, like a full disk.
type failPutStore struct{ gridseg.CellStore }

func (failPutStore) Put(string, []float64) error { return errors.New("synthetic disk full") }

// startClusterWorkers attaches n fabric workers to the coordinator at
// base for the rest of the test.
func startClusterWorkers(t *testing.T, base string, n int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := &fabric.Worker{
			Name:        fmt.Sprintf("w%d", i),
			Coordinator: base + "/fabric",
			Runner:      gridseg.ComputeJob,
			Poll:        20 * time.Millisecond,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
}

// fabricGrants reads the coordinator's cumulative lease-grant count.
func fabricGrants(t *testing.T, base string) int {
	t.Helper()
	var fstatus struct {
		Metrics fabric.TableMetrics `json:"metrics"`
	}
	data, _ := fetch(t, base+"/fabric/status")
	if err := json.Unmarshal(data, &fstatus); err != nil {
		t.Fatal(err)
	}
	return fstatus.Metrics.Grants
}

// TestClusterFillsStoreBeforeDone pins the write-behind contract: the
// coordinator fills its store from the workers' completions, and a run
// publishes done only after every fill landed. The store's Puts are
// slowed so the fills trail the completions; a grid submitted right
// after done must still find every cell and lease nothing.
func TestClusterFillsStoreBeforeDone(t *testing.T) {
	const seed = 13
	const warmSpec = "n=16 w=1 tau=0.4,0.42 reps=4"
	mem := store.NewMemory()
	_, hs := newClusterServer(t, slowPutStore{mem, 20 * time.Millisecond}, time.Second)
	startClusterWorkers(t, hs.URL, 2)

	jobs, err := gridseg.GridJobs(clusterSpec, seed)
	if err != nil {
		t.Fatal(err)
	}
	warmJobs, err := gridseg.GridJobs(warmSpec, seed)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, fj := range jobs {
		keys[fj.Key] = true
	}
	for _, fj := range warmJobs {
		if !keys[fj.Key] {
			t.Fatalf("warm cell %d is not a cell of the first grid", fj.Index)
		}
	}

	status, code := submit(t, hs.URL, clusterSpec, seed)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	final := waitDone(t, hs.URL, status.ID)
	if final.State != StateDone || final.Cache.Misses != final.Cells {
		t.Fatalf("final = %+v, want done with all %d cells computed", final, final.Cells)
	}
	for _, fj := range jobs {
		if _, ok, err := mem.Get(fj.Key); err != nil || !ok {
			t.Fatalf("cell %d not in the store when its run was done: %v, %v", fj.Index, ok, err)
		}
	}
	if mem.Len() != len(jobs) {
		t.Fatalf("store holds %d cells, want %d", mem.Len(), len(jobs))
	}

	grants := fabricGrants(t, hs.URL)
	status, code = submit(t, hs.URL, warmSpec, seed)
	if code != http.StatusAccepted {
		t.Fatalf("warm submit status = %d", code)
	}
	final = waitDone(t, hs.URL, status.ID)
	if final.State != StateDone || final.Cache.Hits != final.Cells || final.Cache.Misses != 0 {
		t.Fatalf("warm final = %+v, want done with all %d cells hit", final, final.Cells)
	}
	if g := fabricGrants(t, hs.URL); g != grants {
		t.Fatalf("warm grid granted %d leases, want 0", g-grants)
	}
}

// TestClusterFillFailureIsSoft pins the fail-soft fill: a store whose
// every Put fails still yields a finished run with byte-identical
// artifacts, and the failed fills are logged.
func TestClusterFillFailureIsSoft(t *testing.T) {
	const seed = 17
	var logs logLines
	s, err := New(Options{
		Store: failPutStore{gridseg.NewMemoryStore()}, Cluster: true, LeaseTTL: time.Second,
		Logger: slog.New(slog.NewTextHandler(&logs, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	startClusterWorkers(t, hs.URL, 2)

	status, _ := submit(t, hs.URL, testSpec, seed)
	final := waitDone(t, hs.URL, status.ID)
	if final.State != StateDone || final.Cache.Misses != final.Cells {
		t.Fatalf("final = %+v, want done with all %d cells computed", final, final.Cells)
	}
	wantCSV, wantJSON := localArtifacts(t, testSpec, seed)
	if got, _ := fetch(t, hs.URL+"/grids/"+status.ID+"/artifact.csv"); !bytes.Equal(got, wantCSV) {
		t.Fatalf("CSV differs from single-process run\ngot:\n%s\nwant:\n%s", got, wantCSV)
	}
	if got, _ := fetch(t, hs.URL+"/grids/"+status.ID+"/artifact.json"); !bytes.Equal(got, wantJSON) {
		t.Fatal("JSON differs from single-process run")
	}
	logs.mu.Lock()
	defer logs.mu.Unlock()
	failed := 0
	for _, l := range logs.lines {
		if strings.Contains(l, "caching cell failed") && strings.Contains(l, "synthetic disk full") {
			failed++
		}
	}
	if failed != final.Cells {
		t.Fatalf("logged %d failed fills, want %d:\n%s", failed, final.Cells, strings.Join(logs.lines, ""))
	}
}

// logLines collects a slog handler's output, one record per Write.
type logLines struct {
	mu    sync.Mutex
	lines []string
}

func (l *logLines) Write(p []byte) (int, error) {
	l.mu.Lock()
	l.lines = append(l.lines, string(p))
	l.mu.Unlock()
	return len(p), nil
}

// TestClusterHealsCorruptObjects pins store healing on the cluster
// path: the coordinator's registration scan finds one undecodable
// object and one holding another key, leases exactly those two cells,
// and the run finishes byte-identical to a single-process run with
// both objects rewritten and counted in gridseg_store_corrupt_total.
func TestClusterHealsCorruptObjects(t *testing.T) {
	const seed = 19
	root := filepath.Join(t.TempDir(), "store")
	st, err := gridseg.OpenStore(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gridseg.RunGrid(testSpec, gridseg.GridOptions{Seed: seed, Store: st}); err != nil {
		t.Fatal(err)
	}
	jobs, err := gridseg.GridJobs(testSpec, seed)
	if err != nil {
		t.Fatal(err)
	}
	path := func(key string) string { return filepath.Join(root, "objects", key[:2], key[2:]) }
	if err := os.WriteFile(path(jobs[0].Key), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	other, err := os.ReadFile(path(jobs[2].Key))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path(jobs[1].Key), other, 0o644); err != nil {
		t.Fatal(err)
	}

	_, hs := newClusterServer(t, st, time.Second)
	startClusterWorkers(t, hs.URL, 2)
	before := scrapeCounter(t, "gridseg_store_corrupt_total")
	status, code := submit(t, hs.URL, testSpec, seed)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	final := waitDone(t, hs.URL, status.ID)
	if final.State != StateDone || final.Cache.Hits != len(jobs)-2 || final.Cache.Misses != 2 {
		t.Fatalf("final = %+v, want done with the 2 damaged cells computed", final)
	}
	wantCSV, wantJSON := localArtifacts(t, testSpec, seed)
	if got, _ := fetch(t, hs.URL+"/grids/"+status.ID+"/artifact.csv"); !bytes.Equal(got, wantCSV) {
		t.Fatalf("CSV differs from single-process run\ngot:\n%s\nwant:\n%s", got, wantCSV)
	}
	if got, _ := fetch(t, hs.URL+"/grids/"+status.ID+"/artifact.json"); !bytes.Equal(got, wantJSON) {
		t.Fatal("JSON differs from single-process run")
	}
	for _, fj := range jobs[:2] {
		if v, ok, err := st.Get(fj.Key); err != nil || !ok || len(v) != len(fj.Columns) {
			t.Fatalf("cell %d not rewritten: %v, %v, %v", fj.Index, v, ok, err)
		}
	}
	if d := scrapeCounter(t, "gridseg_store_corrupt_total") - before; d != 2 {
		t.Fatalf("gridseg_store_corrupt_total advanced by %v, want 2", d)
	}
}

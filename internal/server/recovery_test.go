package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
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
	"gridseg/internal/metrics"
	"gridseg/internal/store"
	"gridseg/internal/testlog"
)

// jsonUnmarshal is json.Unmarshal under a test-local name, so the
// decode sites here read symmetrically with fetch.
func jsonUnmarshal(data []byte, v any) error { return json.Unmarshal(data, v) }

// cellIdentity renders the parameter identity of one SSE cell event.
func cellIdentity(ev cellEvent) string {
	return fmt.Sprintf("%s|%d|%d|%v|%v|%v|%d", ev.Dynamic, ev.N, ev.W, ev.Tau, ev.P, ev.Extra, ev.Rep)
}

// httptestNewServer serves s over httptest with ordered cleanup.
func httptestNewServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return hs
}

// scrapeCounter reads one counter family off the process-global
// registry (coordinator and in-process workers share it here, exactly
// like the single-binary segd deployment).
func scrapeCounter(t *testing.T, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	metrics.Default().WritePrometheus(&buf)
	samples, err := metrics.ParseText(&buf)
	if err != nil {
		t.Fatalf("parsing /metrics text: %v", err)
	}
	total := 0.0
	for _, s := range samples[name] {
		total += s.Value
	}
	return total
}

// waitProgress polls a run until at least min cells are done, so the
// coordinator kill lands genuinely mid-sweep.
func waitProgress(t *testing.T, base, id string, min int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		data, code := fetch(t, base+"/grids/"+id)
		if code == http.StatusOK {
			var st jobStatus
			if err := jsonUnmarshal(data, &st); err != nil {
				t.Fatal(err)
			}
			if st.Done >= min {
				return
			}
			if st.State == StateDone || st.State == StateFailed {
				t.Fatalf("run reached %s before the kill could land (done=%d)", st.State, st.Done)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never reached %d done cells", min)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// rebind re-listens on addr, retrying while the kernel releases it.
func rebind(t *testing.T, addr string) net.Listener {
	t.Helper()
	var l net.Listener
	var err error
	for i := 0; i < 300; i++ {
		if l, err = net.Listen("tcp", addr); err == nil {
			return l
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("rebinding %s: %v", addr, err)
	return nil
}

// TestClusterCoordinatorRestartRecovery is the coordinator-kill chaos
// e2e: a journaled coordinator is killed mid-sweep — workers mid-cell,
// fault-injecting transports active — and a fresh coordinator process
// (same journal, same store, same address) must resume the run and
// complete it with zero lost cells, zero duplicated cells, artifacts
// byte-identical to a single-process run, and the recovery/reconnect
// metrics advancing to match the injected outage.
func TestClusterCoordinatorRestartRecovery(t *testing.T) {
	const seed = 7
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "fabric.journal")
	st, err := gridseg.OpenStore(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}

	recoveredBefore := scrapeCounter(t, "fabric_recovered_cells_total")
	reconnectsBefore := scrapeCounter(t, "fabric_worker_reconnects_total")
	outagesBefore := scrapeCounter(t, "fabric_worker_outages_total")

	// Coordinator incarnation 1, on a listener whose address we control
	// so incarnation 2 can rebind it (workers reconnect to the same URL,
	// as they would to a restarted segd behind a stable host:port).
	j1, err := fabric.OpenJournal(journalPath, fabric.DefaultSyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(Options{Store: st, Cluster: true, LeaseTTL: 300 * time.Millisecond, Journal: j1, Logger: testlog.New(t)})
	if err != nil {
		t.Fatal(err)
	}
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l1.Addr().String()
	base := "http://" + addr
	hs1 := &http.Server{Handler: s1.Handler()}
	go hs1.Serve(l1)

	// Two workers that outlive both coordinator incarnations, leasing
	// through seeded fault-injecting transports. The runner is slowed so
	// the kill reliably catches cells in flight.
	transports := []*fabric.ChaosTransport{
		fabric.NewChaosTransport(404, http.DefaultTransport, 0.03, 0.03, 0.03),
		fabric.NewChaosTransport(505, http.DefaultTransport, 0.03, 0.03, 0.03),
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i, name := range []string{"ph-1", "ph-2"} {
		client := &http.Client{Transport: transports[i]}
		w := &fabric.Worker{
			Name:           name,
			Coordinator:    base + "/fabric",
			Client:         client,
			Poll:           20 * time.Millisecond,
			RequestTimeout: 2 * time.Second,
			BackoffBase:    20 * time.Millisecond,
			BackoffMax:     250 * time.Millisecond,
			Runner: func(j fabric.Job) ([]float64, error) {
				time.Sleep(60 * time.Millisecond)
				return gridseg.ComputeJob(j)
			},
			Logger: testlog.New(t),
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	defer wg.Wait()
	defer cancel()

	status, code := submit(t, base, clusterSpec, seed)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	cells := status.Cells

	// Kill the coordinator once the sweep is genuinely under way:
	// some cells done, some leased, workers mid-computation.
	waitProgress(t, base, status.ID, 4)
	hs1.Close()
	s1.Close()
	if err := j1.Close(); err != nil {
		t.Fatalf("closing journal after kill: %v", err)
	}
	// Let the workers discover the outage and enter backoff.
	time.Sleep(400 * time.Millisecond)

	// Coordinator incarnation 2: same journal, same store, same address.
	// New must replay the journal and resume the run unprompted.
	j2, err := fabric.OpenJournal(journalPath, fabric.DefaultSyncBatch)
	if err != nil {
		t.Fatalf("reopening journal: %v", err)
	}
	s2, err := New(Options{Store: st, Cluster: true, LeaseTTL: 300 * time.Millisecond, Journal: j2, Logger: testlog.New(t)})
	if err != nil {
		t.Fatal(err)
	}
	l2 := rebind(t, addr)
	hs2 := &http.Server{Handler: s2.Handler()}
	go hs2.Serve(l2)
	var downOnce sync.Once
	shutdown2 := func() {
		downOnce.Do(func() {
			hs2.Close()
			s2.Close()
			j2.Close()
		})
	}
	t.Cleanup(shutdown2)

	final := waitDone(t, base, status.ID)
	if final.State != StateDone {
		t.Fatalf("resumed run state = %s (%s)", final.State, final.Error)
	}
	// Zero lost, zero duplicated: every cell accounted for exactly once.
	if final.Done != cells {
		t.Fatalf("done = %d, want %d", final.Done, cells)
	}
	if final.Cache.Hits+final.Cache.Misses != cells {
		t.Fatalf("cache hits %d + misses %d != %d cells", final.Cache.Hits, final.Cache.Misses, cells)
	}
	events := sseCellEvents(t, base+"/grids/"+status.ID+"/events")
	if len(events) != cells {
		t.Fatalf("SSE streamed %d cell events, want %d", len(events), cells)
	}
	seen := map[string]bool{}
	for _, ev := range events {
		id := cellIdentity(ev)
		if seen[id] {
			t.Fatalf("cell %s reported twice across the restart", id)
		}
		seen[id] = true
	}

	// Byte-identical artifacts despite the crash: the recovered run's
	// CSV and JSON equal a single-process RunGrid of the same inputs.
	wantCSV, wantJSON := localArtifacts(t, clusterSpec, seed)
	gotCSV, code := fetch(t, base+"/grids/"+status.ID+"/artifact.csv")
	if code != http.StatusOK || !bytes.Equal(gotCSV, wantCSV) {
		t.Fatalf("recovered CSV differs from single-process run (status %d)", code)
	}
	gotJSON, code := fetch(t, base+"/grids/"+status.ID+"/artifact.json")
	if code != http.StatusOK || !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("recovered JSON differs from single-process run (status %d)", code)
	}

	// The recovery actually recovered: the new table absorbed the cells
	// the store held instead of recomputing the whole grid, and its
	// status surfaces the recovery accounting.
	var fstatus struct {
		Metrics fabric.TableMetrics `json:"metrics"`
	}
	data, _ := fetch(t, base+"/fabric/status")
	if err := jsonUnmarshal(data, &fstatus); err != nil {
		t.Fatal(err)
	}
	if fstatus.Metrics.RecoveredRuns < 1 {
		t.Fatalf("recovered_runs = %d, want >= 1", fstatus.Metrics.RecoveredRuns)
	}
	if fstatus.Metrics.RecoveredCells < 4 {
		t.Fatalf("recovered_cells = %d, want >= 4 (at least the pre-kill completions)", fstatus.Metrics.RecoveredCells)
	}
	// Prometheus counters advanced to match the injected faults: the
	// recovered cells were counted, and each worker logged the outage
	// and its reconnection.
	if d := scrapeCounter(t, "fabric_recovered_cells_total") - recoveredBefore; d < 4 {
		t.Fatalf("fabric_recovered_cells_total advanced by %v, want >= 4", d)
	}
	if d := scrapeCounter(t, "fabric_worker_outages_total") - outagesBefore; d < 1 {
		t.Fatalf("fabric_worker_outages_total advanced by %v, want >= 1", d)
	}
	if d := scrapeCounter(t, "fabric_worker_reconnects_total") - reconnectsBefore; d < 1 {
		t.Fatalf("fabric_worker_reconnects_total advanced by %v, want >= 1", d)
	}
	faults := 0
	for _, tr := range transports {
		faults += tr.Faults()
	}
	if faults == 0 {
		t.Fatal("chaos schedule injected no faults; the restart was the only adversity")
	}
	t.Logf("restart chaos: %d faults injected, %d cells recovered", faults, fstatus.Metrics.RecoveredCells)

	// The finished run is retired from the journal: a third incarnation
	// would boot with nothing to resume.
	shutdown2()
	j3, err := fabric.OpenJournal(journalPath, fabric.DefaultSyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if runs := j3.Runs(); len(runs) != 0 {
		t.Fatalf("journal still holds %d runs after completion: %+v", len(runs), runs)
	}
}

// TestClusterTokenAuth pins the shared-secret gate: without the token
// the fabric and object endpoints answer 401 and leak nothing, with it
// a worker completes a run end to end, and the public grid API stays
// open either way.
func TestClusterTokenAuth(t *testing.T) {
	const token = "sesame-cluster-secret"
	st := gridseg.NewMemoryStore()
	s, err := New(Options{Store: st, Cluster: true, LeaseTTL: time.Second, Token: token, Logger: testlog.New(t)})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptestNewServer(t, s)

	// Tokenless and wrong-token callers are refused on both groups.
	for _, tc := range []struct{ name, header string }{
		{"no token", ""},
		{"wrong token", "Bearer not-the-secret"},
	} {
		req, _ := http.NewRequest(http.MethodPost, hs.URL+"/fabric/lease", bytes.NewReader([]byte(`{"worker":"x"}`)))
		if tc.header != "" {
			req.Header.Set("Authorization", tc.header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("%s lease status = %d, want 401", tc.name, resp.StatusCode)
		}
		key := store.CellSpec{Scope: "auth"}.Key()
		oreq, _ := http.NewRequest(http.MethodGet, hs.URL+"/objects/"+key, nil)
		if tc.header != "" {
			oreq.Header.Set("Authorization", tc.header)
		}
		oresp, err := http.DefaultClient.Do(oreq)
		if err != nil {
			t.Fatal(err)
		}
		oresp.Body.Close()
		if oresp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("%s object status = %d, want 401", tc.name, oresp.StatusCode)
		}
	}
	// The public grid API needs no token.
	if _, code := fetch(t, hs.URL+"/grids"); code != http.StatusOK {
		t.Fatalf("public list status = %d, want 200", code)
	}

	// An authenticated worker completes a real run end to end.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &fabric.Worker{
		Name:        "keyed",
		Coordinator: hs.URL + "/fabric",
		Runner:      gridseg.ComputeJob,
		Poll:        10 * time.Millisecond,
		Token:       token,
		Logger:      testlog.New(t),
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.Run(ctx)
	}()
	defer wg.Wait()
	defer cancel()

	status, code := submit(t, hs.URL, testSpec, 13)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	final := waitDone(t, hs.URL, status.ID)
	if final.State != StateDone {
		t.Fatalf("final state = %s (%s)", final.State, final.Error)
	}
}

// TestClusterJournalLifecycle pins the journal bookkeeping around a
// clean run: registration on submit, retirement on completion.
func TestClusterJournalLifecycle(t *testing.T) {
	const seed = 9
	dir := t.TempDir()
	st := gridseg.NewMemoryStore()
	// Pre-compute every cell so the run completes with no workers.
	if _, err := gridseg.RunGrid(testSpec, gridseg.GridOptions{Seed: seed, Store: st}); err != nil {
		t.Fatal(err)
	}
	j, err := fabric.OpenJournal(filepath.Join(dir, "fabric.journal"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	s, err := New(Options{Store: st, Cluster: true, LeaseTTL: time.Second, Journal: j, Logger: testlog.New(t)})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptestNewServer(t, s)

	status, code := submit(t, hs.URL, testSpec, seed)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	final := waitDone(t, hs.URL, status.ID)
	if final.State != StateDone {
		t.Fatalf("final state = %s (%s)", final.State, final.Error)
	}
	if runs := j.Runs(); len(runs) != 0 {
		t.Fatalf("journal holds %d runs after a clean completion: %+v", len(runs), runs)
	}
}

// TestJournalTwoLinesPerRun pins what the journal holds: the set of
// unfinished runs and nothing per cell. A finished 300-cell cluster
// run appends exactly its register and finish lines.
func TestJournalTwoLinesPerRun(t *testing.T) {
	const spec = "n=16 w=1 tau=0.4,0.42,0.44,0.46 reps=75" // 300 cells
	path := filepath.Join(t.TempDir(), "fabric.journal")
	j, err := fabric.OpenJournal(path, fabric.DefaultSyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	s, err := New(Options{Store: gridseg.NewMemoryStore(), Cluster: true, LeaseTTL: time.Second, Journal: j, Logger: testlog.New(t)})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptestNewServer(t, s)
	startClusterWorkers(t, hs.URL, 2)

	status, code := submit(t, hs.URL, spec, 3)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	final := waitDone(t, hs.URL, status.ID)
	if final.State != StateDone || final.Cells != 300 || final.Cache.Misses != 300 {
		t.Fatalf("final = %+v, want done with all 300 cells computed", final)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 2 ||
		!strings.HasPrefix(lines[0], `{"t":"register","run":"`+status.ID+`"`) ||
		lines[1] != `{"t":"finish","run":"`+status.ID+`"}` {
		t.Fatalf("journal after one finished run holds %d lines, want its register and finish:\n%s", len(lines), data)
	}
}

// TestJournalFinishFollowsRegister pins the order of a run's two
// journal lines. The submit handler enqueues a run before it writes
// the register line, and a fully cached run on an idle dispatcher can
// finish within that gap; a finish line written first would leave
// replay keeping the finished run, to be run again on the next boot.
// Sequential one-cell cached submits hit the gap repeatedly (the race
// detector's scheduling widens it).
func TestJournalFinishFollowsRegister(t *testing.T) {
	const (
		spec = "n=8 w=1 tau=0.4 reps=1"
		runs = 300
	)
	st := gridseg.NewMemoryStore()
	for seed := uint64(1); seed <= runs; seed++ {
		if _, err := gridseg.RunGrid(spec, gridseg.GridOptions{Seed: seed, Workers: 1, Store: st}); err != nil {
			t.Fatal(err)
		}
	}
	j, err := fabric.OpenJournal(filepath.Join(t.TempDir(), "fabric.journal"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	s, err := New(Options{Store: st, Cluster: true, LeaseTTL: time.Second, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptestNewServer(t, s)
	for seed := uint64(1); seed <= runs; seed++ {
		status, code := submit(t, hs.URL, spec, seed)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d status = %d", seed, code)
		}
		if final := waitDone(t, hs.URL, status.ID); final.State != StateDone || final.Cache.Hits != 1 {
			t.Fatalf("run %d = %+v, want done from the store", seed, final)
		}
	}
	if left := j.Runs(); len(left) != 0 {
		t.Fatalf("journal keeps %d of %d finished runs as unfinished", len(left), runs)
	}
}

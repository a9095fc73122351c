package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gridseg"
	"gridseg/internal/fabric"
	"gridseg/internal/testlog"
)

// The tests here pin single mode as what it is: a coordinator whose
// workers are goroutines of the server. They are named TestCluster*
// so `make cluster-test` runs them under the race detector.

// rawCellEvents fetches a finished run's SSE replay and decodes each
// cell event's payload as a generic object, so absent keys show.
func rawCellEvents(t *testing.T, url string) []map[string]any {
	t.Helper()
	body, code := fetch(t, url)
	if code != http.StatusOK {
		t.Fatalf("events status = %d", code)
	}
	var out []map[string]any
	lines := strings.Split(string(body), "\n")
	for i := 0; i+1 < len(lines); i++ {
		if lines[i] != "event: cell" {
			continue
		}
		var ev map[string]any
		if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[i+1], "data: ")), &ev); err != nil {
			t.Fatal(err)
		}
		out = append(out, ev)
	}
	return out
}

// TestClusterSingleModeSameBytes pins the one run path: for the same
// (spec, seed) a single-mode server and a coordinator with one fabric
// worker serve byte-identical artifacts, and single-mode cell events
// carry no worker attribution while the coordinator's computed ones do.
func TestClusterSingleModeSameBytes(t *testing.T) {
	const seed = 23
	_, single := newTestServer(t, gridseg.NewMemoryStore())
	_, coord := newClusterServer(t, gridseg.NewMemoryStore(), time.Second)
	startClusterWorkers(t, coord.URL, 1)

	var artifacts [2][2][]byte
	for i, base := range []string{single.URL, coord.URL} {
		status, code := submit(t, base, clusterSpec, seed)
		if code != http.StatusAccepted {
			t.Fatalf("submit status = %d", code)
		}
		if final := waitDone(t, base, status.ID); final.State != StateDone || final.Cache.Misses != final.Cells {
			t.Fatalf("final = %+v, want done with every cell computed", final)
		}
		artifacts[i][0], _ = fetch(t, base+"/grids/"+status.ID+"/artifact.csv")
		artifacts[i][1], _ = fetch(t, base+"/grids/"+status.ID+"/artifact.json")
		events := rawCellEvents(t, base+"/grids/"+status.ID+"/events")
		if len(events) != status.Cells {
			t.Fatalf("%d cell events, want %d", len(events), status.Cells)
		}
		for _, ev := range events {
			if _, named := ev["worker"]; named != (base == coord.URL) {
				t.Fatalf("cell event %v: worker key present = %v on the %s server", ev, named, map[bool]string{true: "coordinator", false: "single-mode"}[base == coord.URL])
			}
		}
	}
	if !bytes.Equal(artifacts[0][0], artifacts[1][0]) {
		t.Fatal("single-mode CSV differs from the coordinator's")
	}
	if !bytes.Equal(artifacts[0][1], artifacts[1][1]) {
		t.Fatal("single-mode JSON differs from the coordinator's")
	}
	wantCSV, _ := localArtifacts(t, clusterSpec, seed)
	if !bytes.Equal(artifacts[0][0], wantCSV) {
		t.Fatal("single-mode CSV differs from RunGrid's")
	}
}

// countingRunner wraps the cell function with a per-call delay and
// counts the calls per cell key.
type countingRunner struct {
	delay time.Duration
	mu    sync.Mutex
	calls map[string]int
}

func (c *countingRunner) compute(j fabric.Job, tap *gridseg.LiveTap) ([]float64, error) {
	c.mu.Lock()
	c.calls[j.Key]++
	c.mu.Unlock()
	time.Sleep(c.delay)
	return gridseg.ComputeJobLive(j, tap)
}

// TestClusterSingleModeRenewsLeases pins the in-process workers'
// renewal: with a 50 ms lease TTL and cells that take 200 ms, each
// cell is still computed exactly once, because a worker renews the
// leases it holds while it computes.
func TestClusterSingleModeRenewsLeases(t *testing.T) {
	const seed = 29
	runner := &countingRunner{delay: 200 * time.Millisecond, calls: map[string]int{}}
	s, err := newServer(Options{Store: gridseg.NewMemoryStore(), Workers: 2, LeaseTTL: 50 * time.Millisecond, Logger: testlog.New(t)}, runner.compute)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptestNewServer(t, s)
	status, _ := submit(t, hs.URL, testSpec, seed)
	if final := waitDone(t, hs.URL, status.ID); final.State != StateDone {
		t.Fatalf("final = %+v", final)
	}
	jobs, err := gridseg.GridJobs(testSpec, seed)
	if err != nil {
		t.Fatal(err)
	}
	runner.mu.Lock()
	defer runner.mu.Unlock()
	for _, fj := range jobs {
		if n := runner.calls[fj.Key]; n != 1 {
			t.Fatalf("cell %d computed %d times, want once", fj.Index, n)
		}
	}
	if len(runner.calls) != len(jobs) {
		t.Fatalf("computed %d distinct cells, want %d", len(runner.calls), len(jobs))
	}
}

// TestClusterSingleModeRestart pins the journal in single mode: a
// server closed mid-run leaves the run in its journal, and a server
// booted on the same store and journal resumes it, absorbing the cells
// whose fills landed and serving artifacts byte-identical to RunGrid.
func TestClusterSingleModeRestart(t *testing.T) {
	const seed = 31
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "fabric.journal")
	st, err := gridseg.OpenStore(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	recoveredBefore := scrapeCounter(t, "fabric_recovered_cells_total")

	j1, err := fabric.OpenJournal(journalPath, fabric.DefaultSyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	slow := &countingRunner{delay: 30 * time.Millisecond, calls: map[string]int{}}
	s1, err := newServer(Options{Store: st, Workers: 1, Journal: j1, Logger: testlog.New(t)}, slow.compute)
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(s1.Handler())
	status, code := submit(t, hs1.URL, clusterSpec, seed)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	waitProgress(t, hs1.URL, status.ID, 4)
	s1.Close()
	hs1.Close()
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := fabric.OpenJournal(journalPath, fabric.DefaultSyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j2.Close() }) // after s2's cleanup closes the server
	s2, err := New(Options{Store: st, Workers: 2, Journal: j2, Logger: testlog.New(t)})
	if err != nil {
		t.Fatal(err)
	}
	hs2 := httptestNewServer(t, s2)
	final := waitDone(t, hs2.URL, status.ID)
	if final.State != StateDone || final.Done != final.Cells {
		t.Fatalf("resumed run = %+v, want done", final)
	}
	if final.Cache.Hits < 4 {
		t.Fatalf("resumed run found %d cells in the store, want >= 4 (the pre-close completions)", final.Cache.Hits)
	}
	wantCSV, wantJSON := localArtifacts(t, clusterSpec, seed)
	if got, _ := fetch(t, hs2.URL+"/grids/"+status.ID+"/artifact.csv"); !bytes.Equal(got, wantCSV) {
		t.Fatal("resumed CSV differs from RunGrid's")
	}
	if got, _ := fetch(t, hs2.URL+"/grids/"+status.ID+"/artifact.json"); !bytes.Equal(got, wantJSON) {
		t.Fatal("resumed JSON differs from RunGrid's")
	}
	if d := scrapeCounter(t, "fabric_recovered_cells_total") - recoveredBefore; d < 4 {
		t.Fatalf("fabric_recovered_cells_total advanced by %v, want >= 4", d)
	}
	if runs := j2.Runs(); len(runs) != 0 {
		t.Fatalf("journal still holds %d runs after the resumed run finished", len(runs))
	}
}

// TestClusterCountsCachedCells pins the cache counter on a
// coordinator: a resubmission whose 4 cells are all in the store
// raises gridseg_cells_cached_total by 4, so the hit rate
// cached/(cached+computed) reads true on every serving role.
func TestClusterCountsCachedCells(t *testing.T) {
	const seed = 37
	st := gridseg.NewMemoryStore()
	_, cold := newClusterServer(t, st, time.Second)
	startClusterWorkers(t, cold.URL, 1)
	status, _ := submit(t, cold.URL, testSpec, seed)
	if final := waitDone(t, cold.URL, status.ID); final.State != StateDone || final.Cells != 4 {
		t.Fatalf("cold run = %+v, want done with 4 cells", final)
	}

	// A restarted coordinator on the same store: the registry is gone,
	// so the resubmission runs afresh from the store.
	_, warm := newClusterServer(t, st, time.Second)
	before := scrapeCounter(t, "gridseg_cells_cached_total")
	status, code := submit(t, warm.URL, testSpec, seed)
	if code != http.StatusAccepted {
		t.Fatalf("warm submit status = %d", code)
	}
	if final := waitDone(t, warm.URL, status.ID); final.State != StateDone || final.Cache.Hits != 4 {
		t.Fatalf("warm run = %+v, want done with 4 hits", final)
	}
	if d := scrapeCounter(t, "gridseg_cells_cached_total") - before; d != 4 {
		t.Fatalf("gridseg_cells_cached_total advanced by %v, want 4", d)
	}
}

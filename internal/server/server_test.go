package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gridseg"
	"gridseg/internal/fabric"
)

const testSpec = "n=16 w=1 tau=0.4,0.45 reps=2"

// newTestServer starts a Server over the given store behind httptest.
func newTestServer(t *testing.T, st gridseg.CellStore) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Options{Store: st, Workers: 2})
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

// submit posts a grid and decodes the returned status.
func submit(t *testing.T, base, spec string, seed uint64) (jobStatus, int) {
	t.Helper()
	body, _ := json.Marshal(map[string]interface{}{"spec": spec, "seed": seed})
	resp, err := http.Post(base+"/grids", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	return st, resp.StatusCode
}

// waitDone polls a run's status until it is terminal.
func waitDone(t *testing.T, base, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/grids/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st jobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("grid %s still %s after 30s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fetch GETs a path and returns the body and status code.
func fetch(t *testing.T, url string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data, resp.StatusCode
}

// TestSubmitRunServe is the end-to-end acceptance path: submit a grid,
// wait for completion, fetch artifacts, then resubmit and restart the
// server over the same store — both must recompute zero cells and
// serve byte-identical artifacts.
func TestSubmitRunServe(t *testing.T) {
	root := filepath.Join(t.TempDir(), "store")
	st, err := gridseg.OpenStore(root)
	if err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, st)

	status, code := submit(t, hs.URL, testSpec, 5)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	if status.Cells != 4 || status.ID == "" {
		t.Fatalf("submit response = %+v", status)
	}
	final := waitDone(t, hs.URL, status.ID)
	if final.State != StateDone || final.Done != 4 {
		t.Fatalf("final status = %+v", final)
	}
	if final.Cache.Hits != 0 || final.Cache.Misses != 4 {
		t.Fatalf("first run cache = %+v", final.Cache)
	}

	csv1, code := fetch(t, hs.URL+"/grids/"+status.ID+"/artifact.csv")
	if code != http.StatusOK {
		t.Fatalf("artifact.csv status = %d", code)
	}
	if !bytes.HasPrefix(csv1, []byte("dynamic,n,w,tau,p,rep,happy_frac")) {
		t.Fatalf("unexpected CSV header: %.80s", csv1)
	}
	json1, code := fetch(t, hs.URL+"/grids/"+status.ID+"/artifact.json")
	if code != http.StatusOK {
		t.Fatalf("artifact.json status = %d", code)
	}
	cells, code := fetch(t, hs.URL+"/grids/"+status.ID+"/cells")
	if code != http.StatusOK || !bytes.Contains(cells, []byte("happy_frac")) {
		t.Fatalf("cells status = %d body %.80s", code, cells)
	}

	// Resubmission: content-addressed, so the same run answers — same
	// ID, already done, no recomputation.
	re, code := submit(t, hs.URL, testSpec, 5)
	if code != http.StatusOK {
		t.Fatalf("resubmit status = %d", code)
	}
	if re.ID != status.ID || re.State != StateDone {
		t.Fatalf("resubmit = %+v", re)
	}

	// Fresh server, same store: the grid is recomputed as a run but
	// every cell is a cache hit, and the artifacts are byte-identical.
	_, hs2 := newTestServer(t, st)
	status2, _ := submit(t, hs2.URL, testSpec, 5)
	final2 := waitDone(t, hs2.URL, status2.ID)
	if final2.Cache.Hits != 4 || final2.Cache.Misses != 0 {
		t.Fatalf("restarted-server cache = %+v (want all hits)", final2.Cache)
	}
	csv2, _ := fetch(t, hs2.URL+"/grids/"+status2.ID+"/artifact.csv")
	json2, _ := fetch(t, hs2.URL+"/grids/"+status2.ID+"/artifact.json")
	if !bytes.Equal(csv1, csv2) || !bytes.Equal(json1, json2) {
		t.Fatal("artifacts differ across server restarts sharing a store")
	}
	if status2.ID != status.ID {
		t.Fatalf("grid ID changed across servers: %s vs %s", status.ID, status2.ID)
	}
}

// TestOverlappingGridComputesOnlyNewCells submits a second grid that
// overlaps the first and asserts only the new parameter points are
// computed.
func TestOverlappingGridComputesOnlyNewCells(t *testing.T) {
	st := gridseg.NewMemoryStore()
	_, hs := newTestServer(t, st)

	a, _ := submit(t, hs.URL, "n=16 w=1 tau=0.40,0.42 reps=2", 5)
	waitDone(t, hs.URL, a.ID)

	b, _ := submit(t, hs.URL, "n=16 w=1 tau=0.42,0.44 reps=2", 5)
	final := waitDone(t, hs.URL, b.ID)
	if final.Cache.Hits != 2 || final.Cache.Misses != 2 {
		t.Fatalf("overlap cache = %+v (want 2 hits / 2 misses)", final.Cache)
	}
}

// TestSSEEvents subscribes to a finished run and asserts the replayed
// stream carries per-cell events and the terminal done event.
func TestSSEEvents(t *testing.T) {
	st := gridseg.NewMemoryStore()
	_, hs := newTestServer(t, st)
	status, _ := submit(t, hs.URL, testSpec, 5)
	waitDone(t, hs.URL, status.ID)

	resp, err := http.Get(hs.URL + "/grids/" + status.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var cellEvents, doneEvents int
	scanner := bufio.NewScanner(resp.Body)
	var lastData string
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case line == "event: cell":
			cellEvents++
		case line == "event: done":
			doneEvents++
		case strings.HasPrefix(line, "data: "):
			lastData = strings.TrimPrefix(line, "data: ")
		}
		if doneEvents > 0 && lastData != "" && strings.Contains(lastData, "cells") {
			break // terminal event read; the stream is over
		}
	}
	if cellEvents != 4 {
		t.Fatalf("replayed %d cell events, want 4", cellEvents)
	}
	if doneEvents != 1 {
		t.Fatalf("got %d done events, want 1", doneEvents)
	}
	var terminal struct {
		Cells int `json:"cells"`
	}
	if err := json.Unmarshal([]byte(lastData), &terminal); err != nil || terminal.Cells != 4 {
		t.Fatalf("terminal payload %q: %v", lastData, err)
	}
}

// TestSSELiveStream subscribes before the run finishes and must still
// observe the terminal event.
func TestSSELiveStream(t *testing.T) {
	st := gridseg.NewMemoryStore()
	_, hs := newTestServer(t, st)
	// A slightly larger grid so the subscription races the run itself.
	status, _ := submit(t, hs.URL, "n=24 w=1,2 tau=0.4,0.45 reps=2", 9)

	resp, err := http.Get(hs.URL + "/grids/" + status.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sawTerminal := false
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if line == "event: done" || line == "event: error" {
			sawTerminal = true
			break
		}
	}
	if !sawTerminal {
		t.Fatal("live SSE stream ended without a terminal event")
	}
}

// TestFailedRunRetry asserts a failed run does not poison its
// content-addressed ID: resubmitting re-enqueues a fresh attempt
// instead of returning the stale failure forever.
func TestFailedRunRetry(t *testing.T) {
	// Validation now catches every spec-level mistake synchronously,
	// so stub the in-process runner to fail once — modeling an
	// environmental failure (full disk, poisoned checkpoint) — then
	// recover.
	var failures atomic.Int32
	failures.Store(1)
	srv, err := newServer(Options{Store: gridseg.NewMemoryStore(), Workers: 2}, func(j fabric.Job, tap *gridseg.LiveTap) ([]float64, error) {
		if failures.Add(-1) >= 0 {
			return nil, errors.New("synthetic environmental failure")
		}
		return gridseg.ComputeJobLive(j, tap)
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	const spec = "n=16 w=1 tau=0.4 reps=1"
	a, code := submit(t, hs.URL, spec, 1)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	if st := waitDone(t, hs.URL, a.ID); st.State != StateFailed || st.Error == "" {
		t.Fatalf("first attempt = %+v, want failed with an error", st)
	}
	// The retry is a new attempt (202), not the cached failure (200).
	b, code := submit(t, hs.URL, spec, 1)
	if code != http.StatusAccepted || b.ID != a.ID {
		t.Fatalf("retry = %d %+v", code, b)
	}
	waitDone(t, hs.URL, b.ID)
}

// TestHTTPErrors covers the API's failure envelope.
func TestHTTPErrors(t *testing.T) {
	st := gridseg.NewMemoryStore()
	_, hs := newTestServer(t, st)

	// Malformed body.
	resp, err := http.Post(hs.URL+"/grids", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status = %d", resp.StatusCode)
	}
	// Invalid spec.
	if _, code := submit(t, hs.URL, "tau=1.5", 1); code != http.StatusBadRequest {
		t.Fatalf("invalid spec status = %d", code)
	}
	// Structurally underspecified grid (no n/w/tau): a synchronous 400,
	// not an asynchronous run failure.
	if _, code := submit(t, hs.URL, "reps=4", 1); code != http.StatusBadRequest {
		t.Fatalf("underspecified spec status = %d", code)
	}
	// Unknown grid.
	if _, code := fetch(t, hs.URL+"/grids/deadbeef"); code != http.StatusNotFound {
		t.Fatalf("unknown grid status = %d", code)
	}
	if _, code := fetch(t, hs.URL+"/grids/deadbeef/artifact.csv"); code != http.StatusNotFound {
		t.Fatalf("unknown artifact status = %d", code)
	}
	// Healthz.
	if body, code := fetch(t, hs.URL+"/healthz"); code != http.StatusOK || !bytes.Contains(body, []byte("ok")) {
		t.Fatalf("healthz = %d %s", code, body)
	}
}

// TestArtifactBeforeDone asserts artifacts 409 while a run is still
// queued. The server under test has no dispatcher goroutine, so the
// submitted job deterministically stays in the queued state.
func TestArtifactBeforeDone(t *testing.T) {
	s := &Server{
		store: gridseg.NewMemoryStore(),
		grids: map[string]*job{},
		queue: make(chan *job, 4),
		stop:  make(chan struct{}),
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	queued, code := submit(t, hs.URL, "n=16 w=1 tau=0.4 reps=1", 2)
	if code != http.StatusAccepted || queued.State != StateQueued {
		t.Fatalf("submit = %d %+v", code, queued)
	}
	if _, code := fetch(t, hs.URL+"/grids/"+queued.ID+"/artifact.csv"); code != http.StatusConflict {
		t.Fatalf("queued artifact status = %d, want 409", code)
	}
	if _, code := fetch(t, hs.URL+"/grids/"+queued.ID+"/cells"); code != http.StatusConflict {
		t.Fatalf("queued cells status = %d, want 409", code)
	}
}

// TestQueueFull asserts overflowing the run queue yields 503 without
// corrupting the registry: rejected submissions leave no trace, and
// the listing still serves every accepted run.
func TestQueueFull(t *testing.T) {
	s := &Server{
		store: gridseg.NewMemoryStore(),
		grids: map[string]*job{},
		queue: make(chan *job, 2), // no dispatcher: the queue only fills
		stop:  make(chan struct{}),
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	var accepted []string
	for i, tau := range []string{"0.40", "0.42", "0.44", "0.46"} {
		st, code := submit(t, hs.URL, "n=16 w=1 tau="+tau+" reps=1", 1)
		if i < 2 {
			if code != http.StatusAccepted {
				t.Fatalf("submission %d status = %d", i, code)
			}
			accepted = append(accepted, st.ID)
		} else if code != http.StatusServiceUnavailable {
			t.Fatalf("submission %d status = %d, want 503", i, code)
		}
	}
	body, code := fetch(t, hs.URL+"/grids")
	if code != http.StatusOK {
		t.Fatalf("list status = %d", code)
	}
	var doc struct {
		Grids []jobStatus `json:"grids"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Grids) != 2 || doc.Grids[0].ID != accepted[0] || doc.Grids[1].ID != accepted[1] {
		t.Fatalf("listing after overflow = %+v", doc.Grids)
	}
}

// TestList covers the run listing.
func TestList(t *testing.T) {
	st := gridseg.NewMemoryStore()
	_, hs := newTestServer(t, st)
	a, _ := submit(t, hs.URL, "n=16 w=1 tau=0.4 reps=1", 1)
	b, _ := submit(t, hs.URL, "n=16 w=1 tau=0.45 reps=1", 1)
	waitDone(t, hs.URL, a.ID)
	waitDone(t, hs.URL, b.ID)
	body, code := fetch(t, hs.URL+"/grids")
	if code != http.StatusOK {
		t.Fatalf("list status = %d", code)
	}
	var doc struct {
		Grids []jobStatus `json:"grids"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Grids) != 2 || doc.Grids[0].ID != a.ID || doc.Grids[1].ID != b.ID {
		t.Fatalf("listing = %+v", doc.Grids)
	}
}

// TestEviction asserts the registry stays bounded: once MaxRuns is
// exceeded, the oldest finished runs are dropped, and resubmitting an
// evicted grid replays it from the store without recomputation.
func TestEviction(t *testing.T) {
	st := gridseg.NewMemoryStore()
	s, err := New(Options{Store: st, Workers: 2, MaxRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	var ids []string
	for _, tau := range []string{"0.40", "0.42", "0.44"} {
		st, _ := submit(t, hs.URL, "n=16 w=1 tau="+tau+" reps=1", 1)
		waitDone(t, hs.URL, st.ID)
		ids = append(ids, st.ID)
	}
	// The first (oldest finished) run was evicted, the rest remain.
	if _, code := fetch(t, hs.URL+"/grids/"+ids[0]); code != http.StatusNotFound {
		t.Fatalf("evicted grid status = %d, want 404", code)
	}
	if _, code := fetch(t, hs.URL+"/grids/"+ids[2]); code != http.StatusOK {
		t.Fatalf("retained grid status = %d", code)
	}
	// Resubmitting the evicted grid replays it entirely from cache.
	re, code := submit(t, hs.URL, "n=16 w=1 tau=0.40 reps=1", 1)
	if code != http.StatusAccepted || re.ID != ids[0] {
		t.Fatalf("resubmit after eviction = %d %+v", code, re)
	}
	final := waitDone(t, hs.URL, re.ID)
	if final.Cache.Hits != 1 || final.Cache.Misses != 0 {
		t.Fatalf("replay cache = %+v (want all hits)", final.Cache)
	}
}

// TestGridIDStability pins the submission ID against gridseg.GridID so
// clients can compute IDs offline.
func TestGridIDStability(t *testing.T) {
	st := gridseg.NewMemoryStore()
	_, hs := newTestServer(t, st)
	status, _ := submit(t, hs.URL, testSpec, 5)
	want, err := gridseg.GridID(testSpec, 5)
	if err != nil {
		t.Fatal(err)
	}
	if status.ID != want {
		t.Fatalf("server ID %s != GridID %s", status.ID, want)
	}
	waitDone(t, hs.URL, status.ID)
}

package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// fuzzPaths are the protocol endpoints whose bodies workers send and
// the coordinator must treat as untrusted.
var fuzzPaths = []string{"/lease", "/heartbeat", "/complete"}

// FuzzCoordinatorHandler posts arbitrary JSON bodies to the lease,
// heartbeat and complete endpoints of a coordinator holding a small
// run, one of whose cells is already leased. Whatever the bodies —
// negative or huge wait_ms and max, null or wrong-length values, wrong
// types, bad JSON — the handler must not panic, must not hold a request
// past the lease-wait cap (shortened here so the fuzzer stays fast),
// must answer with a protocol status, must not grant a cell already
// reported and must report no cell twice. Completing every cell at the
// end must then close the run with each cell reported exactly once,
// and never earlier.
func FuzzCoordinatorHandler(f *testing.F) {
	defer func(cap time.Duration) { maxLeaseWait = cap }(maxLeaseWait)
	maxLeaseWait = 5 * time.Millisecond

	for _, s := range []struct {
		first, second string
		paths         uint8
	}{
		{`{"worker":"w"}`, `{"run":"r","index":1,"lease":2,"worker":"w","values":[1,2]}`, 0 + 3*2},
		{`{"worker":"w","max":-5,"wait_ms":-1}`, `{"worker":"w","max":1000000000,"wait_ms":9223372036854775807}`, 0},
		{`{"worker":"w","wait_ms":-9223372036854775808}`, `{"worker":null,"max":null,"wait_ms":null}`, 0},
		{`{"worker":"w","max":4,"wait_ms":5000}`, `{"worker":"w","wait_ms":1e3}`, 0},
		{`{"run":"r","index":0,"lease":1}`, `{"run":"r","index":-1,"lease":1}`, 1 + 3*1},
		{`{"run":"r","index":0,"lease":1,"worker":"w","values":[1,null]}`, `{"run":"r","index":0,"lease":9,"worker":"v","values":[1,null]}`, 2 + 3*2},
		{`{"run":"r","index":2,"values":[1]}`, `{"run":"r","index":2,"values":null}`, 2 + 3*2},
		{`{"run":"r","index":2,"error":"boom"}`, `{"run":"r","index":99999999999999999999}`, 2 + 3*1},
		{`{"run":"nope","index":0,"values":[1,2,3]}`, `[]`, 2 + 3*0},
		{`null`, `"x"`, 1 + 3*2},
		{`{"values":[1,2`, `{}`, 2},
		{`{"run":"r","index":2,"lease":0,"worker":"old","values":[1,2]}`, `{"worker":"w","max":8}`, 2 + 3*0},
	} {
		f.Add([]byte(s.first), []byte(s.second), s.paths)
	}
	f.Fuzz(func(t *testing.T, first, second []byte, paths uint8) {
		coord := NewCoordinator(time.Minute, nil)
		reported := map[int]int{}
		done, err := coord.Table().Register("r", mkJobs(3), func(d CellDone) { reported[d.Index]++ })
		if err != nil {
			t.Fatal(err)
		}
		pre, ok := coord.Table().Lease("w")
		if !ok {
			t.Fatal("no cell to pre-lease")
		}
		leases := map[int]uint64{pre.Job.Index: pre.Lease}
		h := coord.Handler()
		post := func(path string, body []byte) {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			rec := httptest.NewRecorder()
			start := time.Now()
			h.ServeHTTP(rec, req)
			if d := time.Since(start); d > maxLeaseWait+time.Second {
				t.Fatalf("POST %s %q held %v, past the %v cap", path, body, d, maxLeaseWait)
			}
			switch rec.Code {
			case http.StatusOK, http.StatusNoContent, http.StatusBadRequest, http.StatusConflict:
			default:
				t.Fatalf("POST %s %q answered %d", path, body, rec.Code)
			}
			if path == "/lease" && rec.Code == http.StatusOK {
				// One grant or a batch, depending on the request's max.
				var resp struct {
					LeaseGrant
					Grants []LeaseGrant `json:"grants"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatalf("POST %s %q: undecodable grant %q: %v", path, body, rec.Body, err)
				}
				grants := resp.Grants
				if resp.Job.Run != "" {
					grants = append(grants, resp.LeaseGrant)
				}
				for _, g := range grants {
					if reported[g.Job.Index] > 0 {
						t.Fatalf("POST %s %q granted cell %d, already reported", path, body, g.Job.Index)
					}
					leases[g.Job.Index] = g.Lease
				}
			}
			for i, n := range reported {
				if n > 1 {
					t.Fatalf("cell %d reported %d times", i, n)
				}
			}
			select {
			case <-done:
				if len(reported) != 3 {
					t.Fatalf("run closed with cells %v of 3 reported", reported)
				}
			default:
			}
		}
		p1, p2 := fuzzPaths[int(paths)%3], fuzzPaths[int(paths/3)%3]
		post(p1, first)
		post(p2, second)
		post(p1, first)
		post("/lease", []byte(`{"worker":"z","max":8,"wait_ms":1}`))
		// Complete every cell under the lease it was last granted (a
		// stale or zero token is still accepted): the run must close
		// with each cell reported exactly once.
		for i := 0; i < 3; i++ {
			post("/complete", []byte(fmt.Sprintf(`{"run":"r","index":%d,"lease":%d,"worker":"z","values":[1,2]}`, i, leases[i])))
		}
		select {
		case <-done:
		default:
			t.Fatalf("run still open after every cell completed, reported %v", reported)
		}
		for i := 0; i < 3; i++ {
			if reported[i] != 1 {
				t.Fatalf("cell %d reported %d times, want 1", i, reported[i])
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/status", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /status answered %d", rec.Code)
		}
	})
}

package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fuzzPaths are the protocol endpoints whose bodies workers send and
// the coordinator must treat as untrusted.
var fuzzPaths = []string{"/lease", "/heartbeat", "/complete"}

// FuzzCoordinatorHandler posts arbitrary JSON bodies to the lease,
// heartbeat and complete endpoints of a coordinator holding two small
// runs, one of whose cells is already leased. Whatever the bodies —
// negative or huge wait_ms, null or wrong-length values, duplicate
// cells, cells of several runs or of unknown runs in one list, wrong
// types, bad JSON, bodies at the size limit — the handler must not
// panic, must not hold a request past the lease-wait cap (shortened
// here so the fuzzer stays fast), must answer with a protocol status
// and a decodable body, must not grant a cell already reported, must
// not grant more than maxGrant cells at once and must report no cell
// twice. Completing every cell at the end, each listed twice, must
// then close both runs with each cell reported exactly once, and never
// earlier.
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
		// List-shaped completions and heartbeats: duplicate cells,
		// mixed and unknown runs, wrong widths, null lists.
		{`{"worker":"w","cells":[{"run":"r","index":1,"lease":0,"values":[1,2]},{"run":"r","index":1,"lease":0,"values":[1,2]}]}`,
			`{"worker":"w","leases":[{"run":"r","index":0,"lease":1},{"run":"r","index":0,"lease":1}]}`, 2 + 3*1},
		{`{"worker":"w","cells":[{"run":"r","index":2,"values":[1,2]},{"run":"s","index":1,"values":[3,null]},{"run":"s","index":0,"error":"boom"}]}`,
			`{"worker":"w","leases":[{"run":"s","index":0,"lease":3},{"run":"r","index":0,"lease":1}]}`, 2 + 3*1},
		{`{"worker":"w","cells":[{"run":"nope","index":0,"values":[1,2]},{"run":"r","index":7,"values":[1,2]}]}`,
			`{"worker":"w","leases":[{"run":"nope","index":0,"lease":1},{"run":"s","index":-3,"lease":0}]}`, 2 + 3*1},
		{`{"worker":"w","cells":[{"run":"r","index":1,"values":[1]},{"run":"r","index":2,"values":[1,2]}]}`,
			`{"worker":"w","cells":null,"leases":null}`, 2 + 3*1},
		{`{"worker":"w","cells":[{"run":"s","index":0,"lease":0,"values":[1,2]}],"leases":[{"run":"s","index":0}]}`,
			`{"worker":"w","wait_ms":1}`, 2 + 3*0},
		// Bodies at the size limit: just under it, and just over it.
		{nearLimit(`{"worker":"w","cells":[`, `{"run":"r","index":1,"lease":0,"values":[1,2]}`, `]}`, maxBodyBytes-64),
			nearLimit(`{"worker":"w","leases":[`, `{"run":"r","index":0,"lease":1}`, `]}`, maxBodyBytes+64), 2 + 3*1},
	} {
		f.Add([]byte(s.first), []byte(s.second), s.paths)
	}
	f.Fuzz(func(t *testing.T, first, second []byte, paths uint8) {
		coord := NewCoordinator(time.Minute, nil)
		type cell struct {
			run   string
			index int
		}
		runs := map[string]int{"r": 3, "s": 2}
		reported := map[cell]int{}
		done := map[string]<-chan struct{}{}
		for _, run := range []string{"r", "s"} {
			d, err := coord.Table().Register(run, mkJobs(runs[run]), func(d CellDone) { reported[cell{run, d.Index}]++ })
			if err != nil {
				t.Fatal(err)
			}
			done[run] = d
		}
		pre, ok := coord.Table().Lease("w")
		if !ok {
			t.Fatal("no cell to pre-lease")
		}
		leases := map[cell]uint64{{pre.Job.Run, pre.Job.Index}: pre.Lease}
		h := coord.Handler()
		post := func(path string, body []byte) {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			rec := httptest.NewRecorder()
			start := time.Now()
			h.ServeHTTP(rec, req)
			if d := time.Since(start); d > maxLeaseWait+time.Second {
				t.Fatalf("POST %s %.200q held %v, past the %v cap", path, body, d, maxLeaseWait)
			}
			switch rec.Code {
			case http.StatusOK, http.StatusNoContent, http.StatusBadRequest:
			default:
				t.Fatalf("POST %s %.200q answered %d", path, body, rec.Code)
			}
			if path == "/lease" && rec.Code == http.StatusOK {
				var resp leaseResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatalf("POST %s %.200q: undecodable grant %q: %v", path, body, rec.Body, err)
				}
				if len(resp.Grants) == 0 || len(resp.Grants) > maxGrant {
					t.Fatalf("POST %s %.200q granted %d cells", path, body, len(resp.Grants))
				}
				for _, g := range resp.Grants {
					c := cell{g.Job.Run, g.Job.Index}
					if reported[c] > 0 {
						t.Fatalf("POST %s %.200q granted cell %v, already reported", path, body, c)
					}
					leases[c] = g.Lease
				}
			}
			if path == "/heartbeat" && rec.Code == http.StatusOK {
				var resp heartbeatResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatalf("POST %s %.200q: undecodable answer %q: %v", path, body, rec.Body, err)
				}
			}
			for c, n := range reported {
				if n > 1 {
					t.Fatalf("cell %v reported %d times", c, n)
				}
			}
			for run, d := range done {
				select {
				case <-d:
					for i := 0; i < runs[run]; i++ {
						if reported[cell{run, i}] != 1 {
							t.Fatalf("run %s closed with cell %d reported %d times", run, i, reported[cell{run, i}])
						}
					}
				default:
				}
			}
		}
		p1, p2 := fuzzPaths[int(paths)%3], fuzzPaths[int(paths/3)%3]
		post(p1, first)
		post(p2, second)
		post(p1, first)
		post("/lease", []byte(`{"worker":"z","wait_ms":1}`))
		// Complete every cell under the lease it was last granted (a
		// stale or zero token is still accepted), each listed twice: the
		// runs must close with each cell reported exactly once.
		var all []string
		for _, run := range []string{"r", "s"} {
			for i := 0; i < runs[run]; i++ {
				e := fmt.Sprintf(`{"run":%q,"index":%d,"lease":%d,"values":[1,2]}`, run, i, leases[cell{run, i}])
				all = append(all, e, e)
			}
		}
		post("/complete", []byte(`{"worker":"z","cells":[`+strings.Join(all, ",")+`]}`))
		for run, d := range done {
			select {
			case <-d:
			default:
				t.Fatalf("run %s still open after every cell completed, reported %v", run, reported)
			}
			for i := 0; i < runs[run]; i++ {
				if reported[cell{run, i}] != 1 {
					t.Fatalf("cell %d of run %s reported %d times, want 1", i, run, reported[cell{run, i}])
				}
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/status", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /status answered %d", rec.Code)
		}
	})
}

// nearLimit builds a JSON list body of about size bytes: head, then
// entry repeated (comma-separated), then tail.
func nearLimit(head, entry, tail string, size int) string {
	n := (size - len(head) - len(tail)) / (len(entry) + 1)
	return head + strings.TrimSuffix(strings.Repeat(entry+",", n), ",") + tail
}

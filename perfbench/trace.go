package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gridseg"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Parent is the ID of the span that caused it (0
// for spans with no parent in the benchmark's view, such as store calls
// made on the server's goroutines). Attr carries one number per span:
// the HTTP status of a round trip, 1 for a store hit, the flips of a
// dynamics span, the worker count of a pool span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Attr   int64  `json:"attr,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer, and a
// tracer that is off, record nothing: the untraced workloads pass nil.
type tracer struct {
	origin time.Time
	on     atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span and returns its ID; 0 when nothing is recorded.
func (t *tracer) begin(name string, parent int) int {
	if t == nil || !t.on.Load() {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id with its attribute.
func (t *tracer) end(id int, attr int64) {
	if t == nil || id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Attr = attr
}

// add records a span that started at start and ends now.
func (t *tracer) add(name string, parent int, start time.Time, attr int64) {
	if t == nil || !t.on.Load() {
		return
	}
	s := int64(start.Sub(t.origin))
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: s, End: now, Attr: attr})
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedStore is the CellStore timing wrapper: every Get and Put becomes
// a store.get / store.put span (Attr 1 on a hit).
type timedStore struct {
	inner gridseg.CellStore
	t     *tracer
}

func (s timedStore) Get(key string) ([]float64, bool, error) { return s.get(0, key) }

func (s timedStore) Put(key string, values []float64) error { return s.put(0, key, values) }

func (s timedStore) get(parent int, key string) ([]float64, bool, error) {
	id := s.t.begin("store.get", parent)
	v, ok, err := s.inner.Get(key)
	hit := int64(0)
	if ok {
		hit = 1
	}
	s.t.end(id, hit)
	return v, ok, err
}

func (s timedStore) put(parent int, key string, values []float64) error {
	id := s.t.begin("store.put", parent)
	err := s.inner.Put(key, values)
	s.t.end(id, 0)
	return err
}

// tracedTransport times the round trips of one fabric worker: its lease
// protocol calls and its store.Remote object calls, keyed by route. A
// span ends when the response body is closed, so it covers the whole
// exchange. Spans are children of the worker's timeline span, and
// nothing is recorded while that span is not open.
type tracedTransport struct {
	base   http.RoundTripper
	t      *tracer
	parent atomic.Int64
}

// route names the layer operation of a worker request.
func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasSuffix(p, "/fabric/lease"):
		return "fabric.lease"
	case strings.HasSuffix(p, "/fabric/heartbeat"):
		return "fabric.heartbeat"
	case strings.HasSuffix(p, "/fabric/complete"):
		return "fabric.complete"
	case strings.Contains(p, "/objects/") && r.Method == http.MethodGet:
		return "remote.get"
	case strings.Contains(p, "/objects/") && r.Method == http.MethodPut:
		return "remote.put"
	}
	return "http.other"
}

func (tt *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	parent := int(tt.parent.Load())
	if parent == 0 {
		return tt.base.RoundTrip(r)
	}
	id := tt.t.begin(route(r), parent)
	resp, err := tt.base.RoundTrip(r)
	if err != nil {
		tt.t.end(id, 0)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { tt.t.end(id, int64(resp.StatusCode)) }}
	return resp, nil
}

// spanBody ends its span once, when the body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	n    int
	dur  time.Duration // summed durations
	self time.Duration // summed self times
	attr int64         // summed attributes
}

// analysis is the per-name view of a finished trace.
type analysis struct {
	spans    []span
	children map[int][]int // span ID -> child span IDs
	byName   map[string]*layerStat
}

// analyze computes every span's self time — its duration minus the part
// of it that the union of its children covers — and sums per name.
// Spans left open are dropped.
func (t *tracer) analyze() *analysis {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	a := &analysis{spans: spans, children: map[int][]int{}, byName: map[string]*layerStat{}}
	for _, s := range spans {
		if s.End >= 0 && s.Parent != 0 {
			a.children[s.Parent] = append(a.children[s.Parent], s.ID)
		}
	}
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		var iv [][2]int64
		for _, c := range a.children[s.ID] {
			cs := spans[c-1]
			iv = append(iv, [2]int64{cs.Start, cs.End})
		}
		self := time.Duration(s.End-s.Start) - time.Duration(covered(iv, s.Start, s.End))
		st := a.byName[s.Name]
		if st == nil {
			st = &layerStat{}
			a.byName[s.Name] = st
		}
		st.n++
		st.dur += time.Duration(s.End - s.Start)
		st.self += self
		st.attr += s.Attr
	}
	return a
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, cur int64 = 0, lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// stat returns the aggregate of a name (zero when no such span ran).
func (a *analysis) stat(name string) layerStat {
	if st := a.byName[name]; st != nil {
		return *st
	}
	return layerStat{}
}

// selfOf sums the self times of several names.
func (a *analysis) selfOf(names ...string) time.Duration {
	var d time.Duration
	for _, n := range names {
		d += a.stat(n).self
	}
	return d
}

// share is the summed duration of the named child layers as a fraction
// of the summed duration of their parent spans.
func (a *analysis) share(parent string, names ...string) float64 {
	var d time.Duration
	for _, n := range names {
		d += a.stat(n).dur
	}
	return ratio(d.Seconds(), a.stat(parent).dur.Seconds())
}

// residual is the fraction of the parent spans' time that no child
// layer explains: their summed self time over their summed duration.
func (a *analysis) residual(parent string) float64 {
	st := a.stat(parent)
	return ratio(st.self.Seconds(), st.dur.Seconds())
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (a *analysis) String() string {
	names := make([]string, 0, len(a.byName))
	for n := range a.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		st := a.byName[n]
		fmt.Fprintf(&b, "  %-20s n=%-7d dur=%10.4fs self=%10.4fs\n", n, st.n, st.dur.Seconds(), st.self.Seconds())
	}
	return b.String()
}

package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"gridseg"
	"gridseg/internal/batch"
)

// job is one grid run: its identity, its lifecycle state, and the SSE
// event log (full history kept for replay — cells are coarse units, so
// even large grids log modest event counts).
type job struct {
	id    string
	spec  string
	seed  uint64
	cells int

	// recovered marks a run re-enqueued by restart recovery; run
	// counts the cells it finds in the store as recovered. Written
	// once before the job is enqueued, read only by the dispatcher.
	recovered bool
	// registered is closed once the run's journal register record is
	// written, and at creation for a recovered run, which the journal
	// already holds. The finish record waits for it: written first, it
	// would leave replay keeping the finished run, and the next boot
	// would run it again.
	registered chan struct{}

	// live fans the run's trajectory frames out to /live subscribers
	// (see live.go); closed when the run reaches a terminal state.
	live *liveHub

	mu     sync.Mutex
	state  string
	done   int
	errMsg string
	res    *gridseg.GridResult
	cache  gridseg.CacheStats
	events []sseEvent
	// A terminal run's log, compacted by trimEventsLocked in place of
	// events: the payloads back to back in logData, event i's ending at
	// logEnds[i]. Every event but the last is a cell event; the last is
	// the terminal one, of type logFinal.
	logData  []byte
	logEnds  []int32
	logFinal string
	subs     map[chan sseEvent]struct{}
}

// sseEvent is one Server-Sent Event: a type label and a JSON payload.
type sseEvent struct {
	Type string
	Data []byte
}

// terminal reports whether the event ends the stream.
func (e sseEvent) terminal() bool { return e.Type == "done" || e.Type == "error" }

func newJob(id, spec string, seed uint64, cells int) *job {
	return &job{
		id: id, spec: spec, seed: seed, cells: cells,
		state:      StateQueued,
		registered: make(chan struct{}),
		live:       newLiveHub(),
		subs:       map[chan sseEvent]struct{}{},
	}
}

// jobStatus is the JSON shape of a run's status.
type jobStatus struct {
	ID    string `json:"id"`
	Spec  string `json:"spec"`
	Seed  uint64 `json:"seed"`
	State string `json:"state"`
	Cells int    `json:"cells"`
	Done  int    `json:"done"`
	Cache struct {
		Hits   int `json:"hits"`
		Misses int `json:"misses"`
	} `json:"cache"`
	Error string `json:"error,omitempty"`
}

func (j *job) status() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := jobStatus{
		ID: j.id, Spec: j.spec, Seed: j.seed,
		State: j.state, Cells: j.cells, Done: j.done,
		Error: j.errMsg,
	}
	st.Cache.Hits = j.cache.Hits
	st.Cache.Misses = j.cache.Misses
	return st
}

func (j *job) result() *gridseg.GridResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.res
}

func (j *job) setState(state string) {
	j.mu.Lock()
	j.state = state
	j.mu.Unlock()
}

// cellEvent is the payload of one per-cell SSE progress event. The
// scenario fields report the cell's topology coordinates; they are
// omitted for default cells (torus, rho=0, global tau) to keep
// default-grid streams in their pre-scenario shape.
type cellEvent struct {
	Done     int     `json:"done"`
	Total    int     `json:"total"`
	Dynamic  string  `json:"dynamic"`
	N        int     `json:"n"`
	W        int     `json:"w"`
	Tau      float64 `json:"tau"`
	P        float64 `json:"p"`
	Boundary string  `json:"boundary,omitempty"`
	Rho      float64 `json:"rho,omitempty"`
	TauDist  string  `json:"taudist,omitempty"`
	Extra    float64 `json:"extra,omitempty"`
	Rep      int     `json:"rep"`
	Cached   bool    `json:"cached"`
	// Worker names the fabric worker that computed the cell in cluster
	// mode; omitted for in-process sweeps and coordinator-served cache
	// hits, so default streams keep their single-process shape.
	Worker string `json:"worker,omitempty"`
}

// progress records one completed cell and broadcasts it.
func (j *job) progress(p gridseg.CellProgress) {
	ev := cellEvent{
		Done: p.Done, Total: p.Total,
		Dynamic: p.Dynamic, N: p.N, W: p.W,
		Tau: p.Tau, P: p.P, Extra: p.Extra, Rep: p.Rep,
		Cached: p.Cached, Worker: p.Worker,
	}
	if !batch.DefaultScenario(p.Boundary, p.Rho, p.TauDist) {
		ev.Boundary, ev.Rho, ev.TauDist = p.Boundary, p.Rho, p.TauDist
	}
	data, _ := json.Marshal(ev)
	j.mu.Lock()
	j.done = p.Done
	if p.Cached {
		j.cache.Hits++
	} else {
		j.cache.Misses++
	}
	j.broadcastLocked(sseEvent{Type: "cell", Data: data})
	j.mu.Unlock()
}

// finish records the completed result and broadcasts the terminal
// done event.
func (j *job) finish(res *gridseg.GridResult) {
	cs := res.Cache()
	data, _ := json.Marshal(map[string]interface{}{
		"cells": res.Len(),
		"cache": map[string]int{"hits": cs.Hits, "misses": cs.Misses},
	})
	j.mu.Lock()
	j.state = StateDone
	j.res = res
	j.cache = cs
	j.done = res.Len()
	j.broadcastLocked(sseEvent{Type: "done", Data: data})
	j.trimEventsLocked()
	j.mu.Unlock()
	j.live.close()
	metricRunsDone.Inc()
}

// fail records the error and broadcasts the terminal error event.
func (j *job) fail(err error) {
	data, _ := json.Marshal(map[string]string{"error": err.Error()})
	j.mu.Lock()
	j.state = StateFailed
	j.errMsg = err.Error()
	j.broadcastLocked(sseEvent{Type: "error", Data: data})
	j.trimEventsLocked()
	j.mu.Unlock()
	j.live.close()
	metricRunsFailed.Inc()
}

// maxEventLog bounds the replayable event history of a run. Beyond it
// the oldest half is dropped: SSE is a progress channel, and totals
// live in the run status, so late subscribers to a huge grid lose only
// early per-cell lines, never correctness.
const maxEventLog = 8192

// broadcastLocked appends to the event log and fans out to all
// subscribers; j.mu must be held. Sends never block: a subscriber that
// cannot keep up misses intermediate progress events (its replay of
// the log already happened, and the stream ends with a terminal event
// delivered via channel close, so correctness never depends on every
// cell event arriving).
func (j *job) broadcastLocked(e sseEvent) {
	if len(j.events) >= maxEventLog {
		j.events = append(j.events[:0], j.events[maxEventLog/2:]...)
	}
	j.events = append(j.events, e)
	for ch := range j.subs {
		select {
		case ch <- e:
		default:
		}
	}
	if e.terminal() {
		for ch := range j.subs {
			close(ch)
		}
		metricSSESubscribers.Add(-int64(len(j.subs)))
		j.subs = map[chan sseEvent]struct{}{}
	}
}

// trimEventsLocked compacts a terminal run's event log for the time
// the registry retains the run: the payloads go back to back into one
// buffer and the events become their end offsets, 4 bytes each instead
// of a 40-byte sseEvent and an allocation per payload; j.mu must be
// held. A terminal run logs no more events: its log is cell events
// followed by the one terminal event.
func (j *job) trimEventsLocked() {
	size := 0
	for _, e := range j.events {
		size += len(e.Data)
	}
	j.logData = make([]byte, 0, size)
	j.logEnds = make([]int32, len(j.events))
	for i, e := range j.events {
		j.logData = append(j.logData, e.Data...)
		j.logEnds[i] = int32(len(j.logData))
	}
	j.logFinal = j.events[len(j.events)-1].Type
	j.events = nil
}

// historyLocked returns a copy of the event log; j.mu must be held.
func (j *job) historyLocked() []sseEvent {
	if j.logEnds == nil {
		return append([]sseEvent(nil), j.events...)
	}
	history := make([]sseEvent, len(j.logEnds))
	start := int32(0)
	for i, end := range j.logEnds {
		history[i] = sseEvent{Type: "cell", Data: j.logData[start:end:end]}
		start = end
	}
	history[len(history)-1].Type = j.logFinal
	return history
}

// subscribe returns the event history so far and, unless the run is
// already terminal, a live channel for subsequent events (closed when
// the run ends).
func (j *job) subscribe() ([]sseEvent, chan sseEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	history := j.historyLocked()
	if j.state == StateDone || j.state == StateFailed {
		return history, nil
	}
	ch := make(chan sseEvent, 256)
	j.subs[ch] = struct{}{}
	metricSSESubscribers.Add(1)
	return history, ch
}

// unsubscribe detaches a live channel (no-op after the run ended and
// closed it).
func (j *job) unsubscribe(ch chan sseEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.subs[ch]; ok {
		delete(j.subs, ch)
		close(ch)
		metricSSESubscribers.Add(-1)
	}
}

// terminalEvent synthesizes the stream-ending event from the job's
// current state, for subscribers whose live channel was closed before
// they saw one.
func (j *job) terminalEvent() (sseEvent, bool) {
	st := j.status()
	switch st.State {
	case StateDone:
		data, _ := json.Marshal(map[string]interface{}{
			"cells": st.Cells,
			"cache": map[string]int{"hits": st.Cache.Hits, "misses": st.Cache.Misses},
		})
		return sseEvent{Type: "done", Data: data}, true
	case StateFailed:
		data, _ := json.Marshal(map[string]string{"error": st.Error})
		return sseEvent{Type: "error", Data: data}, true
	}
	return sseEvent{}, false
}

// handleEvents streams a run's progress as Server-Sent Events: the
// recorded history first (so late subscribers see the whole run), then
// live events until the run ends or the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("response writer does not support streaming"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	history, live := j.subscribe()
	if live != nil {
		defer j.unsubscribe(live)
	}
	write := func(e sseEvent) bool {
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Type, e.Data); err != nil {
			return false
		}
		flusher.Flush()
		return !e.terminal()
	}
	for _, e := range history {
		if !write(e) {
			return
		}
	}
	if live == nil {
		// Terminal before subscription and no terminal event in the
		// history means nothing more can arrive; synthesize the end.
		if e, ok := j.terminalEvent(); ok {
			write(e)
		}
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case e, ok := <-live:
			if !ok {
				// Channel closed on the terminal broadcast; if the
				// buffer overflowed before it, recover the terminal
				// event from the job state.
				if e, ok := j.terminalEvent(); ok {
					write(e)
				}
				return
			}
			if !write(e) {
				return
			}
		}
	}
}

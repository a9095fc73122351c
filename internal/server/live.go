package server

import (
	_ "embed"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"gridseg"
	"gridseg/internal/batch"
)

// Live trajectory streaming: the engine-side snapshot tap of a running
// grid (gridseg.LiveTap) publishes binary grid frames and
// per-sample observables into a per-run liveHub, and GET
// /grids/{id}/live fans them out as Server-Sent Events.
//
// The backpressure contract is drop-oldest, per subscriber: every
// subscriber owns a small bounded queue; publishing to a full queue
// evicts that subscriber's oldest pending frame and never blocks, so a
// stalled consumer quietly loses intermediate frames while the engine
// and every other subscriber proceed at full speed. Frames are
// self-contained snapshots — losing one costs temporal resolution,
// never correctness — which is what makes dropping safe.

// liveQueueCap is each subscriber's queue bound. Small on purpose: a
// consumer more than a few frames behind is better served by fresher
// frames than by a deep backlog of stale ones.
const liveQueueCap = 8

// liveFrame is one published sample: the pre-rendered SSE payload
// (encoded once, shared by all subscribers).
type liveFrame struct {
	data []byte
}

// liveHub fans one run's live samples out to its /live subscribers.
type liveHub struct {
	// watchers counts subscribers; the engine's snapshot tap reads it
	// (through watched) on its hot path to skip measuring unwatched
	// runs, so it is atomic rather than mutex-guarded.
	watchers atomic.Int64

	mu     sync.Mutex
	subs   map[chan liveFrame]struct{}
	last   []byte // most recent payload, replayed to new subscribers
	closed bool
}

func newLiveHub() *liveHub {
	return &liveHub{subs: map[chan liveFrame]struct{}{}}
}

// watched reports whether anyone is consuming the stream; it is the
// Active gate of the run's live tap.
func (h *liveHub) watched() bool { return h.watchers.Load() > 0 }

// publish fans a rendered sample out to every subscriber without ever
// blocking: a full queue drops its oldest frame to make room. The
// payload is also retained as the hub's last frame so late subscribers
// get an immediate picture.
func (h *liveHub) publish(data []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.last = data
	metricLiveFrames.Inc()
	e := liveFrame{data: data}
	for ch := range h.subs {
		select {
		case ch <- e:
			continue
		default:
		}
		// Queue full: evict the oldest pending frame, then retry once.
		// Only this handler goroutine publishes (under h.mu), so the
		// second send can only fail if the subscriber drained everything
		// in between — in which case it succeeds on the channel's buffer
		// anyway; the default arm is pure paranoia.
		select {
		case <-ch:
			metricLiveFramesDropped.Inc()
		default:
		}
		select {
		case ch <- e:
		default:
		}
	}
}

// subscribe registers a consumer, returning the most recent frame (nil
// if none yet) and a live channel — nil when the run already ended.
func (h *liveHub) subscribe() ([]byte, chan liveFrame) {
	h.mu.Lock()
	defer h.mu.Unlock()
	last := h.last
	if h.closed {
		return last, nil
	}
	ch := make(chan liveFrame, liveQueueCap)
	h.subs[ch] = struct{}{}
	h.watchers.Add(1)
	metricLiveSubscribers.Add(1)
	return last, ch
}

// unsubscribe detaches a consumer (no-op after close already did).
func (h *liveHub) unsubscribe(ch chan liveFrame) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[ch]; ok {
		delete(h.subs, ch)
		close(ch)
		h.watchers.Add(-1)
		metricLiveSubscribers.Add(-1)
	}
}

// close ends the stream: every subscriber's channel is closed (their
// handlers emit the terminal event) and later publishes are dropped.
func (h *liveHub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		close(ch)
		h.watchers.Add(-1)
		metricLiveSubscribers.Add(-1)
	}
	h.subs = map[chan liveFrame]struct{}{}
}

// liveEvent is the JSON payload of one live SSE frame. The frame field
// is the binary grid codec (internal/grid.MarshalBinary), base64
// encoded; scenario fields are omitted on default cells, like the
// /events stream.
type liveEvent struct {
	Dynamic  string  `json:"dynamic"`
	N        int     `json:"n"`
	W        int     `json:"w"`
	Tau      float64 `json:"tau"`
	P        float64 `json:"p"`
	Rep      int     `json:"rep"`
	Boundary string  `json:"boundary,omitempty"`
	Rho      float64 `json:"rho,omitempty"`
	TauDist  string  `json:"taudist,omitempty"`

	Flips        int64   `json:"flips"`
	Phi          int64   `json:"phi"`
	Unhappy      int     `json:"unhappy"`
	HappyFrac    float64 `json:"happy_frac"`
	IfaceDensity float64 `json:"iface_density"`
	IfaceLength  float64 `json:"iface_length"`
	Curvature    float64 `json:"curvature"`
	LargestFrac  float64 `json:"largest_frac"`
	Frame        string  `json:"frame"`
	Final        bool    `json:"final"`
}

// publishLive renders one engine sample and hands it to the run's hub.
// It is the Sample callback of the run's live tap, called from the
// in-process workers.
func (j *job) publishLive(s gridseg.LiveSample) {
	ev := liveEvent{
		Dynamic: s.Cell.Dynamic, N: s.Cell.N, W: s.Cell.W,
		Tau: s.Cell.Tau, P: s.Cell.P, Rep: s.Cell.Rep,
		Flips: s.Flips, Phi: s.Phi,
		Unhappy: s.UnhappyCount, HappyFrac: s.HappyFraction,
		IfaceDensity: s.InterfaceDensity, IfaceLength: s.InterfaceLength,
		Curvature: s.Curvature, LargestFrac: s.LargestFraction,
		Frame: base64.StdEncoding.EncodeToString(s.Frame),
		Final: s.Final,
	}
	if !batch.DefaultScenario(s.Cell.Boundary, s.Cell.Rho, s.Cell.TauDist) {
		ev.Boundary, ev.Rho, ev.TauDist = s.Cell.Boundary, s.Cell.Rho, s.Cell.TauDist
	}
	data, _ := json.Marshal(ev)
	j.live.publish(data)
}

// handleLive streams a run's live trajectory frames as SSE: the most
// recent frame immediately (if the run has produced one), then live
// frames until the run ends or the client disconnects. The stream
// closes with an `end` event carrying the run's terminal state. Runs
// executed by a cluster coordinator compute nothing locally, so their
// streams carry no frames — only the terminal event.
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
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

	last, live := j.live.subscribe()
	if live != nil {
		defer j.live.unsubscribe(live)
	}
	write := func(event string, data []byte) bool {
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	end := func() {
		data, _ := json.Marshal(map[string]string{"state": j.status().State})
		write("end", data)
	}
	if last != nil && !write("frame", last) {
		return
	}
	if live == nil {
		end()
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case e, ok := <-live:
			if !ok {
				end()
				return
			}
			if !write("frame", e.data) {
				return
			}
		}
	}
}

// uiHTML is the embedded live-grid viewer served at GET /ui: a single
// dependency-free page that subscribes to a run's /live stream, decodes
// the binary frames in the browser, and draws the lattice heatmap and
// the observable curves.
//
//go:embed ui/index.html
var uiHTML []byte

// handleUI serves the embedded viewer.
func handleUI(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(uiHTML)
}

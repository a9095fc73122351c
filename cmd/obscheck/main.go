// Command obscheck is the observability smoke gate: it starts a segd
// server in-process over a memory store, submits a small grid, consumes
// the run's /grids/{id}/live trajectory stream (requiring a minimum
// number of frames that decode to real lattices), then scrapes /metrics
// and validates that the exposition parses and carries the expected
// metric families. Last it restarts the server on the same store and
// resubmits the grid, which must be served from the store alone: every
// cell a hit, and gridseg_cells_cached_total up by the grid's cell
// count. Any failure exits non-zero, so CI can gate on it.
//
//	obscheck
//	obscheck -spec "n=48 w=2 tau=0.42 reps=4" -frames 20
package main

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"gridseg"
	"gridseg/internal/grid"
	"gridseg/internal/metrics"
	"gridseg/internal/server"
)

// config holds the parsed command-line options.
type config struct {
	spec      string
	seed      uint64
	frames    int
	liveEvery int64
}

// newFlagSet declares the command's flags; main parses it, and the
// usage test pins it against the README documentation.
func newFlagSet() (*flag.FlagSet, *config) {
	c := &config{}
	fs := flag.NewFlagSet("obscheck", flag.ExitOnError)
	fs.StringVar(&c.spec, "spec", "n=96 w=1 tau=0.40,0.45 reps=4", "grid spec whose live trajectory stream is checked")
	fs.Uint64Var(&c.seed, "seed", 11, "sweep seed for the submitted grid")
	fs.IntVar(&c.frames, "frames", 10, "minimum live trajectory frames the /live stream must deliver")
	fs.Int64Var(&c.liveEvery, "live-every", 64, "flips between live frames (small, so modest grids still emit plenty)")
	return fs, c
}

// requiredMetrics are the families the /metrics exposition must carry
// after one grid has been computed and streamed. Histogram families
// appear under their _count sample name.
var requiredMetrics = []string{
	"segd_queue_depth",
	"segd_sse_subscribers",
	"segd_live_subscribers",
	"segd_live_frames_total",
	"segd_runs_total",
	"gridseg_flips_total",
	"gridseg_cells_computed_total",
	"gridseg_cells_cached_total",
	"gridseg_store_gets_total",
	"gridseg_store_puts_total",
	"gridseg_store_get_seconds_count",
	"gridseg_store_put_seconds_count",
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("obscheck: ")
	fs, cfg := newFlagSet()
	_ = fs.Parse(os.Args[1:])
	if err := check(cfg); err != nil {
		log.Fatal(err)
	}
	log.Print("ok")
}

// start serves a single-mode segd over st on a loopback port and
// returns its base URL and a function that stops it.
func start(st gridseg.CellStore, liveEvery int64) (string, func(), error) {
	srv, err := server.New(server.Options{Store: st, LiveEvery: liveEvery})
	if err != nil {
		return "", nil, err
	}
	hs := httptest.NewServer(srv.Handler())
	return hs.URL, func() { hs.Close(); srv.Close() }, nil
}

func check(cfg *config) error {
	st := gridseg.NewMemoryStore()
	base, stop, err := start(st, cfg.liveEvery)
	if err != nil {
		return err
	}
	defer func() { stop() }()

	// Live sampling only runs while someone is subscribed, so the /live
	// subscription must attach before the target run finishes. Grid runs
	// dispatch FIFO, so a blocker run submitted first holds the
	// dispatcher while the subscription to the still-queued target is
	// established. Machine speed varies, so when the subscription loses
	// the race anyway (small frame count, run already done), retry with
	// fresh seeds and a doubled blocker instead of failing outright.
	frames := 0
	var seed uint64
	for attempt := 0; ; attempt++ {
		blocker := fmt.Sprintf("n=384 w=1 tau=0.45 reps=%d", 4<<attempt)
		// Fresh seeds each attempt: cells are seed-keyed, so new seeds
		// force real recomputation rather than instant cache replays.
		seed = cfg.seed + uint64(2*attempt)
		if _, err := submit(base, blocker, seed+1); err != nil {
			return fmt.Errorf("blocker: %w", err)
		}
		id, err := submit(base, cfg.spec, seed)
		if err != nil {
			return err
		}
		log.Printf("submitted %q as run %s (blocker reps=%d)", cfg.spec, id, 4<<attempt)
		frames, err = consumeLive(base + "/grids/" + id + "/live")
		if err != nil {
			return err
		}
		if frames >= cfg.frames {
			break
		}
		if attempt == 3 {
			return fmt.Errorf("live stream delivered %d frames, want >= %d (shrink -live-every or grow -spec)", frames, cfg.frames)
		}
		log.Printf("only %d frames (subscription lost the race to the run); retrying with a heavier blocker", frames)
	}
	log.Printf("live stream delivered %d decodable frames (want >= %d)", frames, cfg.frames)

	before, err := checkMetrics(base + "/metrics")
	if err != nil {
		return err
	}

	// A restart on the same store: the registry is gone, so the
	// resubmitted target runs afresh and must find every cell stored.
	stop()
	if base, stop, err = start(st, cfg.liveEvery); err != nil {
		return err
	}
	id, err := submit(base, cfg.spec, seed)
	if err != nil {
		return err
	}
	if _, err := consumeLive(base + "/grids/" + id + "/live"); err != nil {
		return fmt.Errorf("warm resubmit: %w", err)
	}
	after, err := checkMetrics(base + "/metrics")
	if err != nil {
		return err
	}
	cells, _ := gridseg.ValidateGridSpec(cfg.spec)
	const name = "gridseg_cells_cached_total"
	if d := after[name][0].Value - before[name][0].Value; d != float64(cells) {
		return fmt.Errorf("gridseg_cells_cached_total rose by %v on a warm resubmit of %d cells", d, cells)
	}
	log.Printf("warm resubmit served all %d cells from the store", cells)
	return nil
}

// submit posts the grid and returns its run id (202 newly queued or
// 200 attached to an identical existing run).
func submit(base, spec string, seed uint64) (string, error) {
	body, _ := json.Marshal(map[string]interface{}{"spec": spec, "seed": seed})
	resp, err := http.Post(base+"/grids", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var status struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("submit: status %d: %s", resp.StatusCode, status.Error)
	}
	return status.ID, nil
}

// consumeLive reads the /live SSE stream to its terminal event,
// decoding every frame's lattice, and errors unless the run ended in
// the done state. The caller judges the frame count.
func consumeLive(url string) (int, error) {
	client := &http.Client{Timeout: 2 * time.Minute}
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("live stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		return 0, fmt.Errorf("live stream: content type %q", ct)
	}
	frames := 0
	var event string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "frame":
				var ev struct {
					N     int    `json:"n"`
					Frame string `json:"frame"`
				}
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					return frames, fmt.Errorf("frame payload does not parse: %w", err)
				}
				raw, err := base64.StdEncoding.DecodeString(ev.Frame)
				if err != nil {
					return frames, fmt.Errorf("frame is not base64: %w", err)
				}
				lat, err := grid.UnmarshalBinary(raw)
				if err != nil {
					return frames, fmt.Errorf("frame does not decode: %w", err)
				}
				if lat.N() != ev.N {
					return frames, fmt.Errorf("frame side %d != event n %d", lat.N(), ev.N)
				}
				frames++
			case "end":
				var end struct {
					State string `json:"state"`
				}
				if err := json.Unmarshal([]byte(data), &end); err != nil {
					return frames, fmt.Errorf("end payload does not parse: %w", err)
				}
				if end.State != server.StateDone {
					return frames, fmt.Errorf("run ended in state %q", end.State)
				}
				return frames, nil
			}
		}
	}
	return frames, fmt.Errorf("live stream ended without an end event (err=%v)", sc.Err())
}

// checkMetrics scrapes the exposition, requires it to parse and carry
// every expected family, and returns the parsed families.
func checkMetrics(url string) (map[string][]metrics.Sample, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", resp.StatusCode)
	}
	fams, err := metrics.ParseText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("metrics exposition does not parse: %w", err)
	}
	var missing []string
	for _, name := range requiredMetrics {
		if len(fams[name]) == 0 {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics exposition is missing %s", strings.Join(missing, ", "))
	}
	log.Printf("metrics exposition carries all %d required families", len(requiredMetrics))
	return fams, nil
}

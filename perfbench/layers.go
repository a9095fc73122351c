package main

import (
	"sort"
	"time"
)

// perLayer lists every per-layer metric with its unit, in report order.
// A workload reports all of them; a layer it never calls reads 0.
var perLayer = []struct{ name, unit string }{
	{"cell.new_s", "s/grid"},
	{"cell.dynamics_s", "s/grid"},
	{"cell.measure_s", "s/grid"},
	{"cell.flips", "count"},
	{"dynamics.ns_per_flip", "ns"},
	{"batch.idle_s", "s/grid"},
	{"encode_s", "s/grid"},
	{"store.put_s", "s/grid"},
	{"store.puts", "count"},
	{"store.get_s", "s/grid"},
	{"store.gets", "count"},
	{"store.hit_ratio", "ratio"},
	{"http.submit_s", "s/grid"},
	{"server.queue_wait_s", "s/grid"},
	{"http.events_s", "s/grid"},
	{"http.artifact_csv_s", "s/grid"},
	{"http.artifact_json_s", "s/grid"},
	{"fabric.idle_wait_s", "s/grid"},
	{"fabric.lease_s", "s/grid"},
	{"fabric.leases", "count"},
	{"fabric.lease_empty_ratio", "ratio"},
	{"fabric.heartbeat_s", "s/grid"},
	{"fabric.complete_s", "s/grid"},
	{"remote.get_s", "s/grid"},
	{"remote.put_s", "s/grid"},
	{"worker.compute_s", "s/grid"},
	{"fabric.round_trips_per_cell", "count/cell"},
	{"share.cycle.jobs", "ratio"},
	{"share.cycle.pool", "ratio"},
	{"share.cycle.assemble", "ratio"},
	{"share.cycle.encode", "ratio"},
	{"share.cycle.submit", "ratio"},
	{"share.cycle.events", "ratio"},
	{"share.cycle.artifacts", "ratio"},
	{"share.events.queue_wait", "ratio"},
	{"share.pool.idle", "ratio"},
	{"share.cell.store", "ratio"},
	{"share.cell.new", "ratio"},
	{"share.cell.dynamics", "ratio"},
	{"share.cell.measure", "ratio"},
	{"share.worker.lease", "ratio"},
	{"share.worker.poll_idle", "ratio"},
	{"share.worker.remote", "ratio"},
	{"share.worker.compute", "ratio"},
	{"share.worker.complete", "ratio"},
	{"share.worker.heartbeat", "ratio"},
	{"grids", "count"},
	{"trace_overhead", "ratio"},
	{"unexplained_frac", "ratio"},
}

// addPollIdle adds a fabric.poll_idle span after every empty lease of a
// worker, up to the worker's next call: the time its loop sleeps before
// polling again.
func (t *tracer) addPollIdle() {
	t.mu.Lock()
	defer t.mu.Unlock()
	end := map[int]int64{}
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Name == "worker" {
			end[s.ID] = s.End
		}
	}
	for _, s := range t.spans {
		if _, ok := end[s.Parent]; ok && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for w, ks := range kids {
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		for i, s := range ks {
			if s.Name != "fabric.lease" || s.Attr != 204 {
				continue
			}
			next := end[w]
			if i+1 < len(ks) {
				next = ks[i+1].Start
			}
			if next > s.End {
				t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: w, Name: "fabric.poll_idle", Start: s.End, End: next})
			}
		}
	}
}

// layerMetrics turns the traced phase into the per-layer report: self
// times per grid, exact counts, each layer's share of its parent span,
// and the largest unexplained residual of any parent kind.
func layerMetrics(a *analysis, grids int, overhead float64) map[string]metric {
	v := map[string]float64{}
	perGrid := func(names ...string) float64 { return a.selfOf(names...).Seconds() / float64(grids) }
	for _, n := range []string{"cell.new", "cell.dynamics", "cell.measure", "store.put", "store.get",
		"http.submit", "server.queue_wait", "http.events", "http.artifact_csv", "http.artifact_json",
		"fabric.lease", "fabric.heartbeat", "fabric.complete", "remote.get", "remote.put", "worker.compute"} {
		v[n+"_s"] = perGrid(n)
	}
	v["encode_s"] = perGrid("encode")
	flips := a.stat("cell.dynamics").attr
	v["cell.flips"] = float64(flips)
	v["dynamics.ns_per_flip"] = ratio(float64(a.stat("cell.dynamics").self.Nanoseconds()), float64(flips))
	v["store.puts"] = float64(a.stat("store.put").n)
	v["store.gets"] = float64(a.stat("store.get").n)
	v["store.hit_ratio"] = ratio(float64(a.stat("store.get").attr), float64(a.stat("store.get").n))
	v["fabric.leases"] = float64(a.stat("fabric.lease").n)
	trips := 0
	for _, n := range []string{"fabric.lease", "fabric.heartbeat", "fabric.complete", "remote.get", "remote.put"} {
		trips += a.stat(n).n
	}
	v["fabric.round_trips_per_cell"] = ratio(float64(trips), float64(a.stat("fabric.complete").n))

	// The pool's idle time is its worker capacity minus the cell spans:
	// the straggler tail of each grid.
	var idle, capacity time.Duration
	var empty, waits int
	var wait time.Duration
	for _, s := range a.spans {
		switch {
		case s.Name == "batch.pool" && s.End >= 0:
			c := time.Duration(s.Attr) * time.Duration(s.End-s.Start)
			capacity += c
			idle += c
			for _, k := range a.children[s.ID] {
				idle -= time.Duration(a.spans[k-1].End - a.spans[k-1].Start)
			}
		case s.Name == "fabric.lease" && s.Attr == 204:
			empty++
		case s.Name == "cycle" && s.End >= 0:
			if d, ok := a.idleWait(s); ok {
				wait += d
				waits++
			}
		}
	}
	v["batch.idle_s"] = idle.Seconds() / float64(grids)
	v["share.pool.idle"] = ratio(idle.Seconds(), capacity.Seconds())
	v["fabric.lease_empty_ratio"] = ratio(float64(empty), float64(a.stat("fabric.lease").n))
	v["fabric.idle_wait_s"] = ratio(wait.Seconds(), float64(waits))

	shares := map[string][]string{
		"share.cycle.jobs":        {"cycle", "batch.jobs"},
		"share.cycle.pool":        {"cycle", "batch.pool"},
		"share.cycle.assemble":    {"cycle", "grid.assemble"},
		"share.cycle.encode":      {"cycle", "encode"},
		"share.cycle.submit":      {"cycle", "http.submit"},
		"share.cycle.events":      {"cycle", "http.events"},
		"share.cycle.artifacts":   {"cycle", "http.artifact_csv", "http.artifact_json"},
		"share.events.queue_wait": {"http.events", "server.queue_wait"},
		"share.cell.store":        {"cell", "store.get", "store.put"},
		"share.cell.new":          {"cell", "cell.new"},
		"share.cell.dynamics":     {"cell", "cell.dynamics"},
		"share.cell.measure":      {"cell", "cell.measure"},
		"share.worker.lease":      {"worker", "fabric.lease"},
		"share.worker.poll_idle":  {"worker", "fabric.poll_idle"},
		"share.worker.remote":     {"worker", "remote.get", "remote.put"},
		"share.worker.compute":    {"worker", "worker.compute"},
		"share.worker.complete":   {"worker", "fabric.complete"},
		"share.worker.heartbeat":  {"worker", "fabric.heartbeat"},
	}
	for name, p := range shares {
		v[name] = a.share(p[0], p[1:]...)
	}
	v["grids"] = float64(grids)
	v["trace_overhead"] = overhead
	v["unexplained_frac"] = max(a.residual("cycle"), a.residual("cell"), a.residual("worker"))

	out := map[string]metric{}
	for _, m := range perLayer {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}

// idleWait is the time from a cycle's submit to the first lease the
// fabric granted after it; false when no lease was granted during the
// cycle (its cells were all stored).
func (a *analysis) idleWait(cycle span) (time.Duration, bool) {
	var submit int64 = -1
	for _, k := range a.children[cycle.ID] {
		if s := a.spans[k-1]; s.Name == "http.submit" {
			submit = s.Start
		}
	}
	if submit < 0 {
		return 0, false
	}
	first := int64(-1)
	for _, s := range a.spans {
		if s.Name == "fabric.lease" && s.Attr == 200 && s.Start >= submit && s.End <= cycle.End && (first < 0 || s.End < first) {
			first = s.End
		}
	}
	if first < 0 {
		return 0, false
	}
	return time.Duration(first - submit), true
}

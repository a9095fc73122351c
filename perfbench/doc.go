// Command perfbench is the end-to-end benchmark of the reproduction: it
// measures what a user pays for a parameter sweep, run in-process, through
// segd, or leased across the fabric, and splits that cost by layer.
//
//	bash perfbench/run.sh --workload sweep_heavy --seed 1 --seconds 40 --trace 0
//
// run.sh builds this package (a module of its own that uses the repo
// through a replace directive) into .bench_build/ and runs it from the
// root of the checkout. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end metrics; with --trace 1 they are the
// per-layer metrics. BENCHMARK.json lists both with their units and
// bounds. The exit status is non-zero when any grid failed or mismatched,
// and when the sources do not build.
//
// # Inputs and checks
//
// Every input is generated from --seed; the program only ever sees the
// generated (spec, seed) pairs. Each run sets the workload up three times
// and reports the median round as setup_s: a round boots the system on a
// fresh directory (store open, server and fabric workers started) and
// computes the reference artifacts of a third of the case pool, an
// in-process gridseg.RunGrid of each (spec, seed) over a memory store.
// The last round's system then runs the workload for five seconds of
// warm-up, off the clock: the first seconds of a fresh system run up to
// a third slower than the rest. The measured phase follows for
// --seconds; the references of any case beyond the pool are computed
// after it, still off the clock. Every grid's artifact.csv and artifact.json must be byte-identical to its
// reference, warm-up grids included; a failed or mismatched grid counts
// in failed (failed_frac is failed/attempted, printed on the first output
// line) and its latencies count as missing every limit. peak_rss_mib is
// read from the process's VmHWM, which is reset when warm-up ends, and
// each workload runs in its own process, so neither set-up nor another
// workload can mask a workload's peak.
//
// # Workloads
//
// sweep_heavy runs gridseg.RunGrid in-process on a store.Dir with 2
// workers, as `sweep -cache DIR -out DIR` does, and writes grid.csv and
// grid.json. A case is a fresh-seed grid of mid-to-large cells (n 256 to
// 1024) from three templates that together cover Glauber at w=1 and w=2,
// Kawasaki and Move with vacancies, open boundaries, a taudist mix, and a
// grid whose lone n=1024 cell leaves one worker idle. Each cold grid is
// followed by a warm subset of it, served from the store. The phase cycles
// through the 18 set-up cases, each pass on a fresh store directory, so
// every cold grid computes all of its cells. Chosen because lattice init,
// dynamics and measurement do almost all the work there and the store,
// server and fabric almost none: engine, init and measure changes show
// here.
//
// serve_small runs segd in-process (server.New over a store.Dir, 2 cell
// workers) on loopback, driven by 2 closed-loop clients. A cycle submits a
// grid, follows /grids/{id}/events to done, then GETs artifact.csv and
// artifact.json. Cold grids are fresh-seed small-cell grids (n 16 to 32,
// 30 cells); every other cycle submits a warm grid, an overlapping 20-cell
// subset of an earlier cold grid with another grid ID, so it is served by
// store reads alone. Chosen because dynamics is negligible there: HTTP,
// SSE, batch overhead, encoding and the store dominate, with store writes
// on cold grids beside reads on warm ones, so a store or server change
// that helps one path and hurts the other shows.
//
// serve_small runs on demand and BENCHMARK.json does not list it: on the
// reference machine its throughput and latency spread by 21% to 64%
// (quartile distance over median, ten seeds) between 20 s runs, beyond
// the largest bound a gated metric may have. Three 10 s runs with the
// store moved to tmpfs stayed within 3% of each other, so the noise comes
// from the machine's ext4 metadata path, not from the server. Every layer
// serve_small exercises is also measured on fabric_small, whose
// coordinator serves the same HTTP API, SSE stream and store.Dir.
//
// fabric_small runs a cluster-mode coordinator (server.Options{Cluster:
// true} with its journal beside the store.Dir, as segd defaults) and 2
// in-process fabric.Workers with segd's default worker settings, which
// reach the store through store.Remote over loopback. One closed-loop
// client submits fresh-seed 300-cell small-cell grids, alternating with
// warm 200-cell subsets, so the workers' idle lease poll is a minority of
// each cold grid. Before each cold grid the client waits a time drawn
// from the case's seed, uniform over the workers' 200 ms idle poll and
// excluded from every metric. A closed loop without it locks onto the
// poll: every cycle lasts the same, each cold grid arrives at the same
// point of the idle workers' sleep, and whole runs shift by up to a poll
// when a cycle's length crosses a multiple of it (on the reference
// machine the median cold grid took 0.43 s in the locked loop, against
// 0.28 s with the draw, over the same five seeds). Chosen because
// protocol cost dominates there: lease and complete round trips, the
// journal, remote object GET and PUT. Lease batching, long-polling and
// journal or fsync changes show here.
//
// Load is sized for 2 cores: at most 2 sweep workers, at most 2
// closed-loop clients, 2 fabric workers.
//
// # End-to-end metrics (--trace 0)
//
//	setup_s       median set-up round (see above)
//	cells_per_s   cells of completed grids, cold and warm, per second of
//	              the measured phase (less fabric_small's pauses)
//	grid_p50_s    cold grid latency: submit to both artifacts fetched
//	grid_p75_s    (sweep_heavy: one RunGrid call), over every cold grid
//	peak_rss_mib  peak resident memory (VmHWM) of the measured phase
//
// Throughput and latency are computed over the whole measured phase,
// which uses every grid: per-block medians, tried first, spread more
// between runs. peak_rss_mib is the median of ten equal stretches of
// time, resetting VmHWM through /proc/self/clear_refs at each boundary,
// so one late garbage collection does not set it.
//
// BENCHMARK.json gates a metric only when every workload can report it.
// The latency tail is gated at p75, the highest percentile with well over
// ten cold grids beyond it on every workload: sweep_heavy completes 95 to
// 110 cold grids in a 40 s run, about ten beyond p90.
// grid_p90_s and the serve-path metrics are printed on the third
// output line, not gated: warm_grid_p50_s (warm grid latency) and
// artifact_p50_s, artifact_p90_s (one artifact fetch; for sweep_heavy one
// artifact encoded and written to its file). sweep_heavy's warm grids
// and artifact writes take a fraction of a millisecond and spread by 12%
// to 40% between runs on the reference machine; the serve and fabric
// artifact paths are covered per layer by http.artifact_csv_s and
// http.artifact_json_s.
//
// The reference machine's own speed drifts: a fixed single-threaded loop
// takes anywhere from 0.27 s to 0.69 s, in CPU time as much as in wall
// time, and the drift comes in spells of minutes. Ten 40 s runs of each
// listed workload, one seed each, spread (quartile distance over median)
// by 4% to 10% in a quiet spell; in a busy one the same code spread by
// 15% to 37%. A calibration kernel timed through each run, to rescale
// times to a reference speed, narrowed sweep_heavy's spread in quiet
// spells only and fabric_small's not at all, so it was left out.
//
// # Per-layer metrics (--trace 1)
//
// A traced run measures the same operations twice: untraced, five
// seconds of warm-up then half of --seconds, and then traced, on a fresh
// system with the same inputs, from its boot so that no call is in flight
// when the trace starts. trace_overhead is the traced time over the
// untraced one, and the traced artifacts must equal the untraced ones
// byte for byte.
// Spans are recorded by this package around calls into each layer's
// public functions, never inside the program: a gridseg.CellStore timing
// wrapper (timedStore), an http.RoundTripper on each fabric worker's
// lease client and store.Remote, keyed by route (tracedTransport), and,
// for sweep_heavy, a mirror of RunGrid built from GridJobs, New, Run,
// the measurements and AssembleGrid. Spans are kept in memory, each with
// its parent, and written at the end to .bench_build/spans-*.jsonl. A
// span's self time is its duration minus the part of it its children
// cover.
//
// Times are in seconds per grid of the traced phase (worker-seconds for
// spans on pool or fabric workers); counts are totals over it. A
// workload reports every metric; a layer it never calls reads 0. Each
// layer metric, and the end-to-end metric it should move:
//
//	sweep_heavy, all moving cells_per_s and grid_p50_s:
//	  cell.new_s            self time of gridseg.New: lattice init and engine build
//	  cell.dynamics_s       self time of Model.Run
//	  cell.measure_s        SegregationStats plus measure.MeanMonoRegionSize
//	  cell.flips            exact count of flips
//	  dynamics.ns_per_flip  cell.dynamics self time per flip
//	  batch.idle_s          workers x pool wall minus the cell spans: the
//	                        straggler tail (moves grid_p75_s too)
//	  encode_s              WriteCSV plus WriteJSON (moves artifact_p50_s)
//	  store.put_s           store.Dir Put
//	serve_small:
//	  http.submit_s                              grid_p50_s
//	  server.queue_wait_s (submit ack to first
//	    SSE cell event)                          grid_p75_s
//	  http.events_s (the rest of the stream)     grid_p50_s
//	  http.artifact_csv_s, http.artifact_json_s  artifact_p50_s
//	  store.get_s, store.gets, store.hit_ratio   warm_grid_p50_s
//	  store.put_s, store.puts                    grid_p50_s
//	fabric_small, all moving grid_p50_s and cells_per_s:
//	  fabric.idle_wait_s           submit to the first lease granted after it
//	  fabric.lease_s, fabric.leases
//	  fabric.lease_empty_ratio     empty (204) leases over all leases: wasted polls
//	  fabric.heartbeat_s, fabric.complete_s
//	  remote.get_s, remote.put_s   store.Remote round trips
//	  worker.compute_s             the wrapped gridseg.ComputeJob runner
//	  fabric.round_trips_per_cell  worker round trips per completed cell
//
// share.<parent>.<layer> is a layer's summed span time over its parent
// spans' summed time, for the parents cycle (one grid, submit to
// artifacts), cell, the sweep worker pool (share.pool.idle) and worker
// (one fabric worker's whole traced phase; its fabric.poll_idle is the
// sleep after each empty lease). unexplained_frac is the largest
// residual over those parents: their summed self time over their summed
// duration. A traced run fails when it exceeds 0.10.
//
// # Seeds
//
// Seeds 1 to 200 were used while the benchmark was built and tuned. Seed
// 9001 is held out: no run used it, and it is reserved for checking later
// performance claims on a seed the change was not tuned on.
//
// # Layer shares of the first traced runs
//
// Seed 2 on a 2-core x86-64 virtual machine, --seconds 40 for the listed
// workloads (with warm-up and fabric_small's submit draw) and --seconds
// 20 for serve_small (before either was added):
//
//	sweep_heavy   a cell is 22.3% cell.new, 36.5% cell.dynamics, 40.3%
//	              cell.measure and 1.0% store get and put; the pool's
//	              workers sit idle for 30.8% of their capacity (batch.idle_s
//	              0.115 s per grid, the lone n=1024 cell); encode is 0.2%
//	              of a grid; 699 ns per flip; unexplained 0.000%;
//	              trace_overhead 1.03.
//	serve_small   a cycle is 3.3% submit, 90.3% SSE events (53.3% of the
//	              stream is queue wait behind the other client's grid) and
//	              6.2% artifact fetches; store puts cost 2.7 ms and gets
//	              0.49 ms per grid of about 12 ms, with hit ratio 0.40;
//	              unexplained 0.18%; trace_overhead 0.96.
//	fabric_small  a worker's time is 55.8% idle poll (the client's
//	              pauses included), 13.1% store.Remote GET and PUT, 13.8%
//	              compute, 7.8% complete and 5.9% lease round trips; a
//	              cold grid waits 0.11 s for its first lease (0.18 s in
//	              the locked loop); 4.0 round trips per cell; unexplained
//	              3.5%; trace_overhead 1.00.
//
// Measurement, not dynamics, is the largest share of a sweep cell, and
// the fabric's idle poll and remote store outweigh its computation.
package main

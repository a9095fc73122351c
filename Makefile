# Developer entry points. CI runs verify, docs, staticcheck, and
# bench-check.

.PHONY: all build test race race-stress cluster-test obscheck fuzz bench bench-check bench-check-ci memcheck diff docs profile staticcheck verify

all: verify

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# Repeated race-detector passes over the concurrent subsystems: the
# domain-decomposed parallel engine's phase protocol and the server's
# job dispatcher with its SSE fan-out. Five repetitions vary goroutine
# interleavings enough to surface ordering-dependent races that a
# single -race pass misses.
race-stress:
	go test -race -count=5 ./internal/dynamics/pareng/ ./internal/server/

# Distributed-fabric gate: the lease-protocol unit tests (fake clock),
# the worker loop, the journal replay/compaction edge cases, and the
# chaos e2es — the worker-kill sweep (coordinator + three workers with
# seeded fault injection, two killed mid-run) and the coordinator-kill
# restart (journaled coordinator killed mid-sweep and rebooted against
# the same journal and store, with recovery-metrics assertions) — all
# under the race detector, then a segload smoke against an in-process
# server as a closed-loop client sanity check.
cluster-test:
	go test -race -run 'TestCluster|TestLease|TestLate|TestHeartbeat|TestComplete|TestWorker|TestNaNValues|TestChaos|TestJournal' ./internal/server/ ./internal/fabric/
	go run ./cmd/segload -inproc -spec "n=16 w=1 tau=0.40,0.45 reps=2" -clients 8 -sse 2 -duration 2s -metrics-url auto

# Observability gate: boot a segd in-process, submit a grid behind a
# blocker run, require a live trajectory stream of decodable frames on
# /grids/{id}/live, then scrape /metrics and require the exposition to
# parse and carry every expected metric family.
obscheck:
	go run ./cmd/obscheck

# Short fuzz passes over the grid-spec parser, the lattice
# configuration codec and the mono-region dilation kernel against its
# BFS oracle (the CI-sized budget; raise -fuzztime locally for deeper
# exploration).
fuzz:
	go test -run '^$$' -fuzz FuzzParseGrid -fuzztime 30s ./internal/batch/
	go test -run '^$$' -fuzz FuzzUnmarshalBinary -fuzztime 30s ./internal/grid/
	go test -run '^$$' -fuzz FuzzCenteredRadii -fuzztime 30s ./internal/measure/

# Record the benchmark trajectory (flip throughput on both engines —
# default path, every scenario axis, and the Kawasaki and Move
# dynamics — plus run-to-fixation at small and giant scale and the
# grid cell rate) into the committed baseline.
bench:
	go run ./cmd/bench -out BENCH_2.json

# Fail when any trajectory metric regresses >20% vs the committed
# baseline (same-machine comparison; record the baseline with `make
# bench` on the machine you compare on).
bench-check:
	go run ./cmd/bench -baseline BENCH_2.json

# CI variant for heterogeneous runners: machine-independent fast-vs-
# reference speedup gate (>= 3x in the same run), a parallel-vs-
# sequential scaling gate (>= 3x, enforced only on runners with >= 8
# CPUs, reported otherwise), plus a loose 2x absolute backstop against
# catastrophic regressions.
bench-check-ci:
	go run ./cmd/bench -baseline BENCH_2.json -tolerance 1.0 -minspeedup 3 -minscaling 3

# Giant-grid memory gate: run the n=4096 fixation probe with the
# allocator returning freed pages eagerly (so VmHWM reflects live
# memory, not lazily-reclaimed spans) and fail if peak RSS crosses the
# ceiling. Pins the O(n*tile) streaming-measurement claim.
memcheck:
	GODEBUG=madvdontneed=1 go run ./cmd/bench -memcheck -maxrss 384

# Run the engine differential harness only (reference vs fast).
diff:
	go test -run TestEnginesBitIdentical -v ./internal/difftest/

# Capture CPU and allocation pprof profiles for the flip-throughput
# benchmarks (both engines, every scenario path, the swap dynamic, and
# the batch grid-cell rate). Read them with:
#   go tool pprof -top profiles/cpu.prof
#   go tool pprof -top -sample_index=alloc_space profiles/mem.prof
# See README "Profiling the hot path" for what to look for.
profile:
	mkdir -p profiles
	go test -run '^$$' -bench 'FlipThroughput|SwapThroughput|GridCell' -benchmem \
		-cpuprofile profiles/cpu.prof -memprofile profiles/mem.prof .
	@echo "wrote profiles/cpu.prof and profiles/mem.prof"

# Docs checks: markdown links, experiment index vs registry, CLI flag
# documentation coverage, and store key-schema stability (the CI docs
# job runs the same set).
docs:
	go test -run 'TestDocs' .
	go test -run TestUsageCoverage ./cmd/...
	go test -run 'TestKey' ./internal/store/

# Static analysis beyond go vet. The version is pinned so local runs
# and the CI job agree on the finding set.
staticcheck:
	go run honnef.co/go/tools/cmd/staticcheck@2025.1.1 ./...

verify: build
	gofmt -l . | (! grep .) || (echo "gofmt needed" >&2; exit 1)
	go vet ./...
	go test ./...

GO ?= go

.PHONY: all build test race test-race vet fmt bench-build bench-smoke trace-smoke fuzz-smoke fuzz-eco-smoke fuzz-scale-smoke alloc-guard service-smoke steiner-smoke scale-smoke check bench-json bench-pathsearch bench-scaling bench-eco bench-service bench-steiner bench-scale

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# test-race is the targeted race lane: the lock-free fast-grid and
# striped interval-map stress tests, the work-stealing scheduler's
# forced-steal bit-identity sweep (Workers 1,2,4,8 with injected
# steals), plus the ECO differential equivalence suite (whose
# incremental runs exercise replay, restricted global routing, and
# parallel detail together), all under the race detector.
test-race:
	$(GO) test -race -run 'TestConcurrentReadsDuringCommits' ./internal/fastgrid
	$(GO) test -race -run 'TestStripedConcurrentDisjoint|TestStripedMatchesMap' ./internal/intervalmap
	$(GO) test -race -run 'TestForcedStealEquivalence|TestRunScheduledExecution' ./internal/detail
	$(GO) test -race -run 'TestECOEquivalence' ./internal/verify
	$(GO) test -race ./internal/incremental
	$(GO) test -race ./internal/service

vet:
	$(GO) vet ./...

# fmt fails, listing the files, when any tracked Go file is not
# gofmt-clean.
fmt:
	@out="$$(gofmt -l $$(git ls-files '*.go'))"; test -z "$$out" || { echo "$$out"; exit 1; }

# bench-build compiles, vets and tests the judge: bench/ is a module of
# its own that imports bonnroute/internal/... through a replace, outside
# `go test ./...`, so a deletion in the router can break the benchmark
# build while tier-1 stays green.
bench-build:
	$(GO) vet -C bench ./... && $(GO) test -C bench ./...

# bench-smoke runs the interval-vs-node benchmarks once each: a fast
# sanity check that the path-search hot path still finds the long
# connection and that the benchmark harness compiles and runs.
bench-smoke:
	$(GO) test -run '^$$' -bench 'IntervalVsNode' -benchtime 1x .

# trace-smoke routes a tiny chip with -trace and validates that every
# line of the trace parses as JSON and that the BonnRoute stage spans,
# per-phase global spans and per-round detail spans are all present.
trace-smoke:
	$(GO) run ./cmd/bonnroute -flow br -rows 4 -cols 8 -nets 16 -trace /tmp/bonnroute-trace.jsonl >/dev/null
	$(GO) run ./cmd/tracelint -require-stages /tmp/bonnroute-trace.jsonl

# fuzz-smoke sweeps ten fixed-seed random scenarios through the full
# BonnRoute flow and every independent verifier (shape conservation,
# brute-force spacing, connectivity, capacity, the fast-grid
# differential, determinism double-run). Fixed seeds keep the lane
# deterministic; widen with -seeds/-base-seed for a real hunt.
fuzz-smoke:
	$(GO) run ./cmd/routefuzz -seeds 10 -base-seed 1000

# fuzz-eco-smoke sweeps fixed-seed random scenarios through the ECO
# path: each seed routes a chip, applies a seeded random delta both
# incrementally and from scratch, and requires every verifier pass to
# hold on both with identical opens/overflow plus worker-count
# bit-identity of the incremental result.
fuzz-eco-smoke:
	$(GO) run ./cmd/routefuzz -eco -seeds 4 -base-seed 2000

# fuzz-scale-smoke sweeps fixed-seed scenarios through the scale-tier
# slice: each seed routes the same chip unsharded/serial and sharded
# (congestion-region tiles)/parallel, requires bit-identical results,
# and runs the verifier with the seeded sampled spacing mode engaged.
fuzz-scale-smoke:
	$(GO) run ./cmd/routefuzz -scale -seeds 3 -base-seed 3000 -nets 120 -steiner-diff 0

# scale-smoke is the order-of-magnitude gate below the 10⁵-net bench:
# a 10⁴-net ScaledParams chip routed end to end and verified with the
# sampled pass matrix, plus the full-flow sharded-vs-unsharded worker
# bit-identity check. Behind the `scale` build tag so `go test ./...`
# never pays for it; takes several minutes on one core.
scale-smoke:
	$(GO) test -tags scale -timeout 60m -run 'TestScaleSmoke|TestShardedFlowBitIdentity' ./internal/scale

# alloc-guard re-runs the steady-state allocation tests: the no-op
# tracer must stay allocation-free, the pooled path-search engine must
# keep its per-search allocation budget — both serially and with four
# engines searching concurrently (the Workers=4 regime) — cached
# future-cost requests (the rip-up retry path) must be allocation-free,
# the region-task scheduler's own dispatch overhead
# must stay bounded so the parallel path cannot erode those budgets,
# and the Steiner oracles (Path Composition and the exact goal-oriented
# search) must hold their steady-state per-call budgets once warm.
# The scale lane pins deterministic bytes-per-net budgets (shape grid
# and fast grid on freshly built 10³- and 10⁴-net spaces, interval map
# per run) with +10% headroom: the accounting derives from element
# counts, so any overshoot is a data-structure layout regression.
alloc-guard:
	$(GO) test -run 'TestNoopTracerAllocs' ./internal/obs
	$(GO) test -run 'TestSteadyStateAllocs|TestParallelSteadyStateAllocs|TestFutureSteadyStateAllocs' ./internal/pathsearch
	$(GO) test -run 'TestSchedulerAllocs' ./internal/detail
	$(GO) test -run 'TestOracleSteadyStateAllocs' ./internal/steiner
	$(GO) test -tags scale -timeout 30m -run 'TestBytesPerNetBudget|TestIntervalMapBytesPerRun' ./internal/scale

# service-smoke starts the routing daemon on a loopback port, walks one
# session through create → reroute → assess → result → delete over real
# HTTP, and shuts down gracefully. Self-contained (the daemon drives
# its own round-trip), so no curl or port coordination is needed.
service-smoke:
	$(GO) run ./cmd/routed -smoke

# steiner-smoke is the exact-oracle differential gate: every seeded
# ≤9-group instance must come back provably optimal (matching an
# independent reference solver) and never costlier than Path
# Composition. fuzz-smoke runs a 64-instance slice of the same check;
# this lane runs the full 400-instance suite plus the planar-RSMT
# equivalence.
steiner-smoke:
	$(GO) test -run 'TestExactDifferential|TestExactPlanarMatchesRSMT' ./internal/steiner

# check is the pre-merge gate: vet, gofmt, build, the full test suite, the
# benchmark module's build and tests, the targeted race lane, the
# benchmark smoke test, the trace smoke test,
# the verifier fuzz sweeps (plain, ECO, and scale), the Steiner oracle
# differential, the allocation guards (including the scale-tier memory
# budgets), the service daemon round-trip, and the 10⁴-net scale smoke.
# (`make race` — the whole suite under -race — stays available as the
# long-form lane.)
check: vet fmt build test bench-build test-race bench-smoke trace-smoke fuzz-smoke fuzz-eco-smoke fuzz-scale-smoke steiner-smoke alloc-guard service-smoke scale-smoke

# bench-json regenerates the committed benchmark artifact (small suite
# plus the path-search micro-benchmarks). Each chip's ISR and BR+cleanup
# flows carry full (explicit-zero) search_stats.
bench-json:
	$(GO) run ./cmd/routebench -suite small -bench-json BENCH_pathsearch.json

# bench-pathsearch is the canonical name for the path-search artifact
# regeneration lane (alias of bench-json).
bench-pathsearch: bench-json

# bench-scaling runs the measured detail-stage workers sweep: each
# worker count W runs at GOMAXPROCS=W (one warmup, median of 3 measured
# runs; host CPU recorded in the artifact) and the quality fields are
# diffed against the committed BENCH_parallel.json — any drift in
# routed/netlength/vias/errors/unrouted, across worker counts, runs, or
# against the artifact, fails the target. Regenerate the artifact with:
#   go run ./cmd/routebench -workers-sweep 1,2,4,8 -sweep-runs 7 -suite scaling -bench-json BENCH_parallel.json
# (the committed artifact uses median-of-7; the gate below uses the
# faster default of 3 since it only diffs quality fields)
bench-scaling:
	$(GO) run ./cmd/routebench -workers-sweep 1,2,4,8 -suite scaling -diff-parallel BENCH_parallel.json

# bench-eco regenerates the committed incremental-rerouting artifact:
# each eco-suite chip is routed, a small (<10%) random delta is applied,
# and incremental.Reroute is timed against a from-scratch reroute of the
# same mutated chip. Both results must clear every verifier pass.
bench-eco:
	$(GO) run ./cmd/routebench -eco -suite eco -bench-json BENCH_eco.json

# bench-steiner regenerates the committed Steiner-oracle artifact: each
# medium-suite chip is prepared exactly as the global stage would (grid
# graph + estimated capacities), then every net is answered by both the
# exact goal-oriented oracle and Path Composition under identical edge
# costs. The artifact records per-degree-bucket net counts, tree wire
# length, vias, mean oracle runtime, and how many nets the exact oracle
# certified or strictly improved.
bench-steiner:
	$(GO) run ./cmd/routebench -steiner -suite medium -bench-json BENCH_steiner.json

# bench-service regenerates the committed service-daemon artifact: one
# session created over loopback HTTP, then a 30-delta seeded ECO stream
# where every delta is pre-screened via /assess and applied via
# /reroute. The artifact records p50/p99 latencies for both endpoints,
# reroute throughput, and the assess-vs-reroute median speedup.
bench-service:
	$(GO) run ./cmd/routebench -service -bench-json BENCH_service.json

# bench-scale regenerates the committed scale artifact: the 10⁵-net
# ScaledParams chip routed end to end (global sharded by congestion-
# region tiles) and verified with the sampled pass matrix — the spacing
# sample seed, fast-grid strides, peak RSS, bytes-per-net, and the
# deterministic structure footprints are all recorded in the artifact.
# Takes on the order of an hour on one core; scale down with
# `-scale-nets` for a spot check.
bench-scale:
	$(GO) run ./cmd/routebench -suite huge -bench-json BENCH_scale.json

# Developer entry points. CI and the roadmap's tier-1 gate are
# `make verify` (build, vet, lint, test, and a run of every example
# program); `make race` is the concurrency gate for the parallel
# preference-matrix build, whose workers must never call the netstate
# oracle (it is not safe for concurrent use);
# `make lint` runs taalint, the repo's own determinism / oracle-usage
# static analysis (also enforced by the selfscan test); `make shuffle`
# re-runs the tests in random order to keep them state-independent.

GO ?= go

.PHONY: all build vet lint teeth test examples race shuffle bench bench-json bench-gate bench-baseline chaos perfbench-smoke verify

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the eleven taalint checks (maporder, floateq, rngsource,
# wallclock, oraclebypass, epochbump, errcompare, mergeorder, poolescape,
# panicpath, snapshotfreeze) over every non-test package, fails on any
# unsuppressed finding, and with -prune also fails on stale //taalint:
# suppressions. Checks run one after another over one shared dataflow
# index.
lint:
	$(GO) run ./cmd/taalint -prune

# teeth proves the lint gates bite: each deliberate-mutation patch in
# internal/analysis/testdata/teeth/ is applied to a throwaway worktree of
# the working tree (HEAD plus uncommitted, non-ignored changes; exactly
# HEAD on a clean checkout) and taalint must catch it (exit 1) with the
# named check alone.
teeth:
	sh scripts/lint-teeth.sh

test:
	$(GO) test ./...

# examples runs every program under examples/, which `go build ./...`
# only compiles, and fails on the first non-zero exit. Their output is
# discarded; a failing program's stderr is what shows.
EXAMPLES = $(sort $(dir $(wildcard examples/*/main.go)))

examples:
	for e in $(EXAMPLES); do \
		echo "$(GO) run ./$$e"; \
		$(GO) run ./$$e > /dev/null || exit 1; \
	done

race:
	$(GO) test -race ./...

# shuffle randomizes test execution order within each package, surfacing
# order-dependent tests (the dynamic twin of the maporder check).
shuffle:
	$(GO) test -shuffle=on ./...

# bench regenerates the paper's tables/figures in Quick mode.
bench:
	$(GO) test -run XXX -bench . -benchtime 1x .

# BENCH_PKGS and BENCH_NAMES select the gated benchmarks: the root
# package's scalability/oracle families, netsim's fair share and fluid
# simulation, one cold Algorithm-1 wave at 10k servers in the
# controller, and one run of each sim wave loop (legacy on the testbed
# tree, fault on a crash-heavy fat-tree). They are listed here only: CI's
# benchmark smoke job runs them through bench-json.
BENCH_PKGS = . ./internal/netsim ./internal/controller ./internal/sim
BENCH_NAMES = HitScalability|PathOracle|FairShare64Flows|Simulate64Flows|SimulateTestbed1024|Alg1ColdWave|SimLegacyTestbed|SimFaultFatTree

# bench-json runs the gated benchmarks once each, keeps the raw output in
# bench.txt and archives one machine-readable BENCH_local.json (CI renames
# it BENCH_<sha>.json per commit, forming the benchmark trajectory).
bench-json:
	$(GO) test -run XXX -bench '$(BENCH_NAMES)' -benchtime 1x $(BENCH_PKGS) | tee bench.txt | $(GO) run ./cmd/benchjson -o BENCH_local.json

# bench-gate is the regression gate: a fresh run is diffed against the
# committed BENCH_baseline.json and any benchmark past its per-metric
# threshold fails the target loudly — allocs/op +20% (deterministic
# count, the tight gate) and ns/op +100% (wall-clock on shared hosts
# drifts ±50% with neighbor load, so it only gates doublings).
# Unlike the bench-json smoke artifact this run uses the default
# -benchtime (stable ns/op instead of a single noisy sample) and
# -count=3: benchjson collapses repeated results to the per-benchmark
# minimum on both sides, so transient machine load — which only ever
# inflates a sample — cannot fake a regression. Refresh the baseline
# deliberately (and say why in the commit) with:
#   make bench-baseline
bench-gate:
	$(GO) test -run XXX -bench '$(BENCH_NAMES)' -count=3 $(BENCH_PKGS) | $(GO) run ./cmd/benchjson -o BENCH_local.json -baseline BENCH_baseline.json

bench-baseline:
	$(GO) test -run XXX -bench '$(BENCH_NAMES)' -count=3 $(BENCH_PKGS) | $(GO) run ./cmd/benchjson -o BENCH_baseline.json

# chaos runs the fault-injection harness under the race detector: randomized
# seeded fault schedules replayed bit-identically, with the run-time
# invariants (no policy through a dead switch, zero overload after reaction)
# enforced inside the simulator.
chaos:
	$(GO) test -race -run Chaos ./internal/faults/... ./internal/sim/...

# perfbench-smoke runs the repository benchmark's own checks, which the
# root `go test ./...` does not reach (perfbench is its own module): the
# module's tests, then a short run of every workload, untraced and then
# traced. The traced run drives the per-layer probes, which alone call
# BestRoute twice per pair and read the oracle's MemoryStats. Each run
# fails (exit 1) on any output check — §3 type templates,
# stablematch.IsStable on the probe matchings, and the Float64bits
# determinism guard over every op.
PERFBENCH_WORKLOADS = testbed-fig6 rack10k-plan fattree-faults

perfbench-smoke:
	cd perfbench && $(GO) test .
	for w in $(PERFBENCH_WORKLOADS); do \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 2 --trace 0 || exit 1; \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 1 || exit 1; \
	done

verify: build vet lint test examples

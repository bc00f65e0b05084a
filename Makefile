# Developer entry points; `make ci` is the gate CI and pre-push runs.

.PHONY: ci test race fuzz-smoke chaos chaos-repro serve serve-smoke elastic-smoke bench-smoke bench-json bench-compare bench-wall bench-exchange bench-local bench-fault bench-shrink bench-skew bench-split bench-ooc bench-elastic

# Chaos tier defaults; override per invocation, e.g.
#   make chaos SEED=12345 COUNT=256
#   make chaos-repro SEED=12345 SCENARIO=17
SEED ?= 20260807
COUNT ?= 64
SCENARIO ?= 0

ci:
	./ci.sh

test:
	go build ./... && go test ./...

race:
	go test -race ./internal/comm ./internal/rma ./internal/psort ./internal/sortutil ./internal/core ./internal/hss ./internal/fault ./internal/store ./internal/server ./internal/api ./internal/chaos

# Each of the eight fuzz targets mutates for 5 s (plain `go test` only replays
# their seeds); also the last step of ./ci.sh bench.
fuzz-smoke:
	./ci.sh fuzz

# Run the sort service locally (see cmd/dhsortd for the API and flags):
#   make serve ADDR=:8080
ADDR ?= :8080
serve:
	go run ./cmd/dhsortd -addr $(ADDR)

# End-to-end service smoke: boot dhsortd on a random port, drive it with the
# dhsort client, verify the streamed result (also part of the CI gate).
serve-smoke:
	./ci.sh serve

# Elasticity smoke: boot dhsortd with the autoscaler on hot thresholds,
# flood it until the target grows, let it idle until the target shrinks —
# both asserted from /v1/metrics.
elastic-smoke:
	./ci.sh elastic

# Tier-2 chaos oracle: a seeded corpus of composed skew x fault x recovery x
# backend scenarios.  Failures print the exact repro command.
chaos:
	go run ./cmd/chaos -seed $(SEED) -count $(COUNT)

# Replay one scenario bit-identically (seed + index fully determine it):
#   make chaos-repro SEED=20260807 SCENARIO=17
chaos-repro:
	go run ./cmd/chaos -seed $(SEED) -scenario $(SCENARIO) -v

# Tiny deterministic grid for CI; artifact uploaded by the workflow.  The
# second run engages the parallel intra-rank kernels (-threads 2).
bench-smoke:
	go run ./cmd/bench -json BENCH_ci.json -smoke
	go run ./cmd/bench -json BENCH_ci_t2.json -smoke -threads 2

# Regenerate the full benchmark trajectory document.
bench-json:
	go run ./cmd/bench -json BENCH_full.json

# Gate the working tree against a recorded baseline:
#   make bench-compare OLD=BENCH_full.json
bench-compare:
	go run ./cmd/bench -compare $(OLD) -json BENCH_new.json

# The wall-clock benchmark (BENCHMARK.json): four workloads, end-to-end
# metrics, correctness checked per op.  Arguments pass through, e.g.
#   make bench-wall ARGS='--workload sort-bulk --seed 7 --trace 1'
ARGS ?=
bench-wall:
	bash benchmark/run.sh $(ARGS)

# Exchange-backend ablation: two-sided ALLTOALLV vs fused overlap vs
# one-sided RMA put, under PGAS and pure-MPI intra-node pricing.
bench-exchange:
	go run ./cmd/bench -exp exchange

# Intra-rank kernel ablation (the Fig. 4 companion): introsort vs LSD radix
# vs fork-join task merge sort, plus the core.LocalSort dispatch table.
bench-local:
	go run ./cmd/bench -exp local

# Resilience ablation (extension, no paper figure): degradation curve of
# modelled makespan under seeded fault schedules (drop rate x crashes).
bench-fault:
	go run ./cmd/bench -exp fault

# Graceful-degradation ablation (extension, no paper figure): crash-respawn
# vs die-shrink recovery — makespan overhead, agreement rounds, shrink time
# and survivor counts per schedule.
bench-shrink:
	go run ./cmd/bench -exp shrink

# Skew ablation (PGX.D-style duplicate floods): output imbalance vs flood
# fraction for value-only samplesort splitters, tie-broken splitters, and
# the histogram sort's count-exact splitting.
bench-skew:
	go run ./cmd/bench -exp skew

# k-ary probing ablation: refinement rounds and modelled Splitting time vs
# probes per boundary (1, 2, 4, 8, 16) at P in {16, 64}, full-range keys.
bench-split:
	go run ./cmd/bench -exp split

# Out-of-core ablation: spilled runs, scratch traffic and modelled merge
# time vs external-merge fan-in (2, 4, 8, 16) under a 1/8 memory budget,
# against the fully resident baseline.
bench-ooc:
	go run ./cmd/bench -exp ooc

# Elasticity ablation: two back-to-back streams, static low/high
# provisioning vs a mid-stream grow — the makespan cost of joining ranks
# against the cost of over- or under-provisioning.
bench-elastic:
	go run ./cmd/bench -exp elastic

#!/usr/bin/env sh
# ci.sh — the repo's tiered quality gate, run locally and by
# .github/workflows/ci.yml:
#
#   ./ci.sh          # tier 1: fmt + vet + lint + build + LOC ratchet + test +
#                    # race (fast)
#   ./ci.sh bench    # tier 1 + bench smoke, BENCH_ci.json + compare gate,
#                    # BENCH_full.json byte identity, wall benchmark smoke,
#                    # fuzz smoke
#   ./ci.sh fuzz     # tier 1 + fuzz smoke: each fuzz target mutates for 5 s
#   ./ci.sh chaos    # tier 2: the pinned-seed chaos corpus (64 scenarios)
#   ./ci.sh serve    # tier 1 + sort-service smoke: dhsortd + client round trip
#
# Fails (non-zero exit) on any gofmt diff, vet finding, lint finding, build
# error, non-test Go line count above LOC_CEILING, test failure, data race
# in the race-sensitive packages, benchmark regression beyond the threshold,
# a full grid that no longer regenerates to the committed BENCH_full.json, a
# wall-benchmark op failing verification, a fuzz target finding a failing
# input, or chaos-oracle violation.
set -eu

# The fuzz targets, as package:target.  Plain `go test` only replays their
# seeds; fuzz_smoke lets each one mutate for a few seconds (offline: the
# engine needs nothing but the toolchain).  A failing input is written to the
# package's testdata/fuzz/ — commit it with the fix.  Every target runs even
# after one finds something; the smoke then lists the new corpus files and
# fails, so no find is lost behind the first.
FUZZ_TARGETS="./internal/sortutil:FuzzRadixImagesMatchSlicesSort ./internal/core:FuzzLocalSortMatchesIntrosort ./internal/core:FuzzBoundsMatchesSearch ./internal/core:FuzzSeedBracketHoldsSplitter ./internal/core:FuzzRefineSplitters ./internal/fault:FuzzParseRoundTrip ./internal/store:FuzzFSRunFile ./internal/server:FuzzJobSpecDecode"
fuzz_smoke() {
    fuzz_failed=""
    for pt in $FUZZ_TARGETS; do
        echo "== fuzz smoke (${pt##*:}, 5 s)"
        go test "${pt%%:*}" -run '^$' -fuzz "^${pt##*:}\$" -fuzztime 5s || fuzz_failed="$fuzz_failed ${pt##*:}"
    done
    if [ -n "$fuzz_failed" ]; then
        echo "fuzz smoke: failing inputs found by$fuzz_failed; new corpus files:" >&2
        git ls-files --others --exclude-standard -- '*testdata/fuzz/*' >&2 || true
        exit 1
    fi
}

# Race-sensitive packages: the message-passing substrate (and its
# shared-memory rendezvous collectives), the one-sided RMA windows and the
# PGAS global array (cross-goroutine direct memory writes ordered by the
# rendezvous barrier), the shared-memory parallel
# sort, the intra-rank kernels (fork-join merges, radix scratch reuse), the
# fault-injection plane (adjudicated on sender goroutines, deduplicated on
# receiver goroutines), the algorithms that drive them, the out-of-core store
# (one shared run store appended and merged by every rank of a spilled
# collective), the sort service (pooled persistent worlds shared across
# concurrent HTTP-driven jobs, now grown and shrunk in place by the
# autoscaler), and the chaos harness (grow collectives racing seeded
# message faults).
RACE_PKGS="./internal/comm ./internal/rma ./internal/garray ./internal/psort ./internal/sortutil ./internal/core ./internal/hss ./internal/fault ./internal/store ./internal/server ./internal/api ./internal/chaos"

echo "== gofmt"
fmt_out=$(gofmt -l .)
if [ -n "$fmt_out" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$fmt_out" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

# Static analysis beyond vet: run when the tools are on PATH (the workflow
# installs pinned versions; local sandboxes without network skip with a note).
if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck"
    staticcheck ./...
else
    echo "== staticcheck (skipped: not installed)"
fi
if command -v govulncheck >/dev/null 2>&1; then
    echo "== govulncheck"
    govulncheck ./...
else
    echo "== govulncheck (skipped: not installed)"
fi

echo "== go build"
go build ./...

# LOC ratchet: the non-test Go line count outside benchmark/ may not grow
# past LOC_CEILING.  A change that needs more lines raises the ceiling in
# the same diff, so growth is a reviewed one-line change, like
# BENCH_full.json; a change that deletes code lowers it.
LOC_CEILING=19798
loc=$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.git/*' ! -path './.bench_build/*' | xargs cat | wc -l)
echo "== non-test Go lines outside benchmark/: $loc (ceiling $LOC_CEILING)"
if [ "$loc" -gt "$LOC_CEILING" ]; then
    echo "LOC ratchet: $loc non-test Go lines exceed LOC_CEILING=$LOC_CEILING in ci.sh" >&2
    exit 1
fi

echo "== go test"
go test ./...

echo "== go test -race ($RACE_PKGS)"
go test -race $RACE_PKGS

if [ "${1:-}" = "bench" ]; then
    echo "== fault smoke (seeded drop schedule must still sort correctly)"
    go run ./cmd/dhsort -p 16 -n 65536 -model pgas -fault drop=0.01,seed=7 > /dev/null

    echo "== shrink smoke (permanent rank death must complete on the survivors)"
    go run ./cmd/dhsort -p 16 -n 65536 -model pgas -threads 1 -fault die=3@1,seed=7 -recovery shrink > /dev/null
    go run ./cmd/dhsort -p 16 -n 65536 -model pgas -threads 1 -alg hss -fault die=3@1,seed=7 -recovery shrink > /dev/null

    echo "== probes smoke (k-ary splitter refinement must verify end to end)"
    go run ./cmd/dhsort -p 16 -n 65536 -model pgas -threads 1 -probes 8 > /dev/null
    go run ./cmd/dhsort -p 16 -n 65536 -model pgas -threads 1 -alg hss -probes 8 > /dev/null

    # Out-of-core smoke: the spilled run (1/8 budget, filesystem scratch)
    # must produce byte-for-byte the resident run's output — itself the same
    # at the rendezvous (-model none) and by messages (-model pgas) —, for dhsort and
    # for hss (the same pipeline with the sampled splitter finder), and must
    # leave no run file behind — on every spilled row of the exchange: run
    # references (P = 8 within the default fan-in of 8: priced, in real
    # time, with a rank that crashes and restores from its checkpoint, and
    # with a rank that dies and whose partition run a survivor adopts), and
    # received segments staged as runs (P above a fan-in of 4).
    echo "== ooc smoke (spilled output must equal the resident output)"
    ooc_tmp=$(mktemp -d)
    go build -o "$ooc_tmp/" ./cmd/dhsort
    for alg in dhsort hss; do
        "$ooc_tmp/dhsort" -p 8 -n 16384 -model pgas -threads 1 -alg "$alg" \
            -dump "$ooc_tmp/$alg-resident.txt" > /dev/null
        # The resident run without a model exchanges at the shared-memory
        # rendezvous, the priced one by messages: same output.
        "$ooc_tmp/dhsort" -p 8 -n 16384 -model none -threads 1 -alg "$alg" \
            -dump "$ooc_tmp/$alg-resident-none.txt" > /dev/null
        cmp "$ooc_tmp/$alg-resident.txt" "$ooc_tmp/$alg-resident-none.txt"
        for row in "-model pgas" "-model none" "-model pgas -spill-fan-in 4" "-model pgas -fault crash=2@2,seed=7" "-model pgas -fault die=3@1,seed=7 -recovery shrink"; do
            # shellcheck disable=SC2086 # $row is a list of flags
            "$ooc_tmp/dhsort" -p 8 -n 16384 -threads 1 -alg "$alg" $row \
                -mem-budget 2048 -spill-dir "$ooc_tmp/scratch" \
                -dump "$ooc_tmp/$alg-spilled.txt" > /dev/null
            cmp "$ooc_tmp/$alg-resident.txt" "$ooc_tmp/$alg-spilled.txt"
            sort -c -n "$ooc_tmp/$alg-spilled.txt"
            left=$(find "$ooc_tmp/scratch" -name '*.run')
            [ -z "$left" ] || { echo "ooc smoke: $alg $row left run files behind:" >&2; echo "$left" >&2; exit 1; }
        done
    done

    # Exchange matrix smoke: every row of the exchange selection (schedule x
    # consumer), priced and in real time, must produce the resident output.
    echo "== exchange matrix smoke (every -exchange x -merge must equal the resident output)"
    for model in pgas none; do
        for ex in auto pairwise one-factor bruck hierarchical rma-put; do
            for merge in resort binary-tree overlap; do
                "$ooc_tmp/dhsort" -p 8 -n 16384 -model "$model" -threads 1 \
                    -exchange "$ex" -merge "$merge" -dump "$ooc_tmp/matrix.txt" > /dev/null
                cmp "$ooc_tmp/dhsort-resident.txt" "$ooc_tmp/matrix.txt" ||
                    { echo "exchange matrix smoke: -model $model -exchange $ex -merge $merge differs" >&2; exit 1; }
            done
        done
    done
    # The default re-sort and the binary tree merge uint64 runs as images.
    # At P = 17 the merge tree's first level pairs just one couple of runs
    # to leave 16; the result must equal a comparison re-sort (-kernel
    # introsort), which shares no code with the merge, there too.
    "$ooc_tmp/dhsort" -p 17 -n 16384 -model pgas -threads 1 -kernel introsort -dump "$ooc_tmp/resident-p17.txt" > /dev/null
    for model in pgas none; do
        for merge in resort binary-tree; do
            "$ooc_tmp/dhsort" -p 17 -n 16384 -model "$model" -threads 1 \
                -merge "$merge" -dump "$ooc_tmp/matrix.txt" > /dev/null
            cmp "$ooc_tmp/resident-p17.txt" "$ooc_tmp/matrix.txt" ||
                { echo "exchange matrix smoke: -p 17 -model $model -merge $merge differs" >&2; exit 1; }
        done
    done
    rm -rf "$ooc_tmp"

    echo "== bench smoke (BENCH_ci.json)"
    go run ./cmd/bench -json BENCH_ci.json -smoke
    # Same grid with the parallel intra-rank kernels engaged: exercises the
    # threaded supersteps end to end.  Threads only speed the modelled
    # compute phases up, so the default-threads baseline above stays the
    # conservative one the compare gate tracks.
    echo "== bench smoke, threaded kernels (BENCH_ci_t2.json)"
    go run ./cmd/bench -json BENCH_ci_t2.json -smoke -threads 2

    # Regression gate: hold the smoke run against the committed full
    # baseline on the grid points both cover (exit 3 on regression).
    echo "== bench compare gate (BENCH_ci.json vs committed BENCH_full.json)"
    go run ./cmd/bench -compare BENCH_full.json -with BENCH_ci.json -subset

    # The virtual-clock records are a pure function of the code: a change
    # that leaves modelled performance alone must regenerate the committed
    # document byte for byte, on any host.  One that moves it on purpose
    # commits the regenerated file (make bench-json) with the reason.
    echo "== bench identity (regenerated full grid must equal BENCH_full.json)"
    full_tmp=$(mktemp)
    go run ./cmd/bench -json "$full_tmp" > /dev/null
    cmp "$full_tmp" BENCH_full.json || {
        echo "BENCH_full.json is stale: the full grid no longer regenerates to the committed bytes" >&2
        rm -f "$full_tmp"
        exit 1
    }
    rm -f "$full_tmp"

    # Wall-clock benchmark smoke: every workload at 1/20 of its measuring
    # time; any op that fails the benchmark's own count / sortedness /
    # checksum verification is a non-zero exit.  A smoke, not a measurement.
    echo "== wall benchmark smoke (go run ./benchmark -quick)"
    go run ./benchmark -quick > /dev/null

    fuzz_smoke
fi

if [ "${1:-}" = "fuzz" ]; then
    fuzz_smoke
fi

if [ "${1:-}" = "serve" ]; then
    # Sort-service smoke: boot dhsortd on a random port, push a job through
    # the real client, and check the streamed result is sorted and complete.
    echo "== serve smoke (dhsortd + dhsort client round trip)"
    tmp=$(mktemp -d)
    trap 'kill $srv_pid 2>/dev/null || true; rm -rf "$tmp"' EXIT
    go build -o "$tmp/" ./cmd/dhsort ./cmd/dhsortd
    # A 500 ms batch linger (only small jobs linger) lets the concurrent
    # inline jobs below, each from its own client process, meet in a batch.
    "$tmp/dhsortd" -addr 127.0.0.1:0 -addr-file "$tmp/addr" -p 4 -workers 2 \
        -batch-wait 500ms > "$tmp/dhsortd.log" 2>&1 &
    srv_pid=$!
    for i in 1 2 3 4 5 6 7 8 9 10; do
        [ -s "$tmp/addr" ] && break
        sleep 0.3
    done
    [ -s "$tmp/addr" ] || { echo "dhsortd never wrote its address" >&2; cat "$tmp/dhsortd.log" >&2; exit 1; }
    DHSORT_SERVER="http://$(cat "$tmp/addr" | tr -d '\n')"
    export DHSORT_SERVER

    "$tmp/dhsort" health > /dev/null
    job=$("$tmp/dhsort" submit -tenant ci -n 50000 -dist zipf -wait)
    "$tmp/dhsort" result "$job" > "$tmp/out.txt"
    sort -c -n "$tmp/out.txt"
    lines=$(wc -l < "$tmp/out.txt")
    [ "$lines" -eq 50000 ] || { echo "serve smoke: got $lines keys, want 50000" >&2; exit 1; }
    # Second job of the same shape must hit the warm world pool.
    job2=$("$tmp/dhsort" submit -tenant ci -n 10000 -wait 2> "$tmp/wait2.log")
    grep -q 'pool_hit=true' "$tmp/wait2.log" || { echo "serve smoke: second job missed the world pool" >&2; cat "$tmp/wait2.log" >&2; exit 1; }
    "$tmp/dhsort" stats | grep -q '"hits": ' || { echo "serve smoke: /v1/metrics has no pool counters" >&2; exit 1; }
    # k-ary probing end to end: an 8-probe job must stream a sorted result.
    job3=$("$tmp/dhsort" submit -tenant ci -n 50000 -dist zipf -probes 8 -wait)
    "$tmp/dhsort" result "$job3" > "$tmp/out3.txt"
    sort -c -n "$tmp/out3.txt"
    lines3=$(wc -l < "$tmp/out3.txt")
    [ "$lines3" -eq 50000 ] || { echo "serve smoke: probes job got $lines3 keys, want 50000" >&2; exit 1; }
    # Inline round trip: four concurrent small keys-file jobs, each with 0,
    # MaxUint64 and duplicates.  Two workers hold at most two lingering
    # batches, so at least two of the four jobs share one (the radix-sorted
    # batch path), and every streamed result must equal `sort -n` of its
    # file byte for byte.
    for i in 1 2 3 4; do
        awk -v s="$i" 'BEGIN {
            for (j = 1; j <= 1000 * s; j++) {
                if (j % 7 == 0) print 0
                else if (j % 11 == 0) print "18446744073709551615"
                else if (j % 3 == 0) print (j * 7919) % 97
                else if (j % 2 == 0) printf "1844674407%010.0f\n", (j * s * 104729) % 3709551615
                else printf "%d%09.0f\n", (j * 31) % 99991, (j * s * 7919) % 1000000000
            } }' > "$tmp/keys$i.txt"
    done
    sub_pids=""
    for i in 1 2 3 4; do
        "$tmp/dhsort" submit -tenant ci -keys-file "$tmp/keys$i.txt" -wait > "$tmp/job$i" 2> "$tmp/inwait$i.log" &
        sub_pids="$sub_pids $!"
    done
    for pid in $sub_pids; do wait "$pid"; done
    for i in 1 2 3 4; do
        "$tmp/dhsort" result "$(cat "$tmp/job$i")" > "$tmp/inline$i.txt"
        sort -n "$tmp/keys$i.txt" | cmp - "$tmp/inline$i.txt" || { echo "serve smoke: inline job $i result differs from sort -n" >&2; exit 1; }
    done
    batched=$(cat "$tmp"/inwait[1-4].log | grep -c 'batched=true' || true)
    [ "$batched" -ge 2 ] || { echo "serve smoke: $batched of 4 inline jobs batched, want >= 2" >&2; cat "$tmp"/inwait[1-4].log >&2; exit 1; }
    kill $srv_pid
    wait $srv_pid 2>/dev/null || true
    trap - EXIT
    rm -rf "$tmp"
    echo "== serve smoke OK"
fi

if [ "${1:-}" = "elastic" ]; then
    # Elasticity smoke: dhsortd with the autoscaler on hot thresholds.  A
    # flood of queued jobs must grow the default world size (and reshape the
    # warm pool in place); a subsequent idle stretch must shrink it back.
    # Both transitions are asserted from the public /v1/metrics counters.
    echo "== elastic smoke (autoscaler grow under flood, shrink when idle)"
    tmp=$(mktemp -d)
    trap 'kill $srv_pid 2>/dev/null || true; rm -rf "$tmp"' EXIT
    go build -o "$tmp/" ./cmd/dhsort ./cmd/dhsortd
    "$tmp/dhsortd" -addr 127.0.0.1:0 -addr-file "$tmp/addr" -p 4 -workers 1 \
        -queue 64 -quota-rate 1000 -quota-burst 1000 \
        -autoscale -autoscale-max-p 8 -autoscale-step 4 \
        -grow-queue 1 -sustain 2 -scale-interval 50ms \
        -idle-ttl 1s -cooldown 200ms \
        > "$tmp/dhsortd.log" 2>&1 &
    srv_pid=$!
    for i in 1 2 3 4 5 6 7 8 9 10; do
        [ -s "$tmp/addr" ] && break
        sleep 0.3
    done
    [ -s "$tmp/addr" ] || { echo "dhsortd never wrote its address" >&2; cat "$tmp/dhsortd.log" >&2; exit 1; }
    DHSORT_SERVER="http://$(cat "$tmp/addr" | tr -d '\n')"
    export DHSORT_SERVER

    # Flood: enough concurrent queued work that the sampler sees sustained
    # pressure.  The retrying client rides out any transient queue_full
    # rejections.
    sub_pids=""
    for i in $(seq 1 24); do
        "$tmp/dhsort" submit -tenant ci -n 400000 -dist zipf -seed "$i" \
            -retries 5 > /dev/null &
        sub_pids="$sub_pids $!"
    done
    wait $sub_pids
    grew=""
    for i in $(seq 1 100); do
        if "$tmp/dhsort" stats | grep -Eq '"grows": [1-9]'; then grew=1; break; fi
        sleep 0.2
    done
    [ -n "$grew" ] || { echo "elastic smoke: no grow under flood" >&2; "$tmp/dhsort" stats >&2; exit 1; }

    # Idle: wait out the queue, then the idle TTL; the target must return
    # to the floor.
    shrank=""
    for i in $(seq 1 300); do
        if "$tmp/dhsort" stats | grep -Eq '"shrinks": [1-9]'; then shrank=1; break; fi
        sleep 0.2
    done
    [ -n "$shrank" ] || { echo "elastic smoke: no shrink when idle" >&2; "$tmp/dhsort" stats >&2; exit 1; }
    "$tmp/dhsort" stats | grep -q '"target_p": 4' || { echo "elastic smoke: target did not return to the floor" >&2; "$tmp/dhsort" stats >&2; exit 1; }

    # Graceful drain: with a job still in flight, SIGTERM flips health to
    # draining, submissions bounce typed, and the server finishes the
    # admitted work before exiting inside its drain budget.
    "$tmp/dhsort" submit -tenant ci -n 4000000 -dist zipf > /dev/null
    kill -TERM $srv_pid
    sleep 0.2
    "$tmp/dhsort" health | grep -q draining || { echo "elastic smoke: no draining health state" >&2; exit 1; }
    if "$tmp/dhsort" submit -tenant ci -n 1000 > /dev/null 2> "$tmp/drain.log"; then
        echo "elastic smoke: submission accepted while draining" >&2; exit 1
    fi
    grep -q draining "$tmp/drain.log" || { echo "elastic smoke: drain rejection untyped" >&2; cat "$tmp/drain.log" >&2; exit 1; }
    wait $srv_pid 2>/dev/null || true
    grep -q 'drained, shutting down' "$tmp/dhsortd.log" || { echo "elastic smoke: drain did not complete cleanly" >&2; cat "$tmp/dhsortd.log" >&2; exit 1; }
    trap - EXIT
    rm -rf "$tmp"
    echo "== elastic smoke OK"
fi

if [ "${1:-}" = "chaos" ]; then
    # Tier 2: the pinned-seed chaos corpus — 64 composed skew × fault ×
    # recovery × backend × storage scenarios, each checked for sortedness,
    # multiset identity, imbalance, bit-identical replay and (when spilled)
    # storage-backing independence.  A failure prints the exact
    # single-scenario repro command (also: make chaos-repro).
    echo "== chaos corpus (pinned seed 20260807, 64 scenarios)"
    go run ./cmd/chaos -seed 20260807 -count 64
fi

echo "== ci OK"

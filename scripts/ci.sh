#!/usr/bin/env bash
# Tier-1 verification entry point. Runs entirely offline: the workspace has
# no external dependencies (see DESIGN.md §3), so a bare toolchain and this
# checkout are all that is needed.
#
#   scripts/ci.sh          # build + test + lint, whole workspace, plus the
#                          # benchmark workspace's own gate
#   BENCH=1 scripts/ci.sh  # additionally run the bench harness once
#                          # (emits BENCH_figures.json)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --offline --workspace --all-targets

echo "== test (the structural contract too: tests/structure.rs) =="
cargo test -q --offline --workspace

echo "== allocation budget, release build =="
# hostbench's allocs_per_req counts a release build; the workspace run
# above pins the debug one. Both must hold the same numbers.
cargo test -q --release --offline --test alloc_budget

echo "== clippy (deny warnings; no pub item a crate cannot export) =="
# With unreachable_pub denied, an item is either public API, which
# tests/structure.rs's pub_items_have_callers holds to a caller or a
# `// test-api:` reason, or crate-private, which rustc's dead_code holds
# to a use.
cargo clippy --offline --workspace --all-targets -- -D warnings -D unreachable_pub

echo "== rustdoc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

# The one hit walk's two differential properties, the split
# controller's ghost and quota properties, and the recency map against
# its eager LRU model, at two pinned seeds each.
for SEED in 0x5eed0001 0x5eed0002; do
    CHECK_SEED="$SEED" cargo test -q --offline -p simfs --test resident_walk_equivalence
    CHECK_SEED="$SEED" cargo test -q --offline -p check --test substitution_equivalence
    CHECK_SEED="$SEED" cargo test -q --offline -p check --test adaptive_property
    CHECK_SEED="$SEED" cargo test -q --offline -p check --test recency_model
done

echo "== benchmark workspace gate (benchmark/check.sh) =="
# hostbench is its own workspace and drives the crates' public API only;
# every item it pins is listed in benchmark/src/seams.rs. Building,
# linting and smoke-running it here (all seven workloads timed + traced,
# verification on, plus the selftest) turns signature drift into a CI
# failure instead of a broken benchmark pipeline.
benchmark/check.sh

# Every experiment below goes through the one release binary.
repro() {
    cargo run --release --offline -q -p ncache-bench --bin repro -- "$@"
}
TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$TRACE_DIR"' EXIT
# At least 4 workers so the multi-worker path is exercised even on small
# machines (the executor oversubscribes harmlessly).
NT="$(nproc 2>/dev/null || echo 4)"
if [[ "$NT" -lt 4 ]]; then NT=4; fi

# diff_matrix LABEL SELECTOR-ARGS...: the determinism gate. Runs the
# selector at --threads 1 (the reference, kept as $TRACE_DIR/LABEL.txt and
# required to have printed something, so a selector that ran nothing
# cannot pass) and at --threads $NT, which must reproduce the reference's
# stdout byte for byte. repro rejects a flag no chosen experiment honours,
# but --threads is exempt from that check: every experiment's output is
# invariant in it, so ignoring it is unobservable. The NCache shard count
# is no flag; the rig-level suites (shard_equivalence, range_model,
# concurrent_oracle, ...) hold it unobservable.
diff_matrix() {
    local label="$1"
    shift
    repro "$@" --threads 1 2>/dev/null > "$TRACE_DIR/$label.txt"
    test -s "$TRACE_DIR/$label.txt"
    repro "$@" --threads "$NT" 2>/dev/null > "$TRACE_DIR/${label}_wide.txt"
    cmp "$TRACE_DIR/$label.txt" "$TRACE_DIR/${label}_wide.txt"
}

echo "== observability smoke (repro --table2 --metrics --trace) =="
# What --metrics prints is tier-1's (crates/bench/tests/cli.rs); this rung
# checks that the traces it writes beside it validate.
repro --table2 --metrics --trace "$TRACE_DIR/table2.json" > /dev/null
repro --validate-trace "$TRACE_DIR/table2.json"
repro --validate-trace "$TRACE_DIR/table2.jsonl"

echo "== executor smoke (repro --table2, 1 vs N threads, identical stdout) =="
diff_matrix table2 --table2
echo "table2 identical at 1 and $NT threads"

echo "== fault smoke (repro --table2 --faults, same-seed determinism) =="
# The same seed + spec must replay byte-identically at any thread count.
# (The faulted counts may exceed the fault-free table: a retransmitted
# request really does the work twice, and the ledgers count it honestly.)
diff_matrix table2_faulted --table2 --faults loss=0.05 --seed 7
echo "faulted table2 identical at 1 and $NT threads"
diff_matrix faults_sweep --faults-sweep
echo "fault sweep identical at 1 and $NT threads"
# Multi-session correctness under loss rides the same smoke: 16
# interleaved client sessions, overlapping writes, every build config.
cargo test -q --release --offline --test multi_client
# The lane-parallel engine against its sequential oracle, clean and under
# three fault specs, at threads {1,2,N} x shards {1,8} x 6 and 64 lanes:
# every session's link draws from a plan derived from the rig's seed and
# the session index, whichever engine runs it.
cargo test -q --release --offline --test concurrent_oracle
# The timing engine's event order (rejections, backoffs and same-instant
# ties included) against the digests recorded in tests/golden.
cargo test -q --release --offline --test trace_digests

echo "== client-scaling determinism (repro --clients-sweep, 1 vs N threads) =="
# Threading the executor must be unobservable: the client-scaling tables
# are byte-identical at thread counts 1 and N.
diff_matrix clients --clients-sweep
echo "clients sweep identical at threads {1,$NT}"

echo "== overload observatory (repro --overload-sweep --latency-report --metrics) =="
# The open-loop sweep and its latency-attribution report are read off
# merged recorder histograms whose cell absorb is exact, so stdout —
# goodput, tail quantiles, stage shares, the rendered report AND every
# recorder counter — must be byte-identical across thread counts.
diff_matrix overload --overload-sweep --latency-report --metrics
echo "overload sweep + latency report + metrics identical at threads {1,$NT}"

echo "== overload control plane (repro --overload-ablation) =="
# The protected-vs-unprotected ablation runs both variants off identical
# offered schedules; admission decisions, retry backoffs, and shedding
# are all seed-derived, so its stdout must also be byte-identical across
# thread counts.
diff_matrix ablation --overload-ablation
echo "overload ablation identical at threads {1,$NT}"
# What the tables claim (protected beats unprotected goodput in every cell
# but three pinned ones) is tier-1's: tests/golden_figures.rs reads it off
# the golden tables, so this rung checks determinism only.

echo "== adaptive cache split (repro --adaptive-sweep) =="
# Static (frozen controller) vs adaptive split over the phase-changing
# Zipf workload on the tiered backend. Controller ticks are epoch-
# aligned to op rounds and ghost stamps are schedule-invariant, so the
# sweep's stdout must be byte-identical across thread counts.
diff_matrix adaptive --adaptive-sweep
echo "adaptive sweep identical at threads {1,$NT}"
# Its claim (adaptive beats static goodput on all six segments) is
# tier-1's, read off the golden tables in tests/golden_figures.rs.

echo "== perf gate (figures bench vs committed BENCH_figures.json) =="
BENCH_JSON_DIR="$TRACE_DIR" BENCH_SAMPLES=5 \
    cargo bench --offline -q -p ncache-bench --bench figures > "$TRACE_DIR/bench.log"
# The bench JSON puts each result on one line; pull medians out with
# grep so the gate stays dependency-free.
bench_median() {
    grep -o "\"name\": \"$2\"[^}]*" "$1" \
        | grep -o '"median_ns": [0-9]*' | grep -o '[0-9]*'
}
for GATE in figures/fig4 obs/quantile_engine; do
    FRESH="$(bench_median "$TRACE_DIR/BENCH_figures.json" "$GATE")"
    COMMITTED="$(bench_median BENCH_figures.json "$GATE")"
    LIMIT=$((COMMITTED * 3))
    echo "$GATE median: fresh ${FRESH} ns vs committed ${COMMITTED} ns (limit ${LIMIT} ns)"
    if (( FRESH > LIMIT )); then
        echo "$GATE regressed: ${FRESH} ns is more than 3x the committed median" >&2
        exit 1
    fi
done

echo "== lane-parallel speedup (functional-phase wall clock, 1 vs N) =="
# The figures bench just measured the lane-parallel engine's functional
# phase at 1 / 2 / host threads, in 7 rounds that alternate the thread
# counts. Report the wall clocks to stderr, and gate in two rungs. With
# >= 2 CPUs, two lane threads must not be slower than one by more than
# 10 % in the median round (they were, by 40 %, until the core lock
# stopped parking both lanes on every write — EXPERIMENTS.md,
# "Parallel-lane speedup"); one best-of-3 pair of ~2 ms clocks, taken one
# count after the other, failed on any tree in a busy hour. With >= 4
# CPUs the speedup must exceed 1.5x.
# On a single-CPU container threads time-slice one core, the honest
# speedup sits near 1.0, and neither rung applies. The byte-exactness
# gates above run regardless.
bench_metric() {
    grep -o "\"$2\": [0-9.]*" "$1" | head -1 | grep -o '[0-9.]*$'
}
SPEEDUP="$(bench_metric "$TRACE_DIR/BENCH_figures.json" sessions.parallel_speedup)"
grep -o '"sessions\.parallel_wall_ms\.t[0-9]*": [0-9.]*' \
    "$TRACE_DIR/BENCH_figures.json" >&2
HOST_CPUS="$(nproc 2>/dev/null || echo 1)"
echo "sessions.parallel_speedup = ${SPEEDUP} (host CPUs: ${HOST_CPUS})"
if (( HOST_CPUS >= 2 )); then
    RATIO="$(bench_metric "$TRACE_DIR/BENCH_figures.json" sessions.parallel_ratio_t2_t1)"
    awk -v r="$RATIO" 'BEGIN { exit !(r <= 1.10) }' || {
        echo "two lane threads are > 10 % slower than one: median t2/t1 ${RATIO}" >&2
        exit 1
    }
    echo "two lane threads within 10 % of one: median per-round t2/t1 ${RATIO}"
else
    echo "two-thread gate skipped: host has ${HOST_CPUS} CPU(s), need >= 2"
fi
if (( HOST_CPUS >= 4 )); then
    awk -v s="$SPEEDUP" 'BEGIN { exit !(s > 1.5) }' || {
        echo "lane-parallel speedup ${SPEEDUP} <= 1.5x on a ${HOST_CPUS}-CPU host" >&2
        exit 1
    }
else
    echo "speedup gate skipped: host has ${HOST_CPUS} CPU(s), need >= 4"
fi

echo "== clean tree (the gates above leave nothing behind) =="
# Every gate writes under \$TRACE_DIR or an ignored build directory, so the
# checkout must still read as committed: run this script on a committed tree.
# The one exception is benchmark/Cargo.lock. benchmark/check.sh runs cargo on
# benchmark/Cargo.toml, which rewrites that lock file whenever a workspace
# crate's dependency edges change, and only a change to the benchmark itself
# may commit the refresh; so the rung does not count it.
DIRTY="$(git status --porcelain | grep -v ' benchmark/Cargo.lock$' || true)"
if [[ -n "$DIRTY" ]]; then
    echo "the gates left the tree dirty:" >&2
    echo "$DIRTY" >&2
    exit 1
fi
echo "tree clean"

if [[ "${BENCH:-0}" != "0" ]]; then
    echo "== bench =="
    BENCH_SAMPLES="${BENCH_SAMPLES:-10}" cargo bench --offline -p ncache-bench
fi

echo "CI OK"

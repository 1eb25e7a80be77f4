#!/usr/bin/env bash
# Tier-1 verification entry point. Runs entirely offline: the workspace has
# no external dependencies (see DESIGN.md §3), so a bare toolchain and this
# checkout are all that is needed.
#
#   scripts/ci.sh          # build + test + lint, whole workspace, plus the
#                          # benchmark workspace's own gate
#   BENCH=1 scripts/ci.sh  # additionally run the bench harness once
#                          # (emits BENCH_dataplane.json / BENCH_figures.json)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --offline --workspace --all-targets

echo "== test =="
cargo test -q --offline --workspace

echo "== clippy (deny warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== hasher lint (request-path maps hash with sim::MixMap, not SipHash) =="
# The block- and chunk-keyed maps of the cache crates and the target pay
# one mix64 per probe (sim::hash); a std HashMap<u64 | CacheKey, _> there
# costs ~20 ns more per probe, several probes per missed block. Key types
# are usually inferred, so the rung flags every non-test mention of the
# std type in those files; a map that really wants SipHash opts out with
# a trailing `// siphash-ok: <reason>` on its line.
SIPHASH="$(for f in crates/core/src/*.rs crates/simfs/src/*.rs \
    crates/netbuf/src/*.rs crates/servers/src/target.rs; do
    awk -v f="$f" '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /HashMap/ && !/siphash-ok:/ { print f ":" FNR ": " $0 }' "$f"
done)"
if [[ -n "$SIPHASH" ]]; then
    echo "std HashMap on the request path (use sim::MixMap):" >&2
    echo "$SIPHASH" >&2
    exit 1
fi
echo "no std HashMap outside tests in core, simfs, netbuf, servers/target.rs"

nontest() { # nontest FILE...: each file's lines up to its test module
    local f
    for f in "$@"; do
        awk -v f="$f" '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { print f ":" FNR ": " $0 }' "$f"
    done
}

echo "== one recency map (the LRU rule written once, chunks keep their chains) =="
# DESIGN.md §11, §14: NCache, the FS buffer cache and the ghost tail keep
# their entries in one sim::RecencyMap, which alone owns the true and
# filed stamps, the filing generations and the lazy per-class heaps. The
# rung fails if a cache grows its own copy of that scaffolding back (the
# heap type, a settle or liveness helper, a filed-stamp field) outside
# crates/sim/src/recency.rs, on an ordered map in the four recency files
# (it allocated a tree node every few inserts), on a `Vec<Segment>` field
# in `Chunk` (one allocation per cached block; a SegChain holds one
# segment inline), and on more than three non-test `thread_local!`s
# outside crates/check (the caches share one op tally, sim::epoch's).
RECENCY_FILES="crates/core/src/cache.rs crates/simfs/src/cache.rs crates/sim/src/ghost.rs crates/sim/src/recency.rs"
SCAFFOLD="$(nontest $(find crates/*/src src -name '*.rs' | grep -v '^crates/sim/src/recency\.rs$' | sort) \
    | grep -E 'RecencyHeap|fn settle_head\b|fn filed\b|order_seq' || true)"
ORDERED="$(nontest $RECENCY_FILES | grep BTreeMap || true)"
CHUNK_VEC="$(awk '/^pub struct Chunk/ { inside = 1 }
    inside && /Vec<Segment>/ { print "crates/core/src/chunk.rs:" FNR ": " $0 }
    inside && /^}/ { inside = 0 }' crates/core/src/chunk.rs)"
if [[ -n "$SCAFFOLD$ORDERED$CHUNK_VEC" ]]; then
    echo "recency scaffolding outside sim::recency, an ordered LRU map, or a Vec chain in Chunk:" >&2
    echo "$SCAFFOLD$ORDERED$CHUNK_VEC" >&2
    exit 1
fi
THREAD_LOCALS="$(nontest $(find crates/*/src src -name '*.rs' | grep -v '^crates/check/' | sort) \
    | grep -c 'thread_local!' || true)"
if (( THREAD_LOCALS > 3 )); then
    echo "$THREAD_LOCALS non-test thread_local! blocks outside crates/check, more than 3:" >&2
    nontest $(find crates/*/src src -name '*.rs' | grep -v '^crates/check/' | sort) \
        | grep 'thread_local!' >&2
    exit 1
fi
echo "one recency map, $THREAD_LOCALS thread-locals; non-test lines in the four recency files: $(nontest \
    $RECENCY_FILES | wc -l) (1959 before the recency rule was written once)"

echo "== one hit walk, one range path (a keyed READ and an NCache WRITE are each written once) =="
# DESIGN.md §9.2: simfs has one walk for a fully resident range
# (walk_resident), the servers crate one place that resolves a reply's
# placeholders (resolve_reply, the commit point), and one keyed READ body
# (ServerHost::read_keyed: the probe's walk, the fallback's
# resolve_fetched) that NFS, kHTTPd and the lane hit path all call. Every
# NCache WRITE, aligned or not, admits its blocks through one
# on_nfs_write loop (DESIGN.md §15). The rung fails if the functions the
# walk replaced come back, if a daemon grows its own copy of either range
# path, or if any call site multiplies; a second caller that really is
# needed opts out with a trailing `// walk-ok: <reason>` on its line.
OLD_WALKS="$(nontest crates/simfs/src/fs.rs | grep -E \
    'fn (probe_read|read_logical_shared|peek_inode|peek_map_block|map_block_shared|walk_block_path|get_resident|read_resident)\b' || true)"
if [[ -n "$OLD_WALKS" ]]; then
    echo "a second hit walk is back in simfs (walk_resident is the one):" >&2
    echo "$OLD_WALKS" >&2
    exit 1
fi
FORKS="$(nontest $(find crates/*/src src -name '*.rs' | sort) \
    | grep -E 'fn (unaligned_ncache_write|page_hit|page_fetched|on_flush_write)\b' || true)"
if [[ -n "$FORKS" ]]; then
    echo "a forked range path is back (ServerHost::read_keyed and ServerHost::ncache_write are the ones):" >&2
    echo "$FORKS" >&2
    exit 1
fi
count_calls() { # count_calls PATTERN FILE...: non-test call sites not opted out
    local pattern="$1"; shift
    nontest "$@" | grep -E "$pattern" | grep -vc 'walk-ok:[[:space:]]*[^[:space:]]' || true
}
for CALL in walk_resident resolve_fetched on_nfs_write resolve_reply; do
    CALLS="$(count_calls "[.:]$CALL\(" crates/servers/src/*.rs)"
    if [[ "$CALLS" != 1 ]]; then
        echo "crates/servers/src calls $CALL in $CALLS places, not 1" >&2
        exit 1
    fi
done
echo "one resident walk, one keyed fetch, one block admission, one placeholder resolution; non-test lines in \
crates/servers/src: $(nontest crates/servers/src/*.rs | wc -l) (3819 before the range paths were written once)"
# The two differential properties behind the walk, each at two pinned
# cases on top of the seeded run `cargo test` just did.
for SEED in 0x5eed0001 0x5eed0002; do
    CHECK_SEED="$SEED" cargo test -q --offline -p simfs --test resident_walk_equivalence
    CHECK_SEED="$SEED" cargo test -q --offline -p check --test substitution_equivalence
done

echo "== daemons name no build (Table 1: nfsd and kHTTPd keep only protocol) =="
# DESIGN.md §3, §4 (T1): which build runs is ServerHost's business (its
# read, write, remove, sendfile and transmit bodies), so the non-test part
# of either daemon names neither the build nor the module; the test
# table1_inventory_holds_structurally holds the same line. The rung fails
# on any of the five tokens there, and if the crate's non-test lines that
# name the build or the module, or all its non-test lines, rise above
# where they stood when the daemons stopped naming the build (3719 lines)
# plus the client-wide retry budget that joined control.rs since (57).
DAEMON_NAMES="$(nontest crates/servers/src/nfs.rs crates/servers/src/khttpd.rs \
    | grep -E 'ServerMode|ncache::|use ncache|netbuf::key|\.mode' || true)"
if [[ -n "$DAEMON_NAMES" ]]; then
    echo "a daemon names the build (ServerHost's bodies are the ones):" >&2
    echo "$DAEMON_NAMES" >&2
    exit 1
fi
BUILD_LINES="$(nontest crates/servers/src/*.rs | grep -cE 'ServerMode|ncache::|use ncache' || true)"
SERVERS_LINES="$(nontest crates/servers/src/*.rs | wc -l)"
if (( BUILD_LINES > 47 || SERVERS_LINES > 3776 )); then
    echo "crates/servers/src: $BUILD_LINES non-test lines name the build or the module (at most \
47), $SERVERS_LINES non-test lines (at most 3776)" >&2
    exit 1
fi
echo "no daemon names the build; non-test lines in crates/servers/src naming the build or the module: \
$BUILD_LINES (59 before the daemons stopped naming it), all: $SERVERS_LINES (3777 before)"

echo "== one backplane (one server host, one rig, one fault exchange, one op meter) =="
# DESIGN.md §3: what surrounds the NFS daemon and kHTTPd is written once
# (servers::host, testbed::rig), and only the codec, the op handlers, the
# stats and the DRC are per application. The rung fails if a second copy
# of any of it comes back; a line that really must repeat opts out with a
# trailing `// dup-ok: <reason>`.
count_lines() { # count_lines PATTERN FILE...: non-test lines not opted out
    local pattern="$1"; shift
    nontest "$@" | grep -E "$pattern" | grep -vc 'dup-ok:[[:space:]]*[^[:space:]]' || true
}
expect_count() { # expect_count WANT WHAT PATTERN FILE...
    local want="$1" what="$2" got; shift 2
    got="$(count_lines "$@")"
    if [[ "$got" != "$want" ]]; then
        echo "$what: $got, not $want" >&2
        exit 1
    fi
}
# (`struct Observation {` and `-> Observation {` are the type's definition
# and a return type, not literals of it.)
LITERALS="$(nontest crates/testbed/src/*.rs | grep -E '(^|[^A-Za-z_])Observation \{' \
    | grep -Evc '(struct|->) Observation \{|dup-ok:[[:space:]]*[^[:space:]]' || true)"
if [[ "$LITERALS" != 1 ]]; then
    echo "crates/testbed/src builds an Observation in $LITERALS places, not 1 (timing::OpMeter::finish)" >&2
    exit 1
fi
expect_count 2 "deliver_faulty( call sites in crates/testbed/src (request and reply direction)" \
    'deliver_faulty\(' crates/testbed/src/*.rs
for FN in adaptive_tick enable_adaptive metrics_report new_faulted quiesce maybe_poison set_recorder; do
    expect_count 1 "definitions of fn $FN in crates/testbed/src" "fn $FN\\b" crates/testbed/src/*.rs
done
# (`enable_control` is on the list because the rig installs the plane through
# generic code that sees only the host: a daemon-side one would be shadowed.)
for FN in pressure set_fault_recovery control_rejections control_stats enable_control; do
    expect_count 1 "definitions of fn $FN in crates/servers/src outside control.rs" "fn $FN\\b" \
        $(ls crates/servers/src/*.rs | grep -v '/control\.rs$')
done
# One session, one op body: both timing engines build their per-session
# client and fault channel with Rig::session and serve every op, faulted
# or clean, through Rig::serve_op — the lane engine keeps no exchange of
# its own and no second xid-base rule.
expect_count 0 "non-test definitions of fn faulted_lane_op in crates/testbed/src" \
    'fn faulted_lane_op\b' crates/testbed/src/*.rs
expect_count 0 "faulted_exchange_with( calls in crates/testbed/src/sessions.rs" \
    'faulted_exchange_with\(' crates/testbed/src/sessions.rs
XID_BASES="$(nontest crates/testbed/src/*.rs | grep -Ev '^[^:]*:[0-9]+: *//' \
    | grep -cE '\+ 1\) << 20' || true)"
if [[ "$XID_BASES" != 1 ]]; then
    echo "crates/testbed/src spells the session xid base '(... + 1) << 20' $XID_BASES times, not 1 (App::client)" >&2
    exit 1
fi
echo "one of each; non-test lines in crates/testbed/src + crates/servers/src: $(nontest \
    crates/testbed/src/*.rs crates/servers/src/*.rs | wc -l) (9437 before the backplane was written once)"

echo "== one reply path (one in-step transmit hook, one op body, one materializer) =="
# DESIGN.md §9.2, §10, §12: every reply is finished in step by one `&self`
# hook on the shard set (NetCacheShards::transmit), whichever engine and
# whichever guard serves it; both engines run one op body (Rig::serve_op)
# through a one-ended meter (OpMeter::finish); both daemons degrade through
# one materializer (ServerHost::materialize). The rung fails if the
# deferred transmit, its side channel or a second degradation copy comes
# back (same `// dup-ok: <reason>` escape as above).
for GONE in handle_message_deferred absorb_substitution finish_out_of_step \
    substitute_out_of_step 'fn substituted' with_resolver 'struct Metered' \
    materialize_range materialize_page; do
    expect_count 0 "non-test mentions of '$GONE' in crates/*/src" "$GONE" \
        $(find crates/*/src -name '*.rs' | sort)
done
expect_count 1 "definitions of fn transmit in crates/core/src" 'fn transmit\b' crates/core/src/*.rs
expect_count 1 "definitions of fn materialize in crates/servers/src" 'fn materialize\b' \
    crates/servers/src/*.rs
echo "one of each, none of what they replaced; non-test lines in crates/{core,servers,testbed}/src: $(nontest \
    crates/core/src/*.rs crates/servers/src/*.rs crates/testbed/src/*.rs | wc -l) (11615 before the reply path was written once)"

echo "== one evaluation (one Exp context, one cell sweep, one experiment registry) =="
# DESIGN.md §4: the paper's §5 is described once. Every experiment is one
# `pub fn name(x: &Exp)`, `Exp::sweep` is the only place cells are run and
# their recorders merged, and `experiments::ALL` is the only list of
# experiments: `repro` selects, checks flags and dispatches from it, and
# the goldens, the equivalence suite and the figures bench iterate it. The
# rung fails if an `x` / `x_with` pair, a second cell loop or a second list
# comes back (same `// dup-ok: <reason>` escape as above).
EXPERIMENTS=crates/testbed/src/experiments.rs
REPRO=crates/bench/src/bin/repro.rs
expect_count 1 "run_cells( call sites in $EXPERIMENTS (Exp::sweep is the one)" 'run_cells\(' "$EXPERIMENTS"
expect_count 0 "pub fn *_with / *_faulted / *_impl entry points in $EXPERIMENTS" \
    'pub fn [a-z0-9_]*_(with|faulted|impl)\(' "$EXPERIMENTS"
expect_count 0 "SELECTORS lists in $REPRO (the registry is the list)" 'SELECTORS' "$REPRO"
expect_count 0 "direct experiment calls in $REPRO (it goes through ALL)" \
    'experiments::[a-z0-9_]+\(' "$REPRO"
echo "one of each; non-test lines in experiments.rs + ablations.rs + repro.rs + benches/figures.rs: $(nontest \
    "$EXPERIMENTS" crates/testbed/src/ablations.rs "$REPRO" crates/bench/benches/figures.rs \
    | wc -l) (2269, with crates/bench/src/lib.rs, before the evaluation was described once)"

echo "== per request, not per entry (in-place name lookup, one landing, a sink-fed tracker) =="
# DESIGN.md §9.1: a request's heap allocations do not grow with the
# directory entries its lookup walks past, the frames it receives or the
# 4 KiB blocks of body the stream tracker follows (tests/alloc_budget.rs
# pins the counts). The rung fails if the three sites that did grow come
# back: a name lookup that builds a `DirEntry` per slot, a delivery that
# heap-copies the sender's headers, a tracker `feed` that returns a list
# (same `// dup-ok: <reason>` escape as above).
fn_body() { # fn_body NAME FILE: the first `fn NAME` of FILE, signature to closing brace
    awk -v name="$1" '
        !on && $0 ~ "fn " name "[(<]" { on = 1 }
        on {
            print
            if (/\{/) opened = 1
            depth += gsub(/\{/, "{") - gsub(/\}/, "}")
            if (opened && depth == 0) exit
        }' "$2"
}
for SITE in find_in_block:crates/simfs/src/dir.rs free_slot:crates/simfs/src/dir.rs \
    dir_find:crates/simfs/src/fs.rs; do
    BODY="$(fn_body "${SITE%%:*}" "${SITE#*:}")"
    test -n "$BODY"
    BUILT="$(grep -E 'decode_entry\(|DirEntry \{' <<<"$BODY" \
        | grep -vc 'dup-ok:[[:space:]]*[^[:space:]]' || true)"
    if [[ "$BUILT" != 0 ]]; then
        echo "fn ${SITE%%:*} in ${SITE#*:} builds a DirEntry for the slots it walks past" >&2
        exit 1
    fi
done
expect_count 0 "heap copies of a sent header in crates/servers/src/stack.rs (NetBuf::land is the one landing)" \
    'header\(\)(\[[^]]*\])?\.to_vec\(\)|Segment::from_vec\(' crates/servers/src/stack.rs
expect_count 0 "fn feed* returning a Vec in crates/core/src/tracker.rs (it reports through a sink)" \
    'fn feed[a-z_]*\(.*-> *Vec<' crates/core/src/tracker.rs
expect_count 1 "HttpTxTracker::new() call sites in crates/servers/src (one per connection, the host's)" \
    'HttpTxTracker::new\(\)' crates/servers/src/*.rs
echo "no per-entry DirEntry, no heap-copied header, no list-returning feed, one tracker"

echo "== placeholders are keys (a cached placeholder costs its stamp, a chunk its block) =="
# DESIGN.md §9.1: a key-stamped placeholder stores its 29-byte stamp and
# nothing else (BufPool::placeholder on a stamp_only pool; the rest of the
# block reads as zeros nobody stores), and its stamp is read with
# Segment::stamp, whatever the block stores. The rung fails if non-test
# code builds a placeholder on a 4 KiB slab again — a stamp written
# through seg_written — or, outside crates/netbuf, decodes a stamp off
# `as_slice()`, which panics on a key-only block (same `// dup-ok:
# <reason>` escape as above). Then it runs the memory-honesty tests.
expect_count 0 "placeholders built on a slab (seg_written(.., |w| w.put(&stamp.encode())))" \
    'seg_written\(.*encode\(\)' $(find crates/*/src src -name '*.rs' | sort)
expect_count 0 "KeyStamp::decode(<seg>.as_slice()) outside crates/netbuf (Segment::stamp reads it)" \
    'KeyStamp::decode\([^)]*as_slice\(\)' $(find crates/*/src src -name '*.rs' | grep -v '^crates/netbuf/' | sort)
cargo test -q --offline --test memory_honesty
cargo test -q --offline -p netbuf -- stamp partial zeroed multi_block
echo "no placeholder on a slab, no stamp decoded off as_slice, memory-honesty tests green"

echo "== one event queue (a slab of chains on a heap, the open-loop schedule read by a cursor) =="
# DESIGN.md §5, §14: the walker keeps its chains in a slab whose slots
# keep their stage vectors and wakes them off one binary heap keyed
# (at, lane, order); the open-loop schedule never enters that heap, so it
# holds only live chains. The rung fails if the ordered map of boxed
# chains comes back, or if schedule_arrivals queues its arrivals through
# spawn (every arrival would then sit in the heap for the whole run, the
# shape in which a heap once lost to the tree). The event order itself is
# pinned by tests/trace_digests.rs (same `// dup-ok: <reason>` escape as
# above).
ENGINE=crates/testbed/src/engine.rs
expect_count 0 "non-test mentions of BTreeMap in $ENGINE" 'BTreeMap' "$ENGINE"
expect_count 0 "non-test mentions of Box<Chain> in $ENGINE" 'Box<Chain>' "$ENGINE"
ARRIVALS="$(fn_body schedule_arrivals "$ENGINE")"
test -n "$ARRIVALS"
if grep -q 'spawn(' <<<"$ARRIVALS"; then
    echo "fn schedule_arrivals in $ENGINE queues arrivals through spawn" >&2
    exit 1
fi
echo "one heap of live chains, arrivals by cursor; non-test lines in $ENGINE: $(nontest \
    "$ENGINE" | wc -l) (721 with the ordered map of boxed chains)"

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
# selector at --threads 1 --shards 1 (the reference, kept as
# $TRACE_DIR/LABEL.txt and required to have printed something, so a
# selector that ran nothing cannot pass) and at every other cell of
# threads {1,$NT} x shards {1,8}; each must reproduce the reference's
# stdout byte for byte. Selectors that ignore --shards just run twice more:
# repro rejects a flag no chosen experiment honours, but --threads and
# --shards are exempt from that check, because every experiment's output
# is invariant in them and ignoring one is therefore unobservable.
diff_matrix() {
    local label="$1" t s
    shift
    repro "$@" --threads 1 --shards 1 2>/dev/null > "$TRACE_DIR/$label.txt"
    test -s "$TRACE_DIR/$label.txt"
    for t in 1 "$NT"; do
        for s in 1 8; do
            if [[ "$t" == 1 && "$s" == 1 ]]; then continue; fi
            repro "$@" --threads "$t" --shards "$s" 2>/dev/null > "$TRACE_DIR/${label}_cell.txt"
            cmp "$TRACE_DIR/$label.txt" "$TRACE_DIR/${label}_cell.txt"
        done
    done
}

echo "== observability smoke (repro --table2 --metrics --trace) =="
repro --table2 --metrics --trace "$TRACE_DIR/table2.json" > "$TRACE_DIR/stdout.txt"
grep -q "Unified metrics summary" "$TRACE_DIR/stdout.txt"
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
# The differential oracle suite's faulted half: per-lane seed-derived
# fault plans must reproduce exactly across thread counts.
cargo test -q --release --offline --test concurrent_oracle
# The timing engine's event order (rejections, backoffs and same-instant
# ties included) against the digests recorded in tests/golden.
cargo test -q --release --offline --test trace_digests

echo "== shard determinism (repro --clients-sweep, shards x threads) =="
# Sharding the cache and threading the executor must both be
# unobservable: the client-scaling tables are byte-identical across
# shard counts 1 vs 8 and thread counts 1 vs N.
diff_matrix clients --clients-sweep
echo "clients sweep identical at shards {1,8} and threads {1,$NT}"

echo "== overload observatory (repro --overload-sweep --latency-report) =="
# The open-loop sweep and its latency-attribution report are read off
# merged recorder histograms whose shard absorb is exact, so stdout —
# goodput, tail quantiles, stage shares AND the rendered report — must
# be byte-identical across thread and shard counts.
diff_matrix overload --overload-sweep --latency-report
grep -q "Latency attribution report" "$TRACE_DIR/overload.txt"
grep -q "bottleneck" "$TRACE_DIR/overload.txt"
echo "overload sweep + latency report identical at threads {1,$NT} and shards {1,8}"

echo "== overload control plane (repro --overload-sweep --protected) =="
# The protected-vs-unprotected ablation runs both variants off identical
# offered schedules; admission decisions, retry backoffs, and shedding
# are all seed-derived, so its stdout must also be byte-identical across
# thread and shard counts.
diff_matrix ablation --overload-sweep --protected
echo "overload ablation identical at threads {1,$NT} and shards {1,8}"
# The robustness gate: at 2x capacity the protected server must deliver
# at least the unprotected goodput at every request size (the control
# plane's reason to exist — in practice it holds a multiple; see
# EXPERIMENTS.md). Columns are `<variant>-<size>`; a size missing from
# the table fails the gate like a protected column that trails.
awk -v sizes="16K 4K" '/^# Overload ablation: delivered/ { t = 1; next }
t && !hdr { for (i = 2; i <= NF; i++) col[$i] = i; hdr = 1; next }
t && $1 == "2.0" {
    found = 1
    n = split(sizes, want, " ")
    for (k = 1; k <= n; k++) {
        u = col["unprotected-" want[k]]; p = col["protected-" want[k]]
        if (!u || !p) { printf "no %s columns in the goodput table\n", want[k] > "/dev/stderr"; exit 2 }
        printf "goodput at 2.0x, %s: unprotected %s vs protected %s MB/s\n", want[k], $u, $p
        if (!($p >= $u)) bad = 1
    }
    exit bad
}
END { if (!found) { print "no 2.0x goodput row found" > "/dev/stderr"; exit 2 } }' \
    "$TRACE_DIR/ablation.txt"
echo "protected goodput at 2x capacity >= unprotected at every request size"

echo "== adaptive cache split (repro --adaptive-sweep) =="
# Static (frozen controller) vs adaptive split over the phase-changing
# Zipf workload on the tiered backend. Controller ticks are epoch-
# aligned to op rounds and ghost stamps are schedule-invariant, so the
# sweep's stdout must be byte-identical across thread and shard counts.
diff_matrix adaptive --adaptive-sweep
echo "adaptive sweep identical at threads {1,$NT} and shards {1,8}"
# The adaptation gate: on every post-phase-shift segment (4-6) the
# adaptive split must deliver at least the static split's goodput (the
# windowed ghost signal's reason to exist; see EXPERIMENTS.md).
awk '/^# Adaptive split ablation: delivered/ { t = 1; next }
/^#/ { t = 0 }
t && $1 + 0 >= 4 {
    rows += 1
    printf "goodput at segment %s: static %s vs adaptive %s MB/s\n", $1, $2, $3
    if ($3 + 0 < $2 + 0) bad = 1
}
END {
    if (rows < 3) { print "missing post-shift goodput rows" > "/dev/stderr"; exit 2 }
    exit bad
}' "$TRACE_DIR/adaptive.txt"
echo "adaptive goodput >= static on every post-shift segment"

echo "== concurrent data plane (parallel vs sequential, identical stdout, clean and under loss) =="
# The lane-parallel engine runs each cell's sessions on real threads
# over the sharded cache; its stdout must be byte-identical to the
# sequential oracle on the same warmed workload, across the full
# threads {1,2,N} x shards {1,8} matrix — on a clean link and under
# loss, where every session's link draws from a plan derived from the
# rig's seed and the session index, whichever engine runs it. Wall-clock
# per run goes to stderr only, so stdout stays diff-stable.
lanes_run() { # lanes_run OUT THREADS SHARDS [extra args...]
    local out="$1" t="$2" s="$3"; shift 3
    local t0 t1
    t0="$(date +%s%N)"
    repro --clients-sweep --parallel-lanes --threads "$t" --shards "$s" "$@" \
        2>/dev/null > "$out"
    t1="$(date +%s%N)"
    echo "parallel lanes threads=$t shards=$s $*: $(( (t1 - t0) / 1000000 )) ms" >&2
}
for FAULTS in "" "--faults loss=0.02 --seed 7"; do
    TAG="${FAULTS:+_loss}"
    # shellcheck disable=SC2086 # FAULTS is a list of words
    repro --clients-sweep --lane-oracle $FAULTS 2>/dev/null > "$TRACE_DIR/lanes_oracle$TAG.txt"
    test -s "$TRACE_DIR/lanes_oracle$TAG.txt"
    for S in 1 8; do
        for T in 1 2 "$NT"; do
            # shellcheck disable=SC2086
            lanes_run "$TRACE_DIR/lanes${TAG}_t${T}_s${S}.txt" "$T" "$S" $FAULTS
            cmp "$TRACE_DIR/lanes_oracle$TAG.txt" "$TRACE_DIR/lanes${TAG}_t${T}_s${S}.txt"
        done
    done
    echo "parallel lanes identical to the sequential oracle at threads {1,2,$NT} x shards {1,8}${FAULTS:+ ($FAULTS)}"
done

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

if [[ "${BENCH:-0}" != "0" ]]; then
    echo "== bench =="
    BENCH_SAMPLES="${BENCH_SAMPLES:-10}" cargo bench --offline -p ncache-bench
fi

echo "CI OK"

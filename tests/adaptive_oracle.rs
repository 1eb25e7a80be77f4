//! The adaptive cache split against its differential oracles.
//!
//! Four batteries prove the ghost-LRU controller correct without ever
//! trusting its own bookkeeping:
//!
//! - **Frozen is unobservable.** A rig with a `dynamic: false`
//!   [`SplitConfig`] installed must be byte-for-byte
//!   identical to a rig with no controller at all — on a warm
//!   no-eviction workload *and* on a cold eviction-heavy one where the
//!   ghost tails actively record and probe. This also pins the parallel
//!   engine's round-synchronized path (taken whenever a controller is
//!   installed) to the free-running path it replaces.
//! - **Quiescent dynamic reconciles with the sequential oracle.** A
//!   live controller on a warmed workload ticks on every epoch boundary
//!   but sees zero ghost signal, so it must never resize — and the
//!   parallel engine must reproduce the sequential engine exactly at
//!   every thread count, shard count, and under link loss (where the
//!   inline single-threaded parallel run is the reference, as in
//!   `concurrent_oracle`).
//! - **Resizing runs are self-consistent.** A cold cyclic scan with
//!   per-lane disjoint regions drives real ghost hits and real quota
//!   moves. Tick placement in op-rounds is engine-specific (the
//!   sequential engine's round rule can fire a boundary while a fast
//!   session is already past it; the parallel engine barriers), so each
//!   engine is compared against itself: parallel across thread counts,
//!   sequential across shard counts — byte-exact, resizes included.
//! - **The windowed signal tracks phase shifts.** At rig level, a
//!   workload phase change must show up in the controller's per-epoch
//!   window within two epochs, even while the cumulative hit ratio
//!   still remembers the old phase.

use ncache_repro::ncache::adaptive::QUOTA_BLOCK;
use ncache_repro::ncache::SplitConfig;
use ncache_repro::servers::ServerMode;
use ncache_repro::sim::FaultSpec;
use ncache_repro::testbed::executor;
use ncache_repro::testbed::nfs_rig::{NfsRig, NfsRigParams};
use ncache_repro::testbed::runner::DriverOp;
use ncache_repro::testbed::sessions::{
    run_nfs_sessions, run_nfs_sessions_parallel, SessionsOptions, SessionsResult,
};

const SPAN: u32 = 16 << 10;
const SEED: u64 = 0xADA7;

// --- warm workload: ample caches, nothing evicts mid-run ---------------

const WARM_FILE: u64 = 1 << 20;
const WARM_LANES: usize = 6;

/// A dynamic controller that ticks every other op-round; on the warm
/// workload both ghosts stay silent, so every tick is a pure read.
fn warm_config() -> SplitConfig {
    SplitConfig {
        epoch_ops: 2,
        ..SplitConfig::adaptive()
    }
}

fn warm_build(mode: ServerMode, shards: usize, spec: Option<&FaultSpec>) -> (NfsRig, u64) {
    let params = NfsRigParams {
        shards,
        ..NfsRigParams::default()
    };
    let mut rig = match spec {
        Some(spec) => NfsRig::new_faulted(mode, params, spec, 0xC0FFEE),
        None => NfsRig::new(mode, params),
    };
    let fh = rig.create_file("oracle", WARM_FILE);
    let mut off = 0u64;
    while off < WARM_FILE {
        rig.read(fh, off as u32, 64 << 10);
        off += 64 << 10;
    }
    (rig, fh)
}

/// Reads in the read-only upper half, one write to a private block run,
/// a getattr — the commutativity discipline from `concurrent_oracle`.
fn warm_sessions(fh: u64) -> Vec<Vec<DriverOp>> {
    (0..WARM_LANES)
        .map(|lane| {
            let mut ops = Vec::new();
            for k in 0..4 {
                let slot = ((lane * 7 + k * 3) % 28) as u32;
                ops.push(DriverOp::Read {
                    fh,
                    offset: (WARM_FILE / 2) as u32 + slot * SPAN,
                    len: SPAN,
                });
            }
            ops.push(DriverOp::Write {
                fh,
                offset: lane as u32 * (2 * SPAN),
                len: SPAN,
            });
            ops.push(DriverOp::Getattr { fh });
            ops
        })
        .collect()
}

fn warm_readback(fh: u64) -> Vec<(u64, u32)> {
    let mut spans = Vec::new();
    for lane in 0..WARM_LANES as u32 {
        spans.push((fh, lane * (2 * SPAN)));
    }
    for slot in 0..4u32 {
        spans.push((fh, (WARM_FILE / 2) as u32 + slot * SPAN));
    }
    spans
}

// --- cold workload: cyclic scan over per-lane disjoint regions ---------

const COLD_LANES: usize = 4;
/// Spans per lane region; the re-read gap (one full cycle) dwarfs the
/// eviction lag at every capacity the controller can reach, so each
/// read misses and each ghost probe hits deterministically, independent
/// of how concurrent lanes interleave within a round.
const COLD_SPANS: u32 = 32;
/// Two full cycles: cycle one populates the ghosts, cycle two hits them.
const COLD_OPS: usize = 64;
const COLD_FILE: u64 = (COLD_LANES as u64) * (COLD_SPANS as u64) * SPAN as u64;

/// A small NCache pool under an oversized FS cache, a large ghost (no
/// displacement over the whole run), a low threshold. Every FS-block
/// miss pairs with an NCache-chunk miss on this rig, so the signal
/// asymmetry is structural instead: the FS cache holds the whole file
/// and never evicts (its ghost stays silent) while the NCache churns,
/// and cycle two's NCache ghost hits move quota toward the NCache
/// every epoch.
fn cold_config() -> SplitConfig {
    SplitConfig {
        dynamic: true,
        epoch_ops: 8,
        step_blocks: 16,
        hysteresis: 1,
        cooldown_epochs: 1,
        min_fs_blocks: 16,
        min_ncache_bytes: 16 * QUOTA_BLOCK,
        ghost_blocks: 4096,
    }
}

fn cold_build(shards: usize, cfg: Option<SplitConfig>) -> (NfsRig, u64) {
    let params = NfsRigParams {
        // Holds the whole scan (512 file blocks) even after donating
        // quota, so the FS cache never evicts mid-run: insert-overflow
        // evictions inside a round would make hit/miss and writeback
        // attribution schedule-dependent.
        fs_cache_blocks: 1024,
        ncache_bytes: 256 << 10,
        // No prefetch: a block's residency must depend only on its own
        // stamped insertions and evictions, never on a neighbour's.
        read_ahead_blocks: 0,
        shards,
        ..NfsRigParams::default()
    };
    let mut rig = NfsRig::new(ServerMode::NCache, params);
    // Sparse: blocks stay clean (no writeback IO, no dirty evictions)
    // and nothing pre-populates the NCache's LBN half.
    let fh = rig.create_sparse_file("cold", COLD_FILE);
    // Map the last block: the file's inode and indirect block become
    // resident without touching any data. Otherwise the first lane to
    // take the core lock pays those metadata fetches, and which lane
    // that is belongs to the host schedule.
    rig.expected_sparse(fh, COLD_FILE - 4096, 4096);
    if let Some(cfg) = cfg {
        rig.enable_adaptive(cfg);
    }
    (rig, fh)
}

fn cold_sessions(fh: u64) -> Vec<Vec<DriverOp>> {
    (0..COLD_LANES)
        .map(|lane| {
            let base = lane as u32 * COLD_SPANS * SPAN;
            (0..COLD_OPS)
                .map(|k| DriverOp::Read {
                    fh,
                    offset: base + (k as u32 % COLD_SPANS) * SPAN,
                    len: SPAN,
                })
                .collect()
        })
        .collect()
}

fn cold_readback(fh: u64) -> Vec<(u64, u32)> {
    (0..COLD_LANES as u32)
        .map(|lane| (fh, lane * COLD_SPANS * SPAN))
        .collect()
}

// --- observation and reconciliation ------------------------------------

/// Everything the oracle reconciles after a run. A dynamic controller
/// reports its quota, tick, resize, and ghost-hit counters into the
/// metrics report, so `report` equality covers controller state too.
struct Outcome {
    result: SessionsResult,
    report: String,
    cache_chunks: usize,
    cache_bytes: u64,
    file_bytes: Vec<Vec<u8>>,
}

fn observe(mut rig: NfsRig, result: SessionsResult, readback: &[(u64, u32)]) -> Outcome {
    let report = rig.metrics_report().render();
    let (cache_chunks, cache_bytes) = rig.module().map_or((0, 0), |m| {
        let cache = m.borrow().cache_handle();
        (cache.len(), cache.pinned_bytes())
    });
    let file_bytes = readback
        .iter()
        .map(|&(fh, off)| rig.read(fh, off, SPAN))
        .collect();
    Outcome {
        result,
        report,
        cache_chunks,
        cache_bytes,
        file_bytes,
    }
}

fn assert_reconciled(oracle: &Outcome, got: &Outcome, what: &str) {
    assert_eq!(oracle.result, got.result, "{what}: SessionsResult");
    assert_eq!(oracle.report, got.report, "{what}: merged metrics report");
    assert_eq!(oracle.cache_chunks, got.cache_chunks, "{what}: cache chunks");
    assert_eq!(oracle.cache_bytes, got.cache_bytes, "{what}: cache bytes");
    assert_eq!(oracle.file_bytes, got.file_bytes, "{what}: file bytes");
}

/// (ticks, resizes, fs quota in blocks, NCache quota in bytes) — the
/// controller fingerprint compared across self-consistency legs.
fn controller_state(rig: &NfsRig) -> Option<(u64, u64, u64, u64)> {
    rig.adaptive_controller()
        .map(|c| (c.split_stats().ticks, c.split_stats().resizes, c.fs_blocks(), c.split_stats().ncache_bytes))
}

// --- frozen controller: byte-for-byte unobservable ---------------------

#[test]
fn frozen_controller_is_unobservable_sequentially() {
    for shards in [1usize, 8] {
        // Warm leg: no evictions, the ghosts never even record.
        let (rig, fh) = warm_build(ServerMode::NCache, shards, None);
        let (rig, result) = run_nfs_sessions(rig, warm_sessions(fh), &SessionsOptions::default());
        let plain = observe(rig, result, &warm_readback(fh));

        let (mut rig, fh) = warm_build(ServerMode::NCache, shards, None);
        rig.enable_adaptive(SplitConfig { dynamic: false, ..SplitConfig::adaptive() });
        let (rig, result) = run_nfs_sessions(rig, warm_sessions(fh), &SessionsOptions::default());
        assert!(rig.adaptive_controller().is_some());
        let frozen = observe(rig, result, &warm_readback(fh));
        assert_reconciled(&plain, &frozen, &format!("warm/frozen/shards={shards}"));

        // Cold leg: the NCache churns, its ghost tail records every
        // victim and scores every revisit — and none of it may leak
        // into any observable.
        let (rig, fh) = cold_build(shards, None);
        let (rig, result) = run_nfs_sessions(rig, cold_sessions(fh), &SessionsOptions::default());
        let plain = observe(rig, result, &cold_readback(fh));

        let (rig, fh) = cold_build(
            shards,
            Some(SplitConfig {
                dynamic: false,
                ..cold_config()
            }),
        );
        let (rig, result) = run_nfs_sessions(rig, cold_sessions(fh), &SessionsOptions::default());
        let state = controller_state(&rig).expect("frozen controller installed");
        assert_eq!(state.1, 0, "frozen controller must never resize");
        assert!(state.0 > 0, "frozen controller still ticks");
        let frozen = observe(rig, result, &cold_readback(fh));
        assert_reconciled(&plain, &frozen, &format!("cold/frozen/shards={shards}"));
    }
}

#[test]
fn frozen_controller_is_unobservable_in_parallel() {
    // Installing any controller reroutes the parallel engine onto the
    // round-synchronized path; on the race-free warm workload it must
    // reproduce the free-running path byte for byte.
    for shards in [1usize, 8] {
        let (rig, fh) = warm_build(ServerMode::NCache, shards, None);
        let (rig, result) = run_nfs_sessions_parallel(
            rig,
            warm_sessions(fh),
            &SessionsOptions::default(),
            2,
            SEED,
        );
        let plain = observe(rig, result, &warm_readback(fh));

        let (mut rig, fh) = warm_build(ServerMode::NCache, shards, None);
        rig.enable_adaptive(SplitConfig { dynamic: false, ..SplitConfig::adaptive() });
        let (rig, result) = run_nfs_sessions_parallel(
            rig,
            warm_sessions(fh),
            &SessionsOptions::default(),
            2,
            SEED,
        );
        let frozen = observe(rig, result, &warm_readback(fh));
        assert_reconciled(&plain, &frozen, &format!("parallel/frozen/shards={shards}"));
    }
}

// --- quiescent dynamic controller vs the sequential oracle -------------

fn quiescent_grid() -> Vec<(ServerMode, usize)> {
    vec![
        (ServerMode::Original, 1),
        (ServerMode::NCache, 1),
        (ServerMode::NCache, 8),
    ]
}

#[test]
fn quiescent_dynamic_runs_reconcile_against_the_sequential_oracle() {
    let max = executor::thread_count(None).max(3);
    for (mode, shards) in quiescent_grid() {
        let (mut rig, fh) = warm_build(mode, shards, None);
        rig.enable_adaptive(warm_config());
        let (rig, result) = run_nfs_sessions(rig, warm_sessions(fh), &SessionsOptions::default());
        let state = controller_state(&rig).expect("controller installed");
        assert_eq!(state.0, 3, "{mode:?}: six ops at epoch_ops=2 tick thrice");
        assert_eq!(state.1, 0, "{mode:?}: zero ghost signal never resizes");
        let oracle = observe(rig, result, &warm_readback(fh));

        for threads in [1, 2, max] {
            let (mut rig, fh) = warm_build(mode, shards, None);
            rig.enable_adaptive(warm_config());
            let (rig, result) = run_nfs_sessions_parallel(
                rig,
                warm_sessions(fh),
                &SessionsOptions::default(),
                threads,
                SEED,
            );
            assert_eq!(
                controller_state(&rig),
                Some(state),
                "{mode:?}/shards={shards}/threads={threads}: controller fingerprint"
            );
            let got = observe(rig, result, &warm_readback(fh));
            assert_reconciled(
                &oracle,
                &got,
                &format!("{mode:?}/shards={shards}/threads={threads}"),
            );
        }
    }
}

#[test]
fn faulted_dynamic_runs_reconcile_across_thread_counts() {
    // Lane fault plans are seed-derived per lane, so the faulted legs
    // compare the parallel engine against itself; the inline
    // single-threaded run is the reference.
    let spec = FaultSpec {
        loss: 0.02,
        ..FaultSpec::default()
    };
    let max = executor::thread_count(None).max(3);
    for shards in [1usize, 8] {
        let run = |threads: usize| {
            let (mut rig, fh) = warm_build(ServerMode::NCache, shards, Some(&spec));
            rig.enable_adaptive(warm_config());
            let (rig, result) = run_nfs_sessions_parallel(
                rig,
                warm_sessions(fh),
                &SessionsOptions::default(),
                threads,
                SEED,
            );
            let state = controller_state(&rig);
            (observe(rig, result, &warm_readback(fh)), state)
        };
        let (inline, inline_state) = run(1);
        assert_eq!(inline_state.map(|s| s.1), Some(0), "no resizes under loss");
        for threads in [2, max] {
            let (got, state) = run(threads);
            assert_eq!(state, inline_state, "loss/shards={shards}/threads={threads}");
            assert_reconciled(
                &inline,
                &got,
                &format!("loss/shards={shards}/threads={threads}"),
            );
        }
    }
}

// --- cold leg: real resizes, engine self-consistency -------------------

#[test]
fn resizing_parallel_runs_reconcile_across_thread_counts() {
    let max = executor::thread_count(None).max(3);
    for shards in [1usize, 8] {
        let run = |threads: usize| {
            let (rig, fh) = cold_build(shards, Some(cold_config()));
            let (rig, result) = run_nfs_sessions_parallel(
                rig,
                cold_sessions(fh),
                &SessionsOptions::default(),
                threads,
                SEED,
            );
            let state = controller_state(&rig).expect("controller installed");
            (observe(rig, result, &cold_readback(fh)), state)
        };
        let (inline, inline_state) = run(1);
        assert!(
            inline_state.1 > 0,
            "cold scan must drive real resizes, got {inline_state:?}"
        );
        assert!(
            inline_state.2 < 1024 && inline_state.3 > 256 << 10,
            "quota must have moved toward the NCache: {inline_state:?}"
        );
        for threads in [2, max] {
            let (got, state) = run(threads);
            assert_eq!(state, inline_state, "cold/shards={shards}/threads={threads}");
            assert_reconciled(
                &inline,
                &got,
                &format!("cold/shards={shards}/threads={threads}"),
            );
        }
    }
}

#[test]
fn resizing_sequential_runs_are_shard_invariant() {
    let run = |shards: usize| {
        let (rig, fh) = cold_build(shards, Some(cold_config()));
        let (rig, result) = run_nfs_sessions(rig, cold_sessions(fh), &SessionsOptions::default());
        let state = controller_state(&rig).expect("controller installed");
        (observe(rig, result, &cold_readback(fh)), state)
    };
    let (one, one_state) = run(1);
    assert!(one_state.1 > 0, "cold scan must resize: {one_state:?}");
    let (eight, eight_state) = run(8);
    assert_eq!(one_state, eight_state, "controller fingerprint across shards");
    assert_reconciled(&one, &eight, "cold/sequential shards 1 vs 8");
}

// --- the windowed signal tracks a phase shift --------------------------

#[test]
fn phase_shift_registers_in_the_windowed_signal_within_two_epochs() {
    let (mut rig, hot) = warm_build(ServerMode::NCache, 1, None);
    rig.enable_adaptive(SplitConfig {
        epoch_ops: 8,
        ..SplitConfig::adaptive()
    });
    // Phase A: 32 rounds of pure re-reads of the warmed file — every
    // lookup hits the NCache, and the last epoch's window says so.
    let lanes = 4usize;
    let phase_a: Vec<Vec<DriverOp>> = (0..lanes)
        .map(|lane| {
            (0..32u32)
                .map(|k| DriverOp::Read {
                    fh: hot,
                    offset: ((lane as u32 * 8 + k % 8) % 32) * SPAN,
                    len: SPAN,
                })
                .collect()
        })
        .collect();
    let (mut rig, _) = run_nfs_sessions(rig, phase_a, &SessionsOptions::default());
    let window = rig.adaptive_controller().expect("controller").window();
    assert_eq!(
        window.nc_hit_permille(),
        1000,
        "phase A window is all NCache hits: {window:?}"
    );
    assert_eq!(window.nc_misses, 0, "phase A window has no misses");

    // Phase B: sixteen rounds — exactly two epochs — of never-repeated
    // reads from a fresh sparse file (a written file would pre-populate
    // the NCache's LBN half and keep hitting via remap). The
    // *cumulative* NCache hit ratio still remembers phase A, but the
    // window must fill with misses.
    let cold = rig.create_sparse_file("shifted", 1 << 20);
    let phase_b: Vec<Vec<DriverOp>> = (0..lanes)
        .map(|lane| {
            (0..16u32)
                .map(|k| DriverOp::Read {
                    fh: cold,
                    offset: (lane as u32 * 16 + k) * SPAN,
                    len: SPAN,
                })
                .collect()
        })
        .collect();
    let (rig, _) = run_nfs_sessions(rig, phase_b, &SessionsOptions::default());
    let ctl = rig.adaptive_controller().expect("controller");
    let window = ctl.window();
    // Every miss op also scores assembly hits on the chunks it just
    // inserted, so even an all-miss epoch floors near 500‰ rather than
    // zero. The claim under test: the *window* has dropped to that
    // floor — a full epoch of misses deep — while the *cumulative*
    // ratio still sits a phase above it.
    assert!(
        window.nc_hit_permille() <= 600,
        "two epochs after the shift the window has collapsed: {window:?}"
    );
    assert!(
        window.nc_misses >= 64,
        "the window is full of phase-B misses: {window:?}"
    );
    let module = rig.module().expect("NCache build");
    let stats = module.borrow().stats();
    let cumulative = stats.hits * 1000 / stats.lookups;
    assert!(
        cumulative >= window.nc_hit_permille() + 100,
        "the cumulative ratio still remembers phase A: \
         cumulative {cumulative}‰ vs window {:?}",
        window
    );
}

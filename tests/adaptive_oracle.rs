//! The adaptive cache split against its differential oracles.
//!
//! Four batteries prove the ghost-LRU controller correct without ever
//! trusting its own bookkeeping:
//!
//! - **Frozen is unobservable.** A rig with a `dynamic: false`
//!   [`SplitConfig`] installed must be byte-for-byte
//!   identical to a rig with no controller at all — on a warm
//!   no-eviction workload *and* on a cold eviction-heavy one where the
//!   ghost tails actively record and probe.
//! - **Quiescent dynamic reconciles with the controller-free oracle.** A
//!   live controller on a warmed workload ticks on every epoch boundary
//!   but sees zero ghost signal, so it must never resize — and every
//!   observable outside its own counters must equal the run without a
//!   controller, on a clean link and under loss, at 1 and 8 shards.
//! - **Resizing runs are self-consistent.** A cold cyclic scan with
//!   per-session disjoint regions drives real ghost hits and real quota
//!   moves, byte-exact across shard counts, resizes included.
//! - **The windowed signal tracks phase shifts.** At rig level, a
//!   workload phase change must show up in the controller's per-epoch
//!   window of ghost hits within two epochs, even while the cumulative
//!   count still remembers the old phase.

use ncache_repro::servers::ServerMode;
use ncache_repro::sim::FaultSpec;
use ncache_repro::simfs::BLOCK_SIZE;
use ncache_repro::testbed::adaptive::SplitConfig;
use ncache_repro::testbed::nfs_rig::{NfsRig, NfsRigParams};
use ncache_repro::testbed::runner::DriverOp;
use ncache_repro::testbed::sessions::{run_nfs_sessions, SessionsOptions, SessionsResult};

const SPAN: u32 = 16 << 10;

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
/// of how the sessions interleave within a round.
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
        min_ncache_bytes: 16 * BLOCK_SIZE as u64,
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
    // resident without touching any data, so no session's first read
    // pays those metadata fetches.
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

// --- quiescent dynamic controller vs the controller-free oracle --------

fn quiescent_grid() -> Vec<(ServerMode, usize)> {
    vec![
        (ServerMode::Original, 1),
        (ServerMode::NCache, 1),
        (ServerMode::NCache, 8),
    ]
}

/// The warm workload with a quiescent dynamic controller, and without
/// one. The controller's own counters reach the metrics report, so the
/// reports are not compared; every other observable must match.
fn assert_quiescent(mode: ServerMode, shards: usize, spec: Option<&FaultSpec>, what: &str) {
    let (rig, fh) = warm_build(mode, shards, spec);
    let (rig, result) = run_nfs_sessions(rig, warm_sessions(fh), &SessionsOptions::default());
    let plain = observe(rig, result, &warm_readback(fh));

    let (mut rig, fh) = warm_build(mode, shards, spec);
    rig.enable_adaptive(warm_config());
    let (rig, result) = run_nfs_sessions(rig, warm_sessions(fh), &SessionsOptions::default());
    let state = controller_state(&rig).expect("controller installed");
    assert_eq!(state.0, 3, "{what}: six ops at epoch_ops=2 tick thrice");
    assert_eq!(state.1, 0, "{what}: zero ghost signal never resizes");
    let live = observe(rig, result, &warm_readback(fh));
    assert_reconciled(&plain, &Outcome { report: plain.report.clone(), ..live }, what);
}

#[test]
fn quiescent_dynamic_runs_reconcile_against_the_sequential_oracle() {
    for (mode, shards) in quiescent_grid() {
        assert_quiescent(mode, shards, None, &format!("{mode:?}/shards={shards}"));
    }
}

#[test]
fn faulted_dynamic_runs_reconcile_against_the_controller_free_oracle() {
    // Each session's fault plan derives from the rig's seed and the
    // session index, never from the shard count.
    let spec = FaultSpec {
        loss: 0.02,
        ..FaultSpec::default()
    };
    for shards in [1usize, 8] {
        assert_quiescent(ServerMode::NCache, shards, Some(&spec), &format!("loss/shards={shards}"));
    }
}

// --- cold leg: real resizes, shard invariance ---------------------------

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
    // Phase A: the cold cyclic scan. Its second cycle misses every chunk
    // the small NCache evicted in the first, and each miss lands in the
    // NCache's ghost tail; the FS cache holds the whole file and never
    // evicts, so its ghost stays silent.
    let (rig, fh) = cold_build(1, Some(cold_config()));
    let (rig, _) = run_nfs_sessions(rig, cold_sessions(fh), &SessionsOptions::default());
    let ctl = rig.adaptive_controller().expect("controller");
    let window = ctl.window();
    assert!(
        window.nc_ghost_hits > 0,
        "phase A window holds NCache ghost hits: {window:?}"
    );
    assert_eq!(
        window.fs_ghost_hits, 0,
        "the FS cache never evicts: {window:?}"
    );
    let remembered = ctl.split_stats().nc_ghost_hits;

    // Phase B: sixteen rounds — exactly two epochs — of re-reads of the
    // span each lane read last. Every block is resident in both caches,
    // so nothing misses and no ghost is probed: the window must empty
    // while the cumulative count still remembers phase A.
    let phase_b: Vec<Vec<DriverOp>> = (0..COLD_LANES as u32)
        .map(|lane| {
            let last = lane * COLD_SPANS * SPAN + (COLD_SPANS - 1) * SPAN;
            vec![
                DriverOp::Read {
                    fh,
                    offset: last,
                    len: SPAN
                };
                16
            ]
        })
        .collect();
    let (rig, _) = run_nfs_sessions(rig, phase_b, &SessionsOptions::default());
    let ctl = rig.adaptive_controller().expect("controller");
    let window = ctl.window();
    assert_eq!(
        window.nc_ghost_hits + window.fs_ghost_hits,
        0,
        "two epochs after the shift the window is empty"
    );
    assert_eq!(
        ctl.split_stats().nc_ghost_hits,
        remembered,
        "the cumulative count remembers phase A"
    );
    assert!(remembered > 0);
}

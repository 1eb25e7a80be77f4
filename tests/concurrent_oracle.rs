//! The concurrent data plane against its sequential byte-exact oracle.
//!
//! `run_nfs_sessions_parallel` executes session lanes on real threads;
//! the untouched sequential engine `run_nfs_sessions` is the oracle.
//! Under the commutativity discipline (warmed file, reads in a
//! read-only region, writes once to disjoint per-lane blocks, no
//! evictions) every observable must reconcile exactly:
//!
//! - the measured [`SessionsResult`] (throughput, latency, per-session
//!   ops) — the timing phase replays through the sequential engine, so
//!   this is byte-exact, not approximate;
//! - the three CopyLedgers (client / app / storage), total for total;
//! - the merged counters of every component (NFS server, fs cache,
//!   initiator, target, NCache shards), compared via the rendered
//!   [`MetricsReport`];
//! - final file bytes and final cache residency.
//!
//! Faulted points (loss, duplicates, reorders, delays and truncation on
//! the client⇄server link) reconcile against the same oracle: each
//! session's link draws from a plan derived from the rig's seed and the
//! session index, whichever engine runs it, so the recovery counters —
//! retransmits included — are reconciled with everything else.

use ncache_repro::obs::{MetricsReport, Recorder, TraceConfig};
use ncache_repro::servers::ServerMode;
use ncache_repro::sim::FaultSpec;
use ncache_repro::testbed::executor;
use ncache_repro::testbed::nfs_rig::{NfsRig, NfsRigParams};
use ncache_repro::testbed::runner::DriverOp;
use ncache_repro::testbed::sessions::{
    run_nfs_sessions, run_nfs_sessions_parallel, SessionsOptions, SessionsResult,
};

/// Workload file size; ample cache capacity on default rig parameters
/// (8 MiB fs cache, 64 MiB NCache), so nothing evicts mid-run.
const FILE: u64 = 1 << 20;
const SPAN: u32 = 16 << 10;
const LANES: usize = 6;
const SEED: u64 = 0xD1FF;

fn build(mode: ServerMode, shards: usize, spec: Option<&FaultSpec>) -> (NfsRig, u64) {
    let params = NfsRigParams {
        shards,
        ..NfsRigParams::default()
    };
    let mut rig = match spec {
        Some(spec) => NfsRig::new_faulted(mode, params, spec, 0xC0FFEE),
        None => NfsRig::new(mode, params),
    };
    let fh = rig.create_file("oracle", FILE);
    // Warm every block (and NCache chunk): per-op hit/miss outcomes are
    // then independent of which lane touches a block first.
    let mut off = 0u64;
    while off < FILE {
        rig.read(fh, off as u32, 64 << 10);
        off += 64 << 10;
    }
    (rig, fh)
}

/// Per-lane streams: reads confined to the (read-only) upper half of
/// the file, one write into the lane's private block run in the lower
/// half, and a getattr. Any interleaving of different lanes' operations
/// commutes on every counted observable.
fn sessions(fh: u64) -> Vec<Vec<DriverOp>> {
    (0..LANES)
        .map(|lane| {
            let mut ops = Vec::new();
            for k in 0..4 {
                let slot = ((lane * 7 + k * 3) % 28) as u32;
                ops.push(DriverOp::Read {
                    fh,
                    offset: (FILE / 2) as u32 + slot * SPAN,
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

/// Everything the oracle reconciles after a run.
struct Outcome {
    result: SessionsResult,
    report: String,
    cache_chunks: usize,
    cache_bytes: u64,
    file_bytes: Vec<Vec<u8>>,
    /// Retransmissions during the session run alone (the warm-up and the
    /// read-back ride the rig's own link).
    retransmits: u64,
}

/// `warmed` is the rig's retransmit count when the sessions started.
fn observe(mut rig: NfsRig, fh: u64, result: SessionsResult, warmed: u64) -> Outcome {
    let report = rig.metrics_report().render();
    let retransmits = rig.fault_counters().retransmits - warmed;
    let (cache_chunks, cache_bytes) = rig.module().map_or((0, 0), |m| {
        let cache = m.borrow().cache_handle();
        (cache.len(), cache.pinned_bytes())
    });
    // Read-back mutates counters, so it happens after the report; both
    // engines' rigs take the identical read sequence.
    let mut file_bytes = Vec::new();
    for lane in 0..LANES as u32 {
        file_bytes.push(rig.read(fh, lane * (2 * SPAN), SPAN));
    }
    for slot in 0..4u32 {
        file_bytes.push(rig.read(fh, (FILE / 2) as u32 + slot * SPAN, SPAN));
    }
    Outcome {
        result,
        report,
        cache_chunks,
        cache_bytes,
        file_bytes,
        retransmits,
    }
}

fn run_sequential(mode: ServerMode, shards: usize, spec: Option<&FaultSpec>) -> Outcome {
    let (rig, fh) = build(mode, shards, spec);
    let warmed = rig.fault_counters().retransmits;
    let (rig, result) = run_nfs_sessions(rig, sessions(fh), &SessionsOptions::default());
    observe(rig, fh, result, warmed)
}

fn run_parallel(
    mode: ServerMode,
    shards: usize,
    spec: Option<&FaultSpec>,
    threads: usize,
) -> Outcome {
    let (rig, fh) = build(mode, shards, spec);
    let warmed = rig.fault_counters().retransmits;
    let (rig, result) = run_nfs_sessions_parallel(
        rig,
        sessions(fh),
        &SessionsOptions::default(),
        threads,
        SEED,
    );
    observe(rig, fh, result, warmed)
}

fn assert_reconciled(oracle: &Outcome, got: &Outcome, what: &str) {
    assert_eq!(oracle.result, got.result, "{what}: SessionsResult");
    assert_eq!(oracle.report, got.report, "{what}: merged metrics report");
    assert_eq!(oracle.cache_chunks, got.cache_chunks, "{what}: cache chunks");
    assert_eq!(oracle.cache_bytes, got.cache_bytes, "{what}: cache bytes");
    assert_eq!(oracle.file_bytes, got.file_bytes, "{what}: file bytes");
    assert_eq!(oracle.retransmits, got.retransmits, "{what}: retransmits");
}

/// Mode × shard grid; sharding only exists for NCache.
fn grid() -> Vec<(ServerMode, usize)> {
    vec![
        (ServerMode::Original, 1),
        (ServerMode::Baseline, 1),
        (ServerMode::NCache, 1),
        (ServerMode::NCache, 8),
    ]
}

#[test]
fn clean_runs_reconcile_against_the_sequential_oracle() {
    let max = executor::thread_count(None).max(3);
    for (mode, shards) in grid() {
        let oracle = run_sequential(mode, shards, None);
        for threads in [1, 2, max] {
            let got = run_parallel(mode, shards, None, threads);
            assert_reconciled(
                &oracle,
                &got,
                &format!("{mode:?}/shards={shards}/threads={threads}"),
            );
        }
    }
}

#[test]
fn latency_reports_reconcile_against_the_sequential_oracle() {
    // Per-request stage attribution rides the timing phase, which the
    // parallel engine replays through the sequential core — so the
    // rendered latency report (tail quantiles per path, queue/service
    // per stage, the named bottleneck) must be byte-equal to the
    // oracle's at every thread count.
    let render = |rec: &Recorder| {
        let mut report = MetricsReport::new();
        report.add_latency(&rec.histograms());
        report.render()
    };
    let max = executor::thread_count(None).max(3);
    for (mode, shards) in grid() {
        let (mut rig, fh) = build(mode, shards, None);
        let rec = Recorder::new();
        rec.enable(TraceConfig::default());
        rig.set_recorder(rec.clone());
        let _ = run_nfs_sessions(rig, sessions(fh), &SessionsOptions::default());
        let oracle = render(&rec);
        assert!(
            oracle.contains("bottleneck"),
            "{mode:?}: oracle report names a bottleneck:\n{oracle}"
        );
        for threads in [1, 2, max] {
            let (mut rig, fh) = build(mode, shards, None);
            let rec = Recorder::new();
            rec.enable(TraceConfig::default());
            rig.set_recorder(rec.clone());
            let _ = run_nfs_sessions_parallel(
                rig,
                sessions(fh),
                &SessionsOptions::default(),
                threads,
                SEED,
            );
            assert_eq!(
                oracle,
                render(&rec),
                "{mode:?}/shards={shards}/threads={threads}: latency report"
            );
        }
    }
}

#[test]
fn faulted_runs_reconcile_against_the_sequential_oracle() {
    let max = executor::thread_count(None).max(3);
    // Summed over every run: every grid point draws the same per-session
    // plans (one rig seed), and at loss=0.02 they drop nothing here.
    let mut retransmits = 0;
    for spec in [
        "loss=0.02",
        "loss=0.05,duplicate=0.05,reorder=0.05,delay=0.05",
        "loss=0.05,truncate=0.02",
    ] {
        let faults = FaultSpec::parse(spec).expect("spec");
        for (mode, shards) in grid() {
            let oracle = run_sequential(mode, shards, Some(&faults));
            retransmits += oracle.retransmits;
            for threads in [1, 2, max] {
                let got = run_parallel(mode, shards, Some(&faults), threads);
                assert_reconciled(
                    &oracle,
                    &got,
                    &format!("{mode:?}/shards={shards}/{spec}/threads={threads}"),
                );
            }
        }
    }
    assert!(retransmits > 0, "the sessions' links recovered nothing");
}

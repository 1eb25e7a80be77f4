//! The concurrent data plane against its sequential byte-exact oracle.
//!
//! `run_nfs_sessions_parallel_timed` executes session lanes on real threads;
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
//! Each point runs at two lane counts: six, and 64 — above the
//! `sim::sync::LANE_SLOTS` counter stripes, with ten times the sessions
//! sharing each stripe.
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
    run_nfs_sessions, run_nfs_sessions_parallel_timed, SessionsOptions, SessionsResult,
};

const SPAN: u32 = 16 << 10;
/// The lane counts every grid point runs at.
const LANES: [usize; 2] = [6, 64];
const SEED: u64 = 0xD1FF;

/// Workload file size: a lower half holding every lane's private block
/// run, at least 512 KiB, and an equal read-only upper half. Ample cache
/// capacity on default rig parameters (8 MiB fs cache, 64 MiB NCache), so
/// nothing evicts mid-run.
fn file_size(lanes: usize) -> u64 {
    2 * (lanes as u64 * 2 * u64::from(SPAN)).max(512 << 10)
}

fn build(mode: ServerMode, shards: usize, spec: Option<&FaultSpec>, file: u64) -> (NfsRig, u64) {
    let params = NfsRigParams {
        shards,
        ..NfsRigParams::default()
    };
    let mut rig = match spec {
        Some(spec) => NfsRig::new_faulted(mode, params, spec, 0xC0FFEE),
        None => NfsRig::new(mode, params),
    };
    let fh = rig.create_file("oracle", file);
    // Warm every block (and NCache chunk): per-op hit/miss outcomes are
    // then independent of which lane touches a block first.
    let mut off = 0u64;
    while off < file {
        rig.read(fh, off as u32, 64 << 10);
        off += 64 << 10;
    }
    (rig, fh)
}

/// Per-lane streams: reads confined to the (read-only) upper half of
/// the file, one write into the lane's private block run in the lower
/// half, and a getattr. Any interleaving of different lanes' operations
/// commutes on every counted observable. The writes together dirty at
/// most 128 blocks, half the server's write-behind threshold: the flush
/// lands on whichever op crosses it, and which op that is belongs to the
/// schedule.
fn sessions(fh: u64, lanes: usize) -> Vec<Vec<DriverOp>> {
    let upper = (file_size(lanes) / 2) as u32;
    let write = SPAN.min(4096 * (128 / lanes) as u32);
    (0..lanes)
        .map(|lane| {
            let mut ops = Vec::new();
            for k in 0..4 {
                let slot = ((lane * 7 + k * 3) % 28) as u32;
                ops.push(DriverOp::Read {
                    fh,
                    offset: upper + slot * SPAN,
                    len: SPAN,
                });
            }
            ops.push(DriverOp::Write {
                fh,
                offset: lane as u32 * (2 * SPAN),
                len: write,
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
fn observe(mut rig: NfsRig, fh: u64, lanes: usize, result: SessionsResult, warmed: u64) -> Outcome {
    let report = rig.metrics_report().render();
    let retransmits = rig.fault_counters().retransmits - warmed;
    let (cache_chunks, cache_bytes) = rig.module().map_or((0, 0), |m| {
        let cache = m.borrow().cache_handle();
        (cache.len(), cache.pinned_bytes())
    });
    // Read-back mutates counters, so it happens after the report; both
    // engines' rigs take the identical read sequence.
    let mut file_bytes = Vec::new();
    for lane in 0..lanes as u32 {
        file_bytes.push(rig.read(fh, lane * (2 * SPAN), SPAN));
    }
    let upper = (file_size(lanes) / 2) as u32;
    for slot in 0..4u32 {
        file_bytes.push(rig.read(fh, upper + slot * SPAN, SPAN));
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

fn run_sequential(
    mode: ServerMode,
    shards: usize,
    spec: Option<&FaultSpec>,
    lanes: usize,
) -> Outcome {
    let (rig, fh) = build(mode, shards, spec, file_size(lanes));
    let warmed = rig.fault_counters().retransmits;
    let (rig, result) = run_nfs_sessions(rig, sessions(fh, lanes), &SessionsOptions::default());
    observe(rig, fh, lanes, result, warmed)
}

fn run_parallel(
    mode: ServerMode,
    shards: usize,
    spec: Option<&FaultSpec>,
    lanes: usize,
    threads: usize,
) -> Outcome {
    let (rig, fh) = build(mode, shards, spec, file_size(lanes));
    let warmed = rig.fault_counters().retransmits;
    let (rig, result, _) = run_nfs_sessions_parallel_timed(
        rig,
        sessions(fh, lanes),
        &SessionsOptions::default(),
        threads,
        SEED,
    );
    observe(rig, fh, lanes, result, warmed)
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
        for lanes in LANES {
            let oracle = run_sequential(mode, shards, None, lanes);
            for threads in [1, 2, max] {
                let got = run_parallel(mode, shards, None, lanes, threads);
                assert_reconciled(
                    &oracle,
                    &got,
                    &format!("{mode:?}/shards={shards}/lanes={lanes}/threads={threads}"),
                );
            }
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
        let (mut rig, fh) = build(mode, shards, None, file_size(LANES[0]));
        let rec = Recorder::new();
        rec.enable(TraceConfig::default());
        rig.set_recorder(rec.clone());
        let _ = run_nfs_sessions(rig, sessions(fh, LANES[0]), &SessionsOptions::default());
        let oracle = render(&rec);
        assert!(
            oracle.contains("bottleneck"),
            "{mode:?}: oracle report names a bottleneck:\n{oracle}"
        );
        for threads in [1, 2, max] {
            let (mut rig, fh) = build(mode, shards, None, file_size(LANES[0]));
            let rec = Recorder::new();
            rec.enable(TraceConfig::default());
            rig.set_recorder(rec.clone());
            let _ = run_nfs_sessions_parallel_timed(
                rig,
                sessions(fh, LANES[0]),
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
            for lanes in LANES {
                let oracle = run_sequential(mode, shards, Some(&faults), lanes);
                retransmits += oracle.retransmits;
                for threads in [1, 2, max] {
                    let got = run_parallel(mode, shards, Some(&faults), lanes, threads);
                    assert_reconciled(
                        &oracle,
                        &got,
                        &format!("{mode:?}/shards={shards}/lanes={lanes}/{spec}/threads={threads}"),
                    );
                }
            }
        }
    }
    assert!(retransmits > 0, "the sessions' links recovered nothing");
}

//! Timing contracts of the tiered backend, end to end.
//!
//! The tier is a timing-only concern: placement, promotion, and faults
//! never change a byte of any reply. What they must change — and
//! exactly how — is the clock:
//!
//! - a scan whose extents get promoted finishes strictly sooner on the
//!   NVMe-fronted backend than on the flat array, in integer
//!   nanoseconds;
//! - the promotion copy appears as its own `tier-promote` stage and the
//!   per-request stage breakdown still telescopes exactly to the
//!   end-to-end latency (the sessions engine runs every tiered
//!   experiment; the closed-loop runner is always on the flat array);
//! - a transient fast-tier fault falls back to the slow array for that
//!   read only: counted (`fault.tier_fallback`), charged (never
//!   cheaper), and leaving the placement map untouched.

use ncache_repro::blockdev::TierConfig;
use ncache_repro::obs::{EventKind, Recorder, TraceConfig};
use ncache_repro::servers::ServerMode;
use ncache_repro::testbed::nfs_rig::{NfsRig, NfsRigParams};
use ncache_repro::testbed::runner::DriverOp;
use ncache_repro::testbed::sessions::{run_nfs_sessions, SessionsOptions, SessionsResult};

const SPAN: u32 = 16 << 10;
const SPANS: u32 = 64;
const FILE: u64 = SPANS as u64 * SPAN as u64; // 1 MiB, 256 blocks
const CYCLES: u32 = 4;

/// A rig whose buffer cache is far smaller than the scanned region, so
/// every pass goes back to the backend; sparse file, so every block is
/// clean and the backend sees pure reads.
fn scan_rig() -> (NfsRig, u64) {
    let params = NfsRigParams {
        fs_cache_blocks: 16,
        read_ahead_blocks: 0,
        ..NfsRigParams::default()
    };
    let mut rig = NfsRig::new(ServerMode::Original, params);
    let fh = rig.create_sparse_file("scan", FILE);
    (rig, fh)
}

/// Four passes over the region: passes one and two read from the slow
/// array (the second triggers promotion at `TierConfig::PROMOTE_AFTER`
/// = 2), passes three and four read from the fast tier.
fn scan_ops(fh: u64) -> Vec<DriverOp> {
    (0..CYCLES * SPANS)
        .map(|k| DriverOp::Read {
            fh,
            offset: (k % SPANS) * SPAN,
            len: SPAN,
        })
        .collect()
}

/// The scan split round-robin across four closed-loop sessions.
fn sessions(fh: u64) -> Vec<Vec<DriverOp>> {
    let mut sessions: Vec<Vec<DriverOp>> = vec![Vec::new(); 4];
    for (i, op) in scan_ops(fh).into_iter().enumerate() {
        sessions[i % 4].push(op);
    }
    sessions
}

/// The scan on `rig` over `tier` (`None`: the flat array).
fn scan_on(rig: NfsRig, fh: u64, tier: Option<TierConfig>) -> SessionsResult {
    run_nfs_sessions(rig, sessions(fh), &SessionsOptions { tier }).1
}

fn scan(tier: Option<TierConfig>) -> SessionsResult {
    let (rig, fh) = scan_rig();
    scan_on(rig, fh, tier)
}

#[test]
fn promoted_scan_is_strictly_cheaper_than_the_flat_array() {
    let flat = scan(None);
    let tiered = scan(Some(TierConfig::nvme_front(1024)));
    assert_eq!(flat.tier, None, "flat run reports no tier");
    let stats = tiered.tier.expect("tiered run reports stats");
    assert!(stats.promotions > 0, "second pass promotes: {stats:?}");
    assert!(stats.fast_reads > 0, "later passes hit the fast tier: {stats:?}");
    assert!(stats.slow_reads > 0, "first passes hit the array: {stats:?}");
    assert_eq!(stats.fault_fallbacks, 0, "no faults configured");
    // Timing-only: the functional outcome is untouched.
    assert_eq!(flat.ops, tiered.ops);
    assert_eq!(flat.payload_bytes, tiered.payload_bytes);
    // The whole point, in integer nanoseconds.
    assert!(
        tiered.elapsed < flat.elapsed,
        "fast tier must be strictly cheaper: {:?} vs {:?}",
        tiered.elapsed,
        flat.elapsed
    );
}

/// Walks every Request event: exact telescoping, and at least one
/// request carrying the promotion copy as its own stage.
fn assert_stages_telescope(rec: &Recorder) -> u64 {
    let mut requests = 0u64;
    let mut promoted = 0u64;
    for ev in rec.events() {
        if let EventKind::Request {
            start_ns,
            end_ns,
            stages,
            ..
        } = &ev.kind
        {
            requests += 1;
            let sum: u64 = stages.iter().map(|s| s.queue_ns + s.service_ns).sum();
            assert_eq!(
                sum,
                end_ns - start_ns,
                "stage sum telescopes to end-to-end latency: {stages:?}"
            );
            if stages.iter().any(|s| s.stage == "tier-promote") {
                promoted += 1;
            }
        }
    }
    assert!(requests > 0, "the trace recorded requests");
    promoted
}

#[test]
fn tier_promote_stage_telescopes_in_the_sessions_engine() {
    let (mut rig, fh) = scan_rig();
    let rec = Recorder::new();
    rec.enable(TraceConfig::default());
    rig.set_recorder(rec.clone());
    let r = scan_on(rig, fh, Some(TierConfig::nvme_front(1024)));
    let stats = r.tier.expect("sessions result carries tier stats");
    assert!(stats.promotions > 0, "{stats:?}");
    assert!(stats.fast_reads > 0, "{stats:?}");
    let promoted = assert_stages_telescope(&rec);
    assert!(promoted > 0, "promotion shows up as a tier-promote stage");
    assert_eq!(
        rec.counters().get("tier.promote").copied().unwrap_or(0),
        stats.promotions,
        "counter and backend stats agree"
    );
}

#[test]
fn transient_fast_faults_fall_back_to_the_slow_array() {
    let clean = scan(Some(TierConfig::nvme_front(1024)));
    let faulted = scan(Some(TierConfig::nvme_front(1024).with_faults(0xFA117, 300_000)));
    let clean_stats = clean.tier.expect("tier stats");
    let faulted_stats = faulted.tier.expect("tier stats");
    assert!(
        faulted_stats.fault_fallbacks > 0,
        "a 30% fault rate must trip fallbacks: {faulted_stats:?}"
    );
    // A fault redirects one read; it never evicts. Placement — built
    // from the deterministic miss counts, which faults don't touch —
    // ends identical to the clean run's.
    assert_eq!(
        faulted_stats.fast_resident_blocks, clean_stats.fast_resident_blocks,
        "fallback must not evict"
    );
    assert_eq!(faulted_stats.promotions, clean_stats.promotions);
    // Functionally identical; in time, a fallback is never cheaper.
    assert_eq!(faulted.ops, clean.ops);
    assert_eq!(faulted.payload_bytes, clean.payload_bytes);
    assert!(
        faulted.elapsed >= clean.elapsed,
        "fallbacks pay the slow path: {:?} vs {:?}",
        faulted.elapsed,
        clean.elapsed
    );
    // The fallback counter rides the standard fault.* namespace.
    let (mut rig, fh) = scan_rig();
    let rec = Recorder::new();
    rec.enable(TraceConfig::default());
    rig.set_recorder(rec.clone());
    let tier = TierConfig::nvme_front(1024).with_faults(0xFA117, 300_000);
    let r = scan_on(rig, fh, Some(tier));
    assert_eq!(
        rec.counters().get("fault.tier_fallback").copied().unwrap_or(0),
        r.tier.expect("tier stats").fault_fallbacks,
        "counter and backend stats agree"
    );
}

//! Write-bearing lanes: what holds exactly at any thread count.
//!
//! `tests/concurrent_oracle.rs` runs one write per lane, so it never sees
//! that lanes with *many* writes drift from the sequential engine in sim
//! time: the server-global 256-dirty-block flush lands on whichever lane
//! happens to cross the threshold, and that lane's request carries the
//! burst. (Known, measured by the benchmark's `oracle_drift_pct`, and not
//! what this file is about.) What must hold exactly — under the
//! spin-then-block core lock, with every counter striped per lane and the
//! substitution totals absorbed after the join — is everything that is a
//! commutative sum or a final state:
//!
//! - operations completed and payload bytes delivered;
//! - the file's final bytes;
//! - the merged `NetCacheStats` insertion and remap totals;
//! - the three `CopyLedger`s' totals, field for field;
//! - and, with a recorder attached, every ledger total equal to the sum
//!   of the per-charge events the recorder saw under its own mutex — the
//!   lane-private accounting loses nothing.
//!
//! All of it identical at threads {1, 2, 4} x shards {1, 8}.

use ncache_repro::netbuf::LedgerSnapshot;
use ncache_repro::obs::{Recorder, StatsSnapshot, TraceConfig};
use ncache_repro::servers::ServerMode;
use ncache_repro::testbed::nfs_rig::{NfsRig, NfsRigParams};
use ncache_repro::testbed::runner::DriverOp;
use ncache_repro::testbed::sessions::{run_nfs_sessions_parallel_timed, SessionsOptions};

const BLOCK: u32 = 4096;
const SPAN: u32 = 4 * BLOCK;
const FILE: u64 = 4 << 20;
const LANES: u32 = 8;
/// Per lane: 40 reads and 10 writes (20 %), a write every fifth op.
const OPS: u32 = 50;
const WRITES: u32 = OPS / 5;
const ENGINE_WRITE_BYTE: u8 = 0xA5;

/// Reads roam the (read-only) upper half; each lane writes ten spans of
/// its own in the lower half, every block exactly once — 320 dirty
/// blocks in all, so the 256-block flush fires mid-run on some lane.
fn sessions(fh: u64) -> Vec<Vec<DriverOp>> {
    (0..LANES)
        .map(|lane| {
            (0..OPS)
                .map(|k| {
                    if k % 5 == 4 {
                        DriverOp::Write {
                            fh,
                            offset: (lane * WRITES + k / 5) * SPAN,
                            len: SPAN,
                        }
                    } else {
                        let slot = (lane * 13 + k * 7) % 128;
                        DriverOp::Read {
                            fh,
                            offset: (FILE / 2) as u32 + slot * SPAN,
                            len: SPAN,
                        }
                    }
                })
                .collect()
        })
        .collect()
}

/// Everything that must not depend on the thread count.
#[derive(Debug, PartialEq)]
struct Exact {
    ops: u64,
    payload_bytes: u64,
    insertions: u64,
    remaps: u64,
    substituted: u64,
    /// Client, app and storage ledger charges since the rig was built.
    ledgers: [LedgerSnapshot; 3],
    written: Vec<u8>,
}

fn ledgers_of(rig: &NfsRig) -> [LedgerSnapshot; 3] {
    let l = rig.ledgers();
    [l.client.snapshot(), l.app.snapshot(), l.storage.snapshot()]
}

/// The recorder's per-charge event sums, in [`LedgerSnapshot`] shape.
fn mirror_of(rec: &Recorder) -> LedgerSnapshot {
    LedgerSnapshot {
        payload_copies: rec.counter("copy.payload.ops"),
        payload_bytes_copied: rec.counter("copy.payload.bytes"),
        meta_copies: rec.counter("copy.meta.ops"),
        meta_bytes_copied: rec.counter("copy.meta.bytes"),
        logical_copies: rec.counter("copy.logical.ops"),
        header_bytes: rec.counter("copy.header.bytes"),
        csum_bytes: rec.counter("copy.csum.bytes"),
        csum_inherited: rec.counter("copy.csum_inherited.ops"),
        allocations: rec.counter("copy.alloc.ops"),
    }
}

/// Runs the workload; with a recorder, also returns what it mirrored over
/// exactly the interval the ledger deltas cover.
fn run(shards: usize, threads: usize, rec: Option<&Recorder>) -> (Exact, LedgerSnapshot) {
    let params = NfsRigParams {
        shards,
        ..NfsRigParams::default()
    };
    let mut rig = NfsRig::new(ServerMode::NCache, params);
    if let Some(rec) = rec {
        rig.set_recorder(rec.clone());
    }
    // mkfs charged the ledgers before any recorder could attach.
    let base = ledgers_of(&rig);
    let fh = rig.create_file("lanes", FILE);
    for off in (0..FILE as u32).step_by(64 << 10) {
        rig.read(fh, off, 64 << 10);
    }
    let (mut rig, result, _) = run_nfs_sessions_parallel_timed(
        rig,
        sessions(fh),
        &SessionsOptions::default(),
        threads,
        0x1A4E5,
    );
    rig.quiesce();
    let module = rig.module().expect("ncache rig");
    let stats = module.borrow().stats();
    let substituted = module.borrow().substitution_totals().substituted;
    let now = ledgers_of(&rig);
    let ledgers = [0, 1, 2].map(|i| now[i].delta_since(&base[i]));
    let mirrored = rec.map(mirror_of).unwrap_or_default();
    // Read-back last: it charges the ledgers too.
    let written = rig.read(fh, 0, LANES * WRITES * SPAN);
    let exact = Exact {
        ops: result.ops,
        payload_bytes: result.payload_bytes,
        insertions: stats.insertions,
        remaps: stats.remaps,
        substituted,
        ledgers,
        written,
    };
    (exact, mirrored)
}

#[test]
fn write_bearing_lanes_keep_every_sum_and_final_state_exact() {
    for shards in [1, 8] {
        let (reference, _) = run(shards, 1, None);
        assert_eq!(reference.ops, u64::from(LANES * OPS));
        assert_eq!(reference.payload_bytes, u64::from(LANES * OPS * SPAN));
        assert_eq!(
            reference.written,
            vec![ENGINE_WRITE_BYTE; (LANES * WRITES * SPAN) as usize],
            "every lane's every write landed"
        );
        // Every written block entered the FHO cache once and was remapped
        // once on its way to storage.
        let blocks_written = u64::from(LANES * WRITES * SPAN / BLOCK);
        assert_eq!(reference.remaps, blocks_written, "shards={shards}");
        assert!(reference.insertions >= blocks_written);
        for threads in [2, 4] {
            assert_eq!(
                run(shards, threads, None).0,
                reference,
                "shards={shards}/threads={threads}"
            );
        }
    }
}

#[test]
fn lane_private_ledgers_lose_no_charge() {
    // The recorder counts every charge as it happens, under its own
    // mutex; the ledgers count on per-thread stripes and are summed
    // afterwards. Over the same interval the two must agree on all nine
    // fields, at any thread count — and tracing must change no total.
    for (shards, threads) in [(1, 1), (8, 2), (8, 4)] {
        let what = format!("shards={shards}/threads={threads}");
        let rec = Recorder::new();
        rec.enable(TraceConfig::default());
        let (traced, mirrored) = run(shards, threads, Some(&rec));
        let [client, app, storage] = traced.ledgers;
        let mut summed = client.counters();
        for ledger in [app, storage] {
            for (sum, (_, charged)) in summed.iter_mut().zip(ledger.counters()) {
                sum.1 += charged;
            }
        }
        // (NCache inherits every checksum, so `csum_bytes` stays zero.)
        assert!(
            summed.iter().filter(|&&(_, charged)| charged > 0).count() >= 8,
            "{what}: the run exercised every kind of charge: {summed:?}"
        );
        assert_eq!(
            summed,
            mirrored.counters(),
            "{what}: ledgers vs per-charge events"
        );
        assert_eq!(
            traced,
            run(shards, threads, None).0,
            "{what}: traced vs not"
        );
    }
}

//! Remap ordering under write-back pressure (DESIGN invariants 2 + 5).
//!
//! A dirty FHO chunk holds the only copy of freshly written data. When the
//! file system flushes its placeholder block, the module must remap the
//! chunk to its LBN *before* any LBN write-back of that block leaves the
//! server — the flush itself must carry the cached payload — and a
//! subsequent READ must observe the fresh bytes. Eviction pressure must
//! never write back (or drop) an unremapped dirty FHO chunk.

use check::gen::*;
use check::{prop_assert, prop_assert_eq, property};

use ncache_repro::ncache::{NcacheConfig, NcacheModule, CHUNK_PAYLOAD};
use ncache_repro::netbuf::key::{Fho, FileHandle, Lbn};
use ncache_repro::netbuf::{CopyLedger, Segment};
use ncache_repro::proto::nfs::NFS_OK;
use ncache_repro::servers::nfs::NfsClient;
use ncache_repro::servers::ServerMode;
use ncache_repro::testbed::nfs_rig::{NfsRig, NfsRigParams};

const BLOCK: usize = 4096;

fn chunk(fill: u8) -> Vec<Segment> {
    vec![Segment::from_vec(vec![fill; CHUNK_PAYLOAD])]
}

/// Module-level: under eviction pressure, dirty FHO chunks are pinned —
/// they never appear in the write-back queue before their flush, and the
/// flush-time remap happens before (and instead of) any separate LBN
/// write-back.
#[test]
fn flush_remaps_dirty_fho_before_any_lbn_writeback() {
    let ledger = CopyLedger::new();
    // Room for ~6 chunks: three dirty FHO entries plus a little slack.
    let mut m = NcacheModule::new(
        NcacheConfig::with_capacity(6 * (CHUNK_PAYLOAD as u64 + 64)),
        &ledger,
    );

    // Three dirty writes land in the FHO half of the cache.
    let mut stamps = Vec::new();
    for i in 0..3u64 {
        let fho = Fho::new(FileHandle(9), i * BLOCK as u64);
        let stamp = m
            .on_nfs_write(fho, chunk(0xA0 + i as u8), CHUNK_PAYLOAD)
            .expect("cache has room");
        assert!(m.cache_handle().contains(fho.into()));
        stamps.push((fho, stamp));
    }

    // Eviction pressure from the read path: clean LBN chunks stream
    // through, far more than fit. Dirty FHO chunks must be skipped by
    // reclaim, and nothing may be queued for write-back.
    for i in 0..32u64 {
        m.on_data_in(Lbn(1000 + i), chunk(0x10), CHUNK_PAYLOAD)
            .expect("clean chunks reclaim silently");
    }
    assert!(
        m.take_writebacks().is_empty(),
        "pressure wrote back a chunk before its flush"
    );
    assert_eq!(m.stats().evicted_dirty, 0);
    for (fho, _) in &stamps {
        assert!(m.cache_handle().contains((*fho).into()), "dirty FHO chunk was evicted");
    }

    // The file system flushes each placeholder. The remap must complete
    // within the flush hook: the returned payload (which becomes the iSCSI
    // write) is the fresh data, and by the time it returns the entry lives
    // under its LBN.
    for (i, (fho, stamp)) in stamps.iter().enumerate() {
        let lbn = Lbn(500 + i as u64);
        let segs = m
            .on_flush_stamp(*stamp, lbn)
            .expect("stamped placeholder resolves");
        assert_eq!(segs[0].as_slice()[0], 0xA0 + i as u8, "flush carries stale bytes");
        assert!(!m.cache_handle().contains((*fho).into()), "remap left the FHO entry behind");
        assert!(m.cache_handle().contains(lbn.into()), "remap did not land under the LBN");
    }

    // The remapped entries are clean now: further pressure reclaims them
    // silently — still no write-back of these blocks ever queues.
    for i in 0..32u64 {
        m.on_data_in(Lbn(2000 + i), chunk(0x20), CHUNK_PAYLOAD)
            .expect("clean chunks reclaim silently");
    }
    assert!(m.take_writebacks().is_empty());
    assert_eq!(m.stats().evicted_dirty, 0);
    assert_eq!(m.stats().remaps, 3);
}

/// A READ immediately after the flush must see the fresh bytes straight
/// from the remapped LBN entry.
#[test]
fn read_after_flush_hits_remapped_lbn_with_fresh_bytes() {
    let ledger = CopyLedger::new();
    let mut m = NcacheModule::new(NcacheConfig::with_capacity(1 << 20), &ledger);
    let fho = Fho::new(FileHandle(3), 0);
    let stamp = m.on_nfs_write(fho, chunk(0xEE), CHUNK_PAYLOAD).expect("fits");
    let lbn = Lbn(77);
    m.on_flush_stamp(stamp, lbn).expect("remapped");
    let segs = m.cache_mut().lookup(lbn.into()).expect("resident under LBN");
    assert!(segs[0].as_slice().iter().all(|&b| b == 0xEE));
}

/// End-to-end: a tiny file-system buffer cache forces pressure-driven
/// flushes *during* a burst of writes (not at an explicit sync), so dirty
/// placeholders hit `on_flush_stamp` while later writes are still
/// arriving. Every flush must remap, and reads — both mid-burst from the
/// cache and post-sync from storage — must return the fresh bytes.
#[test]
fn rig_writes_under_fs_cache_pressure_then_reads_fresh_bytes() {
    const BLOCKS: usize = 32;
    let params = NfsRigParams {
        // 8-block FS cache against a 32-block working set: most writes
        // displace a dirty placeholder and trigger a flush.
        fs_cache_blocks: 8,
        ..NfsRigParams::default()
    };
    let mut rig = NfsRig::new(ServerMode::NCache, params);
    let fh = rig.create_file("pressure.dat", (BLOCKS * BLOCK) as u64);
    let module = rig.module().expect("NCache mode has a module");

    let mut model = NfsRig::pattern(fh, 0, BLOCKS * BLOCK);
    for block in 0..BLOCKS {
        let fill = 0x40 + block as u8;
        let data = vec![fill; BLOCK];
        model[block * BLOCK..(block + 1) * BLOCK].copy_from_slice(&data);
        rig.write(fh, (block * BLOCK) as u32, &data);
    }

    // The FS cache is 4x smaller than the dirty set, so flushes (and with
    // them remaps) must already have happened under pressure.
    assert!(
        module.borrow().stats().remaps > 0,
        "no pressure-driven flush remapped anything"
    );

    // Mid-burst read-back: fresh bytes for every block, flushed or not.
    for block in 0..BLOCKS {
        let got = rig.read(fh, (block * BLOCK) as u32, BLOCK as u32);
        assert_eq!(got, &model[block * BLOCK..(block + 1) * BLOCK], "block {block}");
    }

    // Flush the remainder: no FHO entry may survive a full sync — every
    // dirty chunk was remapped to its LBN, none silently dropped.
    rig.server_mut().fs_mut().sync().expect("sync");
    {
        let m = module.borrow();
        for block in 0..BLOCKS {
            let fho = Fho::new(FileHandle(fh), (block * BLOCK) as u64);
            let held = m.cache_handle().contains(fho.into());
            assert!(!held, "unremapped FHO after sync: block {block}");
        }
        assert_eq!(m.stats().evicted_dirty, 0, "a dirty chunk bypassed remapping");
    }

    let whole = rig.read(fh, 0, (BLOCKS * BLOCK) as u32);
    assert_eq!(whole, model, "post-sync read returned stale bytes");
}

/// One step of a generated multi-session schedule.
#[derive(Clone, Debug)]
struct SessionStep {
    session: usize,
    action: u8,
    block: usize,
    fill: u8,
}

fn session_step(sessions: usize, blocks: usize) -> impl Gen<Value = SessionStep> {
    (
        ints(0usize..sessions),
        ints(0u8..8),
        ints(0usize..blocks),
        any_u8(),
    )
        .map(|(session, action, block, fill)| SessionStep {
            session,
            action,
            block,
            fill,
        })
}

property! {
    #![cases(16)]

    /// Invariants 2 + 5 under arbitrary multi-session interleavings: M
    /// sessions (each on its own client and xid base) write, read and
    /// sync a shared file in a generated order, against a deliberately
    /// tiny file-system cache so flush-time remaps fire mid-schedule.
    /// Every read — from any session, at any point — must observe the
    /// newest write (FHO-before-LBN resolution), no dirty chunk may ever
    /// be evicted unremapped, and a full sync must leave no FHO entry
    /// behind (every remap overwrote any stale LBN copy, which the final
    /// whole-file read verifies byte for byte).
    fn prop_interleaved_sessions_preserve_remap_invariants(
        steps in vec_of(session_step(4, 24), 1..120),
    ) {
        const SESSIONS: usize = 4;
        const BLOCKS: usize = 24;
        let params = NfsRigParams {
            fs_cache_blocks: 8,
            shards: 2,
            ..NfsRigParams::default()
        };
        let mut rig = NfsRig::new(ServerMode::NCache, params);
        let fh = rig.create_file("interleave.dat", (BLOCKS * BLOCK) as u64);
        let module = rig.module().expect("NCache mode has a module");
        let mut clients: Vec<NfsClient> = {
            let ledger = rig.ledgers().client.clone();
            (0..SESSIONS)
                .map(|i| NfsClient::with_xid_base(&ledger, (i as u32 + 1) << 20))
                .collect()
        };
        let mut model = NfsRig::pattern(fh, 0, BLOCKS * BLOCK);
        for step in &steps {
            rig.swap_client(&mut clients[step.session]);
            let at = step.block * BLOCK;
            match step.action {
                0..=4 => {
                    // Fill is session-tagged so a stale read is
                    // attributable to the session whose bytes leaked.
                    let data = vec![step.fill ^ ((step.session as u8) << 6); BLOCK];
                    let reply = rig.write(fh, at as u32, &data);
                    prop_assert_eq!(reply.status, NFS_OK);
                    model[at..at + BLOCK].copy_from_slice(&data);
                }
                5..=6 => {
                    let got = rig.read(fh, at as u32, BLOCK as u32);
                    prop_assert_eq!(
                        &got[..], &model[at..at + BLOCK],
                        "session {} read stale block {}", step.session, step.block
                    );
                }
                _ => {
                    rig.server_mut().fs_mut().sync().expect("sync");
                }
            }
            rig.swap_client(&mut clients[step.session]);
            // Invariant 5, continuously: eviction never claims a dirty
            // (unremapped) chunk, whatever the interleaving.
            prop_assert_eq!(module.borrow().stats().evicted_dirty, 0);
        }
        rig.server_mut().fs_mut().sync().expect("final sync");
        {
            let m = module.borrow();
            for block in 0..BLOCKS {
                let fho = Fho::new(FileHandle(fh), (block * BLOCK) as u64);
                prop_assert!(
                    !m.cache_handle().contains(fho.into()),
                    "unremapped FHO survived the final sync: block {}", block
                );
            }
            prop_assert_eq!(m.stats().evicted_dirty, 0);
        }
        let whole = rig.read(fh, 0, (BLOCKS * BLOCK) as u32);
        prop_assert_eq!(whole, model, "final contents diverged from the model");
        // Sessions never aliased in the server's duplicate-request cache.
        prop_assert_eq!(rig.server_mut().stats().drc_hits, 0);
    }
}

//! Figure 3 of the paper, executed: "Typical life time of a data block
//! inside an NFS server", asserted state by state.
//!
//! 1. Incoming data from the storage server is put in the **LBN cache**;
//!    a logical copy (placeholder) lives in the file-system cache.
//! 2. NFS replies are serviced from the network-centric cache
//!    (substitution).
//! 3. An NFS write produces a dirty block cached under **FHO** indexing;
//!    the placeholder in the FS cache now carries the FHO key.
//! 4. Flushing the dirty FS buffer **remaps** the FHO entry to an LBN
//!    entry (overwriting the stale one) and sends the fresh bytes to the
//!    storage server.
//! 5. Subsequent reads are served from the remapped LBN entry.

use ncache_repro::netbuf::key::{Fho, FileHandle, Lbn};
use ncache_repro::proto::nfs::NFS_OK;
use ncache_repro::servers::ServerMode;
use ncache_repro::testbed::nfs_rig::{NfsRig, NfsRigParams};

#[test]
fn figure3_block_lifetime() {
    let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
    let fh = rig.create_sparse_file("life", 16 << 10);
    rig.getattr(fh); // warm metadata so the states below are purely data
    let module = rig.module().expect("ncache build");

    // --- State 1: first read misses; the block arrives from the storage
    // server and lands in the LBN cache.
    let original = rig.read(fh, 0, 4096);
    assert_eq!(original, rig.expected_sparse(fh, 0, 4096));
    let lbn = Lbn(
        rig.server_mut()
            .fs_mut()
            .block_lbn(ncache_repro::servers::nfs::fh_to_ino(fh), 0)
            .expect("file exists")
            .expect("allocated"),
    );
    assert!(
        module.borrow().cache_handle().contains(lbn.into()),
        "state 1: block resident in the LBN cache"
    );
    assert!(
        !module.borrow_mut().cache_mut().is_dirty(lbn.into()),
        "state 1: clean (it matches storage)"
    );
    // The FS cache holds a stamped placeholder, not the data.
    let blocks = rig
        .server_mut()
        .fs_mut()
        .read_logical(ncache_repro::servers::nfs::fh_to_ino(fh), 0, 4096)
        .expect("readable");
    let stamp = blocks[0].seg.stamp().expect("placeholder");
    assert_eq!(stamp.lbn, Some(lbn), "state 1: FS cache holds the key");

    // --- State 2: a repeat read is serviced from the network-centric
    // cache by substitution, zero copies.
    let before = rig.ledgers().app.snapshot();
    let again = rig.read(fh, 0, 4096);
    assert_eq!(again, original);
    let d = rig.ledgers().app.snapshot().delta_since(&before);
    assert_eq!(d.payload_copies, 0, "state 2: served without copying");

    // --- State 3: an NFS write dirties the block under FHO indexing.
    let fresh = vec![0xF5u8; 4096];
    assert_eq!(rig.write(fh, 0, &fresh).status, NFS_OK);
    let fho = Fho::new(FileHandle(fh), 0);
    assert!(
        module.borrow().cache_handle().contains(fho.into()),
        "state 3: dirty block cached under FHO"
    );
    assert!(
        module.borrow_mut().cache_mut().is_dirty(fho.into()),
        "state 3: the FHO entry is dirty"
    );
    // Freshness: reads now come from the FHO entry, not the stale LBN one.
    assert_eq!(rig.read(fh, 0, 4096), fresh, "state 3: FHO consulted first");

    // --- State 4: the flush remaps FHO → LBN, overwriting the stale LBN
    // entry, and pushes the bytes to the storage server.
    let remaps_before = module.borrow().stats().remaps;
    rig.server_mut().fs_mut().sync().expect("sync");
    assert!(
        module.borrow().stats().remaps > remaps_before,
        "state 4: a remap happened"
    );
    assert!(
        !module.borrow().cache_handle().contains(fho.into()),
        "state 4: the FHO entry moved away"
    );
    assert!(
        module.borrow().cache_handle().contains(lbn.into()),
        "state 4: ...into the LBN cache"
    );
    assert_eq!(
        module.borrow_mut().cache_mut().chunk_bytes(lbn.into()),
        Some(fresh.clone()),
        "state 4: the LBN entry holds the FRESH bytes (stale copy overwritten)"
    );
    assert_eq!(
        rig.target().borrow().block_contents(lbn.0),
        fresh,
        "state 4: storage has the fresh bytes"
    );

    // --- State 5: subsequent reads serve the remapped entry.
    let before = rig.ledgers().app.snapshot();
    assert_eq!(rig.read(fh, 0, 4096), fresh);
    let d = rig.ledgers().app.snapshot().delta_since(&before);
    assert_eq!(d.payload_copies, 0, "state 5: still zero-copy");
}

#[test]
fn runner_reports_latency() {
    use ncache_repro::sim::time::Duration;
    use ncache_repro::testbed::runner::{run, DriverOp, RunOptions};
    let mut rig = NfsRig::new(ServerMode::Original, NfsRigParams::default());
    let fh = rig.create_sparse_file("lat", 1 << 20);
    let ops: Vec<DriverOp> = (0..32u32)
        .map(|i| DriverOp::Read {
            fh,
            offset: i * 32768,
            len: 32768,
        })
        .collect();
    let r = run(&mut rig, ops, &RunOptions::default());
    assert!(r.mean_latency > Duration::ZERO);
    // Sanity: Little's law-ish bound — latency × throughput cannot exceed
    // outstanding work by much.
    let implied = r.mean_latency.as_secs_f64() * r.ops_per_sec;
    assert!(implied <= 9.0, "≈{implied} outstanding with concurrency 8");
}

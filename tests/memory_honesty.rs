//! Host memory is what the caches account for.
//!
//! The network-centric cache pins `CHUNK_PAYLOAD + overhead` per chunk, and
//! the buffer cache's placeholders "hold keys + junk payload". On the host
//! a chunk must then hold one block of memory, not the whole request it
//! arrived in, and a placeholder must hold its key, not a page.

use ncache_repro::netbuf::key::KeyStamp;
use ncache_repro::netbuf::{SlabStats, Segment};
use ncache_repro::servers::nfs::fh_to_ino;
use ncache_repro::servers::ServerMode;
use ncache_repro::testbed::nfs_rig::{NfsRig, NfsRigParams};

const BLOCK: usize = 4096;
const WRITE: usize = 32 << 10;

/// The client's WRITE slab counters.
fn client_slabs(rig: &mut NfsRig) -> SlabStats {
    let client = rig.client_mut();
    client.pool().expect("made by the first WRITE").slab_stats()
}

/// One 32 KiB WRITE lands on eight slabs of the client's pool, one per FHO
/// chunk; evicting seven of the chunks sends exactly those seven home,
/// while the eighth still serves its block. (When the payload was one heap
/// buffer, every chunk was a view of all of it: the eviction freed
/// nothing until the last chunk went.)
#[test]
fn a_write_s_chunks_each_hold_only_their_own_block() {
    let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
    let fh = rig.create_file("w", 2 * WRITE as u64);
    let data: Vec<u8> = (0..WRITE).map(|i| (i % 251) as u8 + 1).collect();
    assert!(rig.client_mut().pool().is_none(), "a client that has not written holds no slabs");
    rig.write(fh, 0, &data);
    let taken = client_slabs(&mut rig);
    // One slab per block, and as many again filed for the next write.
    assert_eq!((taken.allocs, taken.recycles, taken.free), (16, 8, 8));
    // The flush remaps the eight dirty FHO chunks to clean LBN chunks —
    // the same slabs — so the cache may evict them.
    rig.server_mut().fs_mut().sync().expect("sync");
    let module = rig.module().expect("NCache build");
    assert_eq!(
        module.borrow().cache_len(),
        8,
        "the write's chunks, nothing else"
    );
    let chunk = module.borrow().pinned_bytes() / 8;
    assert_eq!(module.borrow().set_pool_capacity(chunk), 7, "seven evicted");
    let after = client_slabs(&mut rig);
    assert_eq!(after.returns - taken.returns, 7, "seven slabs came home");
    assert_eq!(after.free - taken.free, 7);
    // Nothing was lost: the survivor serves its block, storage the rest.
    module.borrow().set_pool_capacity(64 << 20);
    assert_eq!(rig.read(fh, 0, WRITE as u32), data);
}

/// Every placeholder the buffer cache holds stores its key stamp and
/// nothing else: those the WRITE path plants, those a Data-In plants, and
/// those a second-level hit builds. Zeros store nothing at all.
#[test]
fn placeholders_store_their_stamp_and_zeros_store_nothing() {
    let params = NfsRigParams {
        fs_cache_blocks: 64,
        ..NfsRigParams::default()
    };
    let mut rig = NfsRig::new(ServerMode::NCache, params);
    let fh = rig.create_file("p", 4 * WRITE as u64);
    let ino = fh_to_ino(fh);
    let keys_only = |rig: &mut NfsRig| {
        let fs = rig.server_mut().fs_mut();
        for offset in [0, WRITE as u64] {
            let blocks = fs.read_logical(ino, offset, WRITE).expect("resident");
            assert_eq!(blocks.len(), WRITE / BLOCK);
            for b in &blocks {
                assert!(
                    b.seg.stamp().is_some_and(|s| s.is_keyed()),
                    "a keyed placeholder"
                );
                assert_eq!((b.seg.len(), b.seg.stored_len()), (BLOCK, KeyStamp::LEN));
            }
        }
    };
    rig.write(fh, 0, &vec![0x5A; WRITE]); // planted by write_logical
    rig.read(fh, WRITE as u32, WRITE as u32); // planted by Data-In
    keys_only(&mut rig);
    // Evict the buffer cache (the dirty placeholders flush and remap),
    // then read both ranges again: every block is a second-level hit.
    let fs = rig.server_mut().fs_mut();
    fs.set_cache_capacity(0);
    fs.set_cache_capacity(64);
    let hits = rig.server_mut().fs_mut().store_mut().stats().second_level_hits;
    rig.read(fh, 0, 2 * WRITE as u32);
    let store = rig.server_mut().fs_mut().store_mut().stats();
    assert!(
        store.second_level_hits - hits >= 2 * (WRITE / BLOCK) as u64,
        "read-ahead too"
    );
    keys_only(&mut rig);
    assert_eq!(Segment::zeroed(BLOCK).stored_len(), 0);

    // The Baseline build's junk blocks and a hole's zeros store nothing.
    let mut rig = NfsRig::new(ServerMode::Baseline, NfsRigParams::default());
    let fh = rig.create_sparse_file("junk", WRITE as u64);
    rig.read(fh, 0, WRITE as u32);
    let blocks = rig
        .server_mut()
        .fs_mut()
        .read_logical(fh_to_ino(fh), 0, WRITE)
        .expect("resident");
    assert!(blocks
        .iter()
        .all(|b| b.seg.len() == BLOCK && b.seg.stored_len() == 0));
}

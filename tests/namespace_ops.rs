//! The full NFS namespace lifecycle over the wire: CREATE, WRITE, READDIR
//! (with paging), REMOVE — across every build.

use ncache_repro::netbuf::NetBuf;
use ncache_repro::proto::nfs::{LookupReply, ReaddirReply, RemoveReply, NFS_OK};
use ncache_repro::servers::ServerMode;
use ncache_repro::testbed::nfs_rig::{NfsRig, NfsRigParams};

fn roundtrip(rig: &mut NfsRig, req: NetBuf) -> NetBuf {
    rig.handle_raw(req)
}

fn create(rig: &mut NfsRig, name: &str) -> LookupReply {
    let root = rig.server_mut().root_fh();
    let req = rig.client_mut().create_request(root, name);
    let reply = roundtrip(rig, req);
    // Clone the ledger handle first to satisfy the borrow checker.
    rig.client_mut().parse_create_reply(&reply)
}

fn remove(rig: &mut NfsRig, name: &str) -> RemoveReply {
    let root = rig.server_mut().root_fh();
    let req = rig.client_mut().remove_request(root, name);
    let reply = roundtrip(rig, req);
    rig.client_mut().parse_remove_reply(&reply)
}

fn readdir(rig: &mut NfsRig, cookie: u32, count: u32) -> ReaddirReply {
    let root = rig.server_mut().root_fh();
    let req = rig.client_mut().readdir_request(root, cookie, count);
    let reply = roundtrip(rig, req);
    rig.client_mut().parse_readdir_reply(&reply)
}

#[test]
fn create_write_read_remove_lifecycle() {
    for mode in [ServerMode::Original, ServerMode::NCache] {
        let mut rig = NfsRig::new(mode, NfsRigParams::default());
        // Create over the wire.
        let created = create(&mut rig, "wire.dat");
        assert_eq!(created.status, NFS_OK, "{mode}");
        let fh = created.fh;
        // It is immediately visible to LOOKUP and usable for I/O.
        assert_eq!(rig.lookup("wire.dat"), Some(fh), "{mode}");
        let data = vec![0x3Cu8; 8192];
        assert_eq!(rig.write(fh, 0, &data).status, NFS_OK, "{mode}");
        assert_eq!(rig.read(fh, 0, 8192), data, "{mode}");
        // Creating the same name again fails with EEXIST (17).
        assert_eq!(create(&mut rig, "wire.dat").status, 17, "{mode}");
        // Remove it; the name and handle are gone.
        assert_eq!(remove(&mut rig, "wire.dat").status, NFS_OK, "{mode}");
        assert_eq!(rig.lookup("wire.dat"), None, "{mode}");
        assert_ne!(rig.getattr(fh), NFS_OK, "{mode}");
        // Removing again errors.
        assert_ne!(remove(&mut rig, "wire.dat").status, NFS_OK, "{mode}");
    }
}

#[test]
fn readdir_lists_everything_and_pages() {
    let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
    let mut names: Vec<String> = (0..40).map(|i| format!("entry{i:02}")).collect();
    for name in &names {
        assert_eq!(create(&mut rig, name).status, NFS_OK);
    }

    // One big page lists all entries.
    let all = readdir(&mut rig, 0, 64 << 10);
    assert_eq!(all.status, NFS_OK);
    assert!(all.eof);
    let mut listed: Vec<String> = all.entries.iter().map(|e| e.name.clone()).collect();
    listed.sort();
    names.sort();
    assert_eq!(listed, names);

    // Small pages walk the directory with cookies.
    let mut cookie = 0u32;
    let mut paged = Vec::new();
    loop {
        let page = readdir(&mut rig, cookie, 128);
        assert_eq!(page.status, NFS_OK);
        assert!(!page.entries.is_empty(), "pages make progress");
        cookie += page.entries.len() as u32;
        paged.extend(page.entries.iter().map(|e| e.name.clone()));
        if page.eof {
            break;
        }
    }
    paged.sort();
    assert_eq!(paged, names, "paged listing covers every entry exactly once");
}

#[test]
fn removed_file_blocks_are_reusable() {
    let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
    let created = create(&mut rig, "temp");
    let fh = created.fh;
    rig.write(fh, 0, &vec![1u8; 64 << 10]);
    let free_before = rig.server_mut().fs_mut().free_blocks();
    assert_eq!(remove(&mut rig, "temp").status, NFS_OK);
    assert!(
        rig.server_mut().fs_mut().free_blocks() > free_before,
        "blocks returned to the allocator"
    );
    // A new file reuses the space and reads back correctly.
    let again = create(&mut rig, "temp2");
    let fh2 = again.fh;
    let data = vec![9u8; 64 << 10];
    assert_eq!(rig.write(fh2, 0, &data).status, NFS_OK);
    assert_eq!(rig.read(fh2, 0, 64 << 10), data);
}

#[test]
fn remove_with_unflushed_writes_frees_dirty_fho_chunks() {
    // A dirty FHO chunk belonging to a removed file must not stay pinned:
    // it is unevictable until remapped, and removal means no flush will
    // ever remap it.
    let params = NfsRigParams {
        ncache_bytes: 8 * (4096 + 128), // room for just 8 chunks
        ..NfsRigParams::default()
    };
    let mut rig = NfsRig::new(ServerMode::NCache, params);
    for round in 0..5 {
        let name = format!("round{round}");
        let created = create(&mut rig, &name);
        assert_eq!(created.status, NFS_OK, "round {round}");
        // Dirty the whole NCache-worth of blocks without flushing.
        for blk in 0..8u32 {
            let reply = rig.write(created.fh, blk * 4096, &vec![round as u8; 4096]);
            assert_eq!(reply.status, NFS_OK, "round {round} blk {blk}");
        }
        assert_eq!(remove(&mut rig, &name).status, NFS_OK, "round {round}");
    }
    // If removal leaked dirty FHO chunks, the cache would have wedged
    // after the first round; reaching here with a serving rig proves it
    // did not.
    let fh = rig.create_file("final", 16 << 10);
    assert_eq!(rig.read(fh, 0, 4096), NfsRig::pattern(fh, 0, 4096));
    let module = rig.module().expect("ncache build");
    assert!(
        module.borrow().cache_len() <= 8,
        "cache bounded after removals"
    );
}

#[test]
fn removing_a_cold_file_walks_its_block_map_not_its_data() {
    use ncache_repro::netbuf::key::{Fho, FileHandle, Lbn};
    use ncache_repro::servers::nfs::fh_to_ino;
    use ncache_repro::simfs::store::BlockClass;

    const BLOCKS: u64 = 64;
    let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
    let module = rig.module().expect("NCache build");
    // Another file, read through: its blocks are LBN chunks.
    let keep = rig.create_file("keep", 16 * 4096);
    rig.read(keep, 0, 16 * 4096);
    // The victim: 64 blocks, the first eight rewritten over NFS and
    // flushed (their FHO chunks remapped to LBN chunks), then the whole
    // buffer cache evicted — the file is cold, its chunks are not.
    let cold = rig.create_file("cold", BLOCKS * 4096);
    rig.write(cold, 0, &vec![0x6Bu8; 8 * 4096]);
    let fs = rig.server_mut().fs_mut();
    fs.sync().expect("sync");
    let blocks = fs.cache_capacity();
    fs.set_cache_capacity(0);
    fs.set_cache_capacity(blocks);
    let lbns = |rig: &mut NfsRig, fh: u64, n: u64| -> Vec<u64> {
        let fs = rig.server_mut().fs_mut();
        (0..n)
            .map(|b| fs.block_lbn(fh_to_ino(fh), b).expect("exists").expect("mapped"))
            .collect()
    };
    let (keep_lbns, cold_lbns) = (lbns(&mut rig, keep, 16), lbns(&mut rig, cold, BLOCKS));
    let resident = |lbns: &[u64]| {
        lbns.iter()
            .filter(|&&l| module.borrow().cache_handle().contains(Lbn(l).into()))
            .count()
    };
    assert_eq!(resident(&cold_lbns), 8, "the rewritten blocks' chunks");
    assert_eq!(resident(&keep_lbns), 16);
    let store = rig.server_mut().fs_mut().store_mut();
    store.take_io_log();
    let read_before = store.stats().blocks_read;

    assert_eq!(remove(&mut rig, "cold").status, NFS_OK);

    let store = rig.server_mut().fs_mut().store_mut();
    let reads: Vec<_> = store.take_io_log().filter(|r| !r.is_write).collect();
    assert!(
        reads.iter().all(|r| r.class == BlockClass::Meta),
        "REMOVE fetched data blocks: {reads:?}"
    );
    assert_eq!(store.stats().blocks_read - read_before, reads.len() as u64);
    assert!(reads.len() <= 4, "the inode table, the directory, one indirect block");
    assert_eq!(resident(&cold_lbns), 0, "no chunk of the removed file is left");
    let fhos = (0..BLOCKS).filter(|b| {
        module
            .borrow()
            .cache_handle().contains(Fho::new(FileHandle(cold), b * 4096).into())
    });
    assert_eq!(fhos.count(), 0);
    assert_eq!(resident(&keep_lbns), 16, "another file's chunks are untouched");
    assert_eq!(rig.read(keep, 0, 16 * 4096), NfsRig::pattern(keep, 0, 16 * 4096));
}

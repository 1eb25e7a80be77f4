//! Unaligned requests under NCache: a partial-block slice cannot carry a
//! key stamp, so these requests must be *materialized* from the
//! network-centric cache — and the bytes must always be right.

use ncache_repro::proto::nfs::NFS_OK;
use ncache_repro::servers::ServerMode;
use ncache_repro::testbed::nfs_rig::{NfsRig, NfsRigParams};

#[test]
fn unaligned_reads_return_real_bytes() {
    for mode in [ServerMode::Original, ServerMode::NCache] {
        let mut rig = NfsRig::new(mode, NfsRigParams::default());
        let fh = rig.create_file("u", 64 << 10);
        for &(off, len) in &[
            (1u32, 100u32),
            (100, 1000),
            (4095, 2),          // straddles a block boundary
            (4097, 8192),       // spans three blocks, both ends unaligned
            (63 << 10, 3 << 10), // clipped near EOF, unaligned start
            (2048, 60 << 10),   // long unaligned read
        ] {
            let got = rig.read(fh, off, len);
            let expect_len = ((64u64 << 10) - u64::from(off)).min(u64::from(len)) as usize;
            assert_eq!(got.len(), expect_len, "{mode}: ({off},{len})");
            assert_eq!(
                got,
                NfsRig::pattern(fh, u64::from(off), expect_len),
                "{mode}: read({off}, {len})"
            );
        }
    }
}

#[test]
fn unaligned_reads_after_writes_see_fresh_data() {
    let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
    let fh = rig.create_file("u", 32 << 10);
    // Aligned write through the FHO cache, then an unaligned read into it.
    let fresh = vec![7u8; 8192];
    assert_eq!(rig.write(fh, 0, &fresh).status, NFS_OK);
    let got = rig.read(fh, 100, 1000);
    assert_eq!(got, vec![7u8; 1000], "materialization resolves FHO first");
    // And straddling the fresh/old boundary.
    let got = rig.read(fh, 8192 - 500, 1000);
    let mut expect = vec![7u8; 500];
    expect.extend_from_slice(&NfsRig::pattern(fh, 8192, 500));
    assert_eq!(got, expect);
}

#[test]
fn unaligned_writes_merge_correctly() {
    for mode in [ServerMode::Original, ServerMode::NCache] {
        let mut rig = NfsRig::new(mode, NfsRigParams::default());
        let fh = rig.create_file("w", 32 << 10);
        // An unaligned overwrite in the middle of block 1.
        let patch = vec![0xEEu8; 1000];
        assert_eq!(rig.write(fh, 4196, &patch).status, NFS_OK, "{mode}");
        // The patched range reads back, and its surroundings are intact.
        assert_eq!(rig.read(fh, 4196, 1000), patch, "{mode}: patch");
        assert_eq!(
            rig.read(fh, 4096, 100),
            NfsRig::pattern(fh, 4096, 100),
            "{mode}: before patch"
        );
        assert_eq!(
            rig.read(fh, 5196, 1000),
            NfsRig::pattern(fh, 5196, 1000),
            "{mode}: after patch"
        );
        // A boundary-straddling unaligned write.
        let patch2 = vec![0xDDu8; 6000];
        assert_eq!(rig.write(fh, 8000, &patch2).status, NFS_OK, "{mode}");
        assert_eq!(rig.read(fh, 8000, 6000), patch2, "{mode}: straddle");
        assert_eq!(
            rig.read(fh, 7000, 1000),
            NfsRig::pattern(fh, 7000, 1000),
            "{mode}: prefix intact"
        );
        // File size unchanged by interior writes.
        let (hdr, _) = rig.read_with_header(fh, 0, 4096);
        assert_eq!(hdr.attrs.size, 32 << 10, "{mode}: size preserved");
        // Flush everything and verify the whole file end to end.
        rig.server_mut().fs_mut().sync().expect("sync");
        let mut expect = NfsRig::pattern(fh, 0, 32 << 10);
        expect[4196..5196].copy_from_slice(&patch);
        expect[8000..14000].copy_from_slice(&patch2);
        assert_eq!(rig.read(fh, 0, 32 << 10), expect, "{mode}: whole file");
    }
}

#[test]
fn unaligned_write_extends_file_to_true_end() {
    let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
    let fh = rig.create_file("grow", 4096);
    // Write past EOF from an unaligned offset.
    let tail = vec![0xABu8; 3000];
    assert_eq!(rig.write(fh, 5000, &tail).status, NFS_OK);
    let (hdr, head) = rig.read_with_header(fh, 0, 16);
    assert_eq!(hdr.attrs.size, 8000, "size is byte-accurate, not block-rounded");
    assert_eq!(head, NfsRig::pattern(fh, 0, 16), "a read shorter than a key stamp");
    assert_eq!(rig.read(fh, 5000, 3000), tail);
    // The gap between old EOF and the write reads as zeros.
    assert_eq!(rig.read(fh, 4096, 904), vec![0u8; 904]);
}

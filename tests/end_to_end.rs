//! End-to-end correctness of the pass-through servers, across every build.
//!
//! The paper's correctness obligations (§3.2-§3.4): clients of the
//! original and NCache builds must always receive the true bytes — through
//! packet substitution, FHO-before-LBN resolution, remapping, cache
//! evictions and flushes — while the baseline build deliberately ships
//! junk of the right shape. These tests drive full request paths:
//! client → UDP/RPC/NFS (or TCP/HTTP) → server → buffer cache → iSCSI →
//! storage server and back.

use ncache_repro::netbuf::key::{Fho, FileHandle};
use ncache_repro::proto::nfs::NFS_OK;
use ncache_repro::servers::nfs::fh_to_ino;
use ncache_repro::servers::{ControlConfig, ServerMode};
use ncache_repro::testbed::khttpd_rig::{KhttpdRig, KhttpdRigParams};
use ncache_repro::testbed::nfs_rig::{NfsRig, NfsRigParams};

fn correct_modes() -> [ServerMode; 2] {
    [ServerMode::Original, ServerMode::NCache]
}

#[test]
fn nfs_read_returns_exact_bytes_at_every_offset_and_size() {
    for mode in correct_modes() {
        let mut rig = NfsRig::new(mode, NfsRigParams::default());
        let fh = rig.create_file("data", 256 << 10);
        for &(off, len) in &[
            (0u32, 4096u32),
            (4096, 4096),
            (0, 32 << 10),
            (8192, 16 << 10),
            (128 << 10, 128 << 10),
            (0, 256 << 10),
        ] {
            let got = rig.read(fh, off, len);
            assert_eq!(
                got,
                NfsRig::pattern(fh, u64::from(off), len as usize),
                "{mode}: read({off}, {len})"
            );
        }
    }
}

#[test]
fn nfs_read_past_eof_is_clipped() {
    for mode in correct_modes() {
        let mut rig = NfsRig::new(mode, NfsRigParams::default());
        let fh = rig.create_file("short", 10_000);
        let (hdr, data) = rig.read_with_header(fh, 8192, 8192);
        assert_eq!(hdr.status, NFS_OK);
        assert_eq!(data.len(), 10_000 - 8192, "{mode}");
        assert_eq!(data, NfsRig::pattern(fh, 8192, 10_000 - 8192), "{mode}");
    }
}

/// Reads shorter than a placeholder's key stamp (29 bytes), and tail blocks
/// with 1..=28 bytes of file in them: the reply segment is clipped below
/// the stamp, so substitution must take the key from the whole cached
/// block, never from the clipped segment.
const SHORT_FILE: u64 = 8192 + 10;
const SHORT_READS: [(u32, u32); 7] = [
    (0, 1),
    (0, 16),
    (0, 28),
    (0, 29),
    (0, 4096 + 10),
    (4096, 4096 + 10),
    (8192, 4096),
];

/// What a READ of `SHORT_FILE` must return: the file's bytes, clipped at
/// end of file — or, from the baseline, junk of exactly that length.
fn assert_short_read(mode: ServerMode, fh: u64, off: u32, len: u32, got: &[u8], via: &str) {
    let want = (SHORT_FILE - u64::from(off)).min(u64::from(len)) as usize;
    assert_eq!(got.len(), want, "{mode} {via}: read({off}, {len}) length");
    if mode != ServerMode::Baseline {
        let pattern = NfsRig::pattern(fh, u64::from(off), want);
        assert_eq!(got, pattern, "{mode} {via}: read({off}, {len})");
    }
}

#[test]
fn nfs_short_reads_and_short_tails_never_ship_the_placeholder() {
    for mode in [ServerMode::Original, ServerMode::NCache, ServerMode::Baseline] {
        // The plain rig, and one with fault recovery armed on a clean link:
        // its READs revalidate every placeholder key by key first.
        let armed = NfsRig::new_faulted(mode, NfsRigParams::default(), &Default::default(), 7);
        for (mut rig, recovery) in [(NfsRig::new(mode, NfsRigParams::default()), ""), (armed, "armed ")] {
            let fh = rig.create_file("f", SHORT_FILE);
            // Twice: the first pass fetches (the miss-capable path), the
            // second finds everything resident (the hit path).
            for pass in ["cold", "warm"] {
                for (off, len) in SHORT_READS {
                    let got = rig.read(fh, off, len);
                    assert_short_read(mode, fh, off, len, &got, &format!("{recovery}{pass}"));
                }
            }
        }
    }
}

#[test]
fn nfs_short_reads_through_the_lane_fast_path() {
    // The lane-parallel engine's `&self` READ, driven by hand: probe under
    // a shared reference, serve — the server finishes the reply itself.
    let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
    let fh = rig.create_file("f", SHORT_FILE);
    rig.read(fh, 0, SHORT_FILE as u32); // warm both caches
    for (off, len) in SHORT_READS {
        let request = rig.client_mut().read_request(fh, off, len);
        let delivered = ncache_repro::servers::stack::deliver(&request, &rig.ledgers().app);
        let server = rig.server();
        let hit = server
            .probe_keyed(fh_to_ino(fh), u64::from(off), len as usize)
            .expect("a warm aligned READ is a pure hit");
        let (reply, substituted) = server.handle_read_fast(delivered, hit);
        let blocks = (u64::from(off) + u64::from(len)).min(SHORT_FILE) - u64::from(off);
        assert_eq!(
            substituted,
            blocks.div_ceil(4096),
            "read({off}, {len}): one per block"
        );
        let (hdr, got) = rig.client_mut().parse_read_reply(&reply);
        assert_eq!(hdr.status, NFS_OK);
        assert_short_read(ServerMode::NCache, fh, off, len, &got, "fast path");
    }
}

#[test]
fn nfs_reads_through_an_ncache_smaller_than_one_request() {
    // An NCache of fewer chunks than a 32 KiB READ has blocks: the fetch
    // evicts the READ's own first chunks before its last ones arrive, so
    // the reply's placeholders dangle and the READ degrades. The degraded
    // reply must still carry exactly `count` bytes of the file — it used
    // to copy the buffer cache's stamps into one segment that the
    // transmit hook then swapped for the first block's chunk alone.
    const FILE: u64 = 256 << 10;
    const LEN: u32 = 32 << 10;
    for chunks in [2u64, 3, 7] {
        let params = NfsRigParams {
            ncache_bytes: chunks * (4096 + 128),
            ..NfsRigParams::default()
        };
        let mut rig = NfsRig::new(ServerMode::NCache, params);
        let fh = rig.create_file("f", FILE);
        for round in 0..2 {
            for off in (0..FILE as u32).step_by(LEN as usize) {
                let at = format!("{chunks} chunks, round {round}, offset {off}");
                let (hdr, data) = rig
                    .try_read(fh, off, LEN)
                    .unwrap_or_else(|| panic!("{at}: rejected"));
                assert_eq!(hdr.status, NFS_OK, "{at}");
                assert_eq!(hdr.count, LEN, "{at}: count");
                assert!(
                    data == NfsRig::pattern(fh, u64::from(off), LEN as usize),
                    "{at}: wrong bytes"
                );
            }
        }
    }
}

#[test]
fn khttpd_pages_with_short_tails_arrive_whole() {
    for mode in [ServerMode::Original, ServerMode::NCache, ServerMode::Baseline] {
        let mut rig = KhttpdRig::new(mode, KhttpdRigParams::default());
        let pages = [("one", 1u64), ("stamp", 28), ("tail", 4096 + 10), ("tails", 8192 + 28)];
        for (name, size) in pages {
            rig.publish(name, size);
        }
        for pass in ["cold", "warm"] {
            for (name, size) in pages {
                let (hdr, body) = rig.get(&format!("/{name}"));
                assert_eq!(hdr.status, 200, "{mode} {pass}: {name}");
                assert_eq!(body.len() as u64, size, "{mode} {pass}: {name}");
                if mode != ServerMode::Baseline {
                    assert_eq!(body, rig.expected(name, size), "{mode} {pass}: {name}");
                }
            }
        }
    }
}

#[test]
fn nfs_write_read_back_freshness_through_remap() {
    // §3.4: after an NFS WRITE the freshest data must always win — the
    // FHO cache is consulted before the LBN cache, and remapping preserves
    // the new contents across flushes.
    for mode in correct_modes() {
        let mut rig = NfsRig::new(mode, NfsRigParams::default());
        let fh = rig.create_file("f", 64 << 10);
        // Overwrite a block in the middle.
        let fresh = vec![0xD7u8; 8192];
        assert_eq!(rig.write(fh, 16384, &fresh).status, NFS_OK);
        // Immediately visible.
        assert_eq!(rig.read(fh, 16384, 8192), fresh, "{mode}: before flush");
        // Force the flush (placeholders remap FHO→LBN under NCache).
        rig.server_mut().fs_mut().sync().expect("sync");
        assert_eq!(rig.read(fh, 16384, 8192), fresh, "{mode}: after flush");
        // And after the caches are dropped entirely, storage has it.
        rig.quiesce();
        if let Some(module) = rig.module() {
            // Drop the network-centric cache too: prove the bytes reached
            // the storage server, not just the cache.
            let mut m = module.borrow_mut();
            m.cache_mut().invalidate(netbuf::key::Lbn(0).into());
        }
        assert_eq!(rig.read(fh, 16384, 8192), fresh, "{mode}: from storage");
        // Neighbouring data intact.
        assert_eq!(
            rig.read(fh, 0, 16384),
            NfsRig::pattern(fh, 0, 16384),
            "{mode}: prefix intact"
        );
    }
}

#[test]
fn a_bypassed_write_leaves_no_chunk_of_the_old_bytes() {
    // Under memory pressure the control plane bypasses NCache insertion
    // and every WRITE — aligned, unaligned or ending mid-block — takes the
    // copying path. The LBN chunk an earlier READ admitted still held the
    // block's old bytes: it outlived the flush, and once the buffer cache
    // dropped the block a READ was served from it. An unaligned WRITE used
    // to skip the bypass and park FHO chunks regardless.
    for (offset, len) in [(0u32, 4096u32), (10, 100), (4096, 5000)] {
        let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
        let fh = rig.create_file("f", 64 << 10);
        assert_eq!(rig.read(fh, 0, 16384), NfsRig::pattern(fh, 0, 16384));
        rig.enable_control(ControlConfig {
            ncache_hi_permille: 0,
            ..ControlConfig::unlimited()
        });
        let fresh = vec![0x3Cu8; len as usize];
        let at = format!("{len} bytes at {offset}");
        assert_eq!(rig.write(fh, offset, &fresh).status, NFS_OK, "{at}");
        assert_eq!(rig.control_stats().expect("plane").insert_bypass, 1, "{at}");
        let module = rig.module().expect("NCache build");
        for blk in u64::from(offset) / 4096..(u64::from(offset + len)).div_ceil(4096) {
            let fho = Fho::new(FileHandle(fh), blk * 4096);
            assert!(!module.borrow().cache_contains_fho(fho), "{at}: block {blk}'s FHO chunk");
        }
        rig.server_mut().fs_mut().sync().expect("sync");
        rig.quiesce();
        assert_eq!(rig.read(fh, offset, len), fresh, "{at}: the newest acknowledged bytes");
    }
}

#[test]
fn nfs_interleaved_writes_and_reads_over_many_blocks() {
    for mode in correct_modes() {
        let mut rig = NfsRig::new(mode, NfsRigParams::default());
        let fh = rig.create_file("mix", 512 << 10);
        // Overwrite every third 4 KiB block.
        for blk in (0..128u32).step_by(3) {
            let data = vec![blk as u8 ^ 0xFF; 4096];
            assert_eq!(rig.write(fh, blk * 4096, &data).status, NFS_OK, "{mode}");
        }
        // Verify the whole file block by block.
        for blk in 0..128u32 {
            let got = rig.read(fh, blk * 4096, 4096);
            let expect = if blk % 3 == 0 {
                vec![blk as u8 ^ 0xFF; 4096]
            } else {
                NfsRig::pattern(fh, u64::from(blk) * 4096, 4096)
            };
            assert_eq!(got, expect, "{mode}: block {blk}");
        }
    }
}

#[test]
fn nfs_survives_cache_pressure_on_both_cache_levels() {
    // Small FS cache + small NCache: every structure evicts constantly,
    // and the client must still see true bytes.
    for mode in correct_modes() {
        let params = NfsRigParams {
            fs_cache_blocks: 64,
            ncache_bytes: 96 * (4096 + 128),
            ..NfsRigParams::default()
        };
        let mut rig = NfsRig::new(mode, params);
        let fh = rig.create_file("pressure", 2 << 20);
        // Sequential sweep, then strided re-read.
        for blk in 0..(2 << 20) / 16384u32 {
            let got = rig.read(fh, blk * 16384, 16384);
            assert_eq!(
                got,
                NfsRig::pattern(fh, u64::from(blk) * 16384, 16384),
                "{mode}: sweep block {blk}"
            );
        }
        for blk in (0..(2 << 20) / 4096u32).step_by(17) {
            let got = rig.read(fh, blk * 4096, 4096);
            assert_eq!(
                got,
                NfsRig::pattern(fh, u64::from(blk) * 4096, 4096),
                "{mode}: stride block {blk}"
            );
        }
    }
}

#[test]
fn nfs_lookup_and_getattr_work_in_all_modes() {
    for mode in ServerMode::ALL {
        let mut rig = NfsRig::new(mode, NfsRigParams::default());
        let fh = rig.create_file("name.bin", 12_345);
        assert_eq!(rig.lookup("name.bin"), Some(fh), "{mode}");
        assert_eq!(rig.lookup("ghost"), None, "{mode}");
        assert_eq!(rig.getattr(fh), NFS_OK, "{mode}");
    }
}

#[test]
fn baseline_ships_junk_but_correct_lengths() {
    let mut rig = NfsRig::new(ServerMode::Baseline, NfsRigParams::default());
    let fh = rig.create_file("junk", 64 << 10);
    let (hdr, data) = rig.read_with_header(fh, 0, 32 << 10);
    assert_eq!(hdr.status, NFS_OK);
    assert_eq!(hdr.count, 32 << 10, "lengths must be truthful");
    assert_eq!(data.len(), 32 << 10);
    assert_ne!(
        data,
        NfsRig::pattern(fh, 0, 32 << 10),
        "the measurement build does not move real payloads (§5.1)"
    );
}

#[test]
fn khttpd_serves_exact_pages_across_modes() {
    for mode in correct_modes() {
        let mut rig = KhttpdRig::new(mode, KhttpdRigParams::default());
        for (name, size) in [("tiny", 100u64), ("page", 75_000), ("block", 4096)] {
            rig.publish(name, size);
        }
        for (name, size) in [("tiny", 100u64), ("page", 75_000), ("block", 4096)] {
            let (hdr, body) = rig.get(&format!("/{name}"));
            assert_eq!(hdr.status, 200, "{mode}: {name}");
            assert_eq!(hdr.content_length, size, "{mode}: {name}");
            assert_eq!(body, rig.expected(name, size), "{mode}: {name}");
        }
        // Repeat from cache.
        let (_, body) = rig.get("/page");
        assert_eq!(body, rig.expected("page", 75_000), "{mode}: cached");
    }
}

#[test]
fn khttpd_substitution_leaves_no_placeholder_junk() {
    let mut rig = KhttpdRig::new(ServerMode::NCache, KhttpdRigParams::default());
    rig.publish("p", 200_000);
    for _ in 0..3 {
        let (_, body) = rig.get("/p");
        assert_eq!(body, rig.expected("p", 200_000));
    }
    let module = rig.module().expect("ncache build");
    let totals = module.borrow().substitution_totals();
    assert!(totals.substituted >= 3 * 48, "every body block substituted");
    assert_eq!(totals.missing, 0, "no key may miss the cache");
}

#[test]
fn ncache_pinned_memory_is_bounded() {
    let cap = 64u64 * (4096 + 128);
    let params = NfsRigParams {
        ncache_bytes: cap,
        ..NfsRigParams::default()
    };
    let mut rig = NfsRig::new(ServerMode::NCache, params);
    let fh = rig.create_file("big", 4 << 20);
    for blk in 0..(4 << 20) / 32768u32 {
        rig.read(fh, blk * 32768, 32768);
        let module = rig.module().expect("ncache build");
        let pinned = module.borrow().pinned_bytes();
        assert!(pinned <= cap, "pinned {pinned} exceeds capacity {cap}");
    }
}

#[test]
fn table1_inventory_holds_structurally() {
    // The NCache build must reuse the *same* file-system and buffer-cache
    // code as the original build — only the initiator and the standalone
    // module differ. This is enforced by construction (one Filesystem
    // type, one BufferCache type); here we assert the declared inventory.
    use ncache_repro::servers::hooks::modification_footprint;
    let rows = modification_footprint(ServerMode::NCache);
    assert!(rows
        .iter()
        .any(|h| h.component == "NFS/Web server daemon" && h.modification == "None"));
    assert!(rows
        .iter()
        .any(|h| h.component == "buffer cache" && h.modification == "None"));
    // ... and the crate graph, which is what "untouched" means here: the
    // layers Table 1 lists as unmodified must not be able to name the
    // module at all. Every manifest under crates/ is read, so a new crate
    // cannot hide an edge.
    let crates = format!("{}/crates", env!("CARGO_MANIFEST_DIR"));
    let mut checked = Vec::new();
    for dir in std::fs::read_dir(&crates).expect("crates/") {
        let manifest = dir.expect("dir entry").path().join("Cargo.toml");
        let text = std::fs::read_to_string(&manifest).expect("crate manifest");
        let key = |line: &str| line.split(['=', '.', ' ']).next().unwrap_or("").to_string();
        let name = text
            .lines()
            .find_map(|l| l.strip_prefix("name = "))
            .expect("package name")
            .trim_matches('"')
            .to_string();
        if ["simfs", "proto", "netbuf", "blockdev"].contains(&name.as_str()) {
            assert!(
                !text.lines().any(|l| key(l) == "ncache"),
                "{name} -> ncache: {} names the module (Table 1: untouched)",
                manifest.display()
            );
            checked.push(name);
        }
    }
    checked.sort();
    assert_eq!(checked, ["blockdev", "netbuf", "proto", "simfs"]);
    // ... and the daemons' source, which is what "NFS/Web server daemon:
    // None" means here: which build runs is `ServerHost`'s business (its
    // read, write, remove, sendfile and transmit bodies), so the non-test
    // part of nfsd and kHTTPd names neither the build nor the module.
    let servers = format!("{}/crates/servers/src", env!("CARGO_MANIFEST_DIR"));
    let tokens = [
        "ServerMode",
        "ncache::",
        "use ncache",
        "netbuf::key",
        ".mode",
    ];
    let mut named = Vec::new();
    for daemon in ["nfs.rs", "khttpd.rs"] {
        let text = std::fs::read_to_string(format!("{servers}/{daemon}")).expect("daemon source");
        let nontest = text
            .lines()
            .enumerate()
            .take_while(|(_, l)| !l.trim_start().starts_with("#[cfg(test)]"));
        for (n, line) in nontest {
            for token in tokens {
                if line.contains(token) {
                    named.push(format!("{daemon}:{}: `{token}` in {}", n + 1, line.trim()));
                }
            }
        }
    }
    assert!(
        named.is_empty(),
        "a daemon names the build (Table 1: untouched):\n{}",
        named.join("\n")
    );
}

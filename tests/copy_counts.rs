//! Table 2, measured: data copies per request on every path and build.
//!
//! These are the paper's central numbers. The ledgers count real `memcpy`s
//! in the data plane, so the assertions here are measurements, not
//! assumptions.

use ncache_repro::netbuf::{NetBuf, Segment};
use ncache_repro::servers::ServerMode;
use ncache_repro::testbed::experiments::{render_table2, table2, Exp, Scale};
use ncache_repro::testbed::nfs_rig::{NfsRig, NfsRigParams};

#[test]
fn table2_matches_the_paper_exactly() {
    let rows = table2(&Exp::new(&Scale::quick()));
    let get = |path: &str| {
        rows.iter()
            .find(|r| r.path == path)
            .unwrap_or_else(|| panic!("missing row {path}"))
            .copies
    };
    // Original build — Table 2 of the paper.
    assert_eq!(get("NFS read (hit)"), [2, 0, 0]);
    assert_eq!(get("NFS read (miss)"), [3, 0, 0]);
    assert_eq!(get("NFS write (overwritten)"), [1, 0, 0]);
    assert_eq!(get("NFS write (flushed)"), [2, 0, 0]);
    assert_eq!(get("kHTTPd (hit)"), [1, 0, 0]);
    assert_eq!(get("kHTTPd (miss)"), [2, 0, 0]);
    let rendered = render_table2(&rows);
    assert!(rendered.contains("original"));
    assert!(rendered.contains("baseline"));
}

#[test]
fn ncache_multiblock_read_moves_no_payload() {
    // Not just single blocks: a 32 KiB read (8 blocks) through the NCache
    // build must move zero payload bytes on the application server.
    let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
    let fh = rig.create_sparse_file("f", 1 << 20);
    rig.getattr(fh); // warm metadata
    rig.read(fh, 0, 32 << 10); // warm data into the caches
    let before = rig.ledgers().app.snapshot();
    let data = rig.read(fh, 0, 32 << 10);
    let d = rig.ledgers().app.snapshot().delta_since(&before);
    assert_eq!(d.payload_copies, 0, "zero copies on the hot read path");
    assert_eq!(d.payload_bytes_copied, 0);
    assert!(d.logical_copies > 0, "keys moved instead");
    assert_eq!(data.len(), 32 << 10);
}

#[test]
fn original_copy_bytes_scale_with_request_size() {
    // Two copies per hit: bytes copied must be exactly 2 × request size.
    let mut rig = NfsRig::new(ServerMode::Original, NfsRigParams::default());
    let fh = rig.create_file("f", 1 << 20);
    rig.read(fh, 0, 32 << 10); // warm
    for &len in &[4096u32, 8192, 16384, 32768] {
        let before = rig.ledgers().app.snapshot();
        rig.read(fh, 0, len);
        let d = rig.ledgers().app.snapshot().delta_since(&before);
        assert_eq!(
            d.payload_bytes_copied,
            2 * u64::from(len),
            "hit path: exactly two copies of {len} bytes"
        );
    }
}

#[test]
fn checksum_inheritance_happens_under_ncache() {
    use ncache_repro::testbed::khttpd_rig::{KhttpdRig, KhttpdRigParams};
    let mut rig = KhttpdRig::new(ServerMode::NCache, KhttpdRigParams::default());
    rig.publish("p", 64 << 10);
    let before = rig.ledgers().app.snapshot();
    rig.get("/p");
    let d = rig.ledgers().app.snapshot().delta_since(&before);
    assert_eq!(d.csum_bytes, 0, "NCache never recomputes payload checksums");
    assert!(d.csum_inherited > 0, "it inherits the stored one (§1)");

    // The original build does compute them on its TCP path.
    let mut orig = KhttpdRig::new(ServerMode::Original, KhttpdRigParams::default());
    orig.publish("p", 64 << 10);
    let before = orig.ledgers().app.snapshot();
    orig.get("/p");
    let d = orig.ledgers().app.snapshot().delta_since(&before);
    assert_eq!(d.csum_bytes, 64 << 10);
}

#[test]
fn garbage_error_replies_charge_the_server_like_real_ones() {
    // The happy path charges the server ledger for every request byte the
    // parser pulls plus the reply header it builds; an error reply to a
    // garbage datagram must be attributed the same way — the examined
    // bytes are not parsed for free, and no payload ever moves.
    let mut rig = NfsRig::new(ServerMode::Original, NfsRigParams::default());
    rig.create_file("ok", 8192);
    for garbage_len in [3usize, 39, 200] {
        let ledger = rig.ledgers().client.clone();
        let mut req = NetBuf::new(&ledger);
        req.append_segment(Segment::from_vec(vec![0xFFu8; garbage_len]));
        let before = rig.ledgers().app.snapshot();
        let reply = rig.handle_raw(req);
        let d = rig.ledgers().app.snapshot().delta_since(&before);
        assert!(reply.total_len() > 0, "an error reply comes back");
        assert_eq!(d.payload_copies, 0, "error replies move no payload");
        assert_eq!(d.payload_bytes_copied, 0);
        assert_eq!(d.logical_copies, 1, "one delivery of the datagram");
        // Examined request bytes (capped at the RPC call header length, as
        // on the happy path) + the error reply's header.
        let examined = garbage_len.min(ncache_repro::proto::rpc::CALL_LEN) as u64;
        assert_eq!(
            d.header_bytes,
            examined + reply.header_len() as u64,
            "garbage of {garbage_len} bytes: parse + reply build, nothing else"
        );
    }
}

#[test]
fn storage_server_copies_are_identical_across_builds() {
    // The paper changes only the application server; the storage server
    // must do the same work under every build.
    let mut per_mode = Vec::new();
    for mode in ServerMode::ALL {
        let mut rig = NfsRig::new(mode, NfsRigParams::default());
        let fh = rig.create_sparse_file("f", 256 << 10);
        rig.getattr(fh);
        let before = rig.ledgers().storage.snapshot();
        rig.read(fh, 0, 32 << 10); // cold: goes to storage
        let d = rig.ledgers().storage.snapshot().delta_since(&before);
        per_mode.push((mode, d.payload_copies, d.payload_bytes_copied));
    }
    let (_, c0, b0) = per_mode[0];
    for &(mode, c, b) in &per_mode {
        assert_eq!((c, b), (c0, b0), "{mode}: storage-side work must match");
    }
    assert!(c0 > 0, "the cold read really hit storage");
}

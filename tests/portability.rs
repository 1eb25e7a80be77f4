//! The FreeBSD-port claim of §4.2, enforced: "using mbuf, rather than
//! sk_buff, does not lead to any structural change to NCache". The cache
//! stores reference-counted payload views, so chunks built from BSD-style
//! mbuf chains flow through the same insert / remap / substitute machinery
//! as sk_buff-style buffers, byte for byte and copy for copy.

use ncache_repro::ncache::{NcacheConfig, NcacheModule};
use ncache_repro::netbuf::key::{Fho, FileHandle, Lbn};
use ncache_repro::netbuf::mbuf::{MbufChain, MCLBYTES};
use ncache_repro::netbuf::{CopyLedger, NetBuf, Segment};

#[test]
fn mbuf_payload_caches_and_substitutes_without_copies() {
    let ledger = CopyLedger::new();
    let mut module = NcacheModule::new(NcacheConfig::with_capacity(1 << 22), &ledger);

    // A block arrives as a FreeBSD mbuf chain: two clusters.
    let pattern: Vec<u8> = (0..4096u32).map(|x| (x * 7) as u8).collect();
    let arrival = MbufChain::from_segments(
        &ledger,
        vec![
            Segment::from_vec(pattern[..MCLBYTES].to_vec()),
            Segment::from_vec(pattern[MCLBYTES..].to_vec()),
        ],
    );

    // Hook 1 takes the chain's shared segments — no structural change, no
    // physical copy.
    let before = ledger.snapshot();
    let segs = arrival.share_segments(&ledger);
    let placeholder = module.on_data_in(Lbn(42), segs, 4096).expect("fits");
    assert_eq!(
        ledger.snapshot().delta_since(&before).payload_copies,
        0,
        "caching an mbuf payload moves no bytes"
    );
    assert_eq!(
        placeholder.stamp().expect("stamped").lbn,
        Some(Lbn(42))
    );

    // An outgoing sk_buff-style reply substitutes the mbuf-born chunk.
    let mut reply = NetBuf::new(&ledger);
    reply.append_segment(placeholder);
    let report = module
        .cache_handle()
        .transmit(&mut reply, None, true, &ncache_repro::obs::Recorder::new());
    assert_eq!(report.substituted, 1);
    assert_eq!(reply.copy_payload_to_vec(), pattern, "bytes intact across flavours");
}

#[test]
fn mbuf_write_path_remaps_like_sk_buff() {
    let ledger = CopyLedger::new();
    let mut module = NcacheModule::new(NcacheConfig::with_capacity(1 << 22), &ledger);

    // An NFS write arrives as an mbuf chain.
    let fresh = vec![0xB7u8; 4096];
    let chain = MbufChain::from_segments(&ledger, vec![Segment::from_vec(fresh.clone())]);
    let fho = Fho::new(FileHandle(5), 0);
    let stamp = module
        .on_nfs_write(fho, chain.share_segments(&ledger), 4096)
        .expect("fits");

    // Flush: remap FHO→LBN; the outgoing iSCSI payload can be re-wrapped
    // as an mbuf chain for a BSD initiator, still without copying.
    let segs = module.on_flush_stamp(stamp, Lbn(9)).expect("remapped");
    let before = ledger.snapshot();
    let outgoing = MbufChain::from_segments(&ledger, segs);
    assert_eq!(
        ledger.snapshot().delta_since(&before).payload_copies,
        0,
        "re-wrapping as mbufs is logical"
    );
    assert_eq!(outgoing.to_bytes(&ledger), fresh);
    assert!(module.cache_contains_lbn(Lbn(9)));
}

#[test]
fn chains_round_trip_between_flavours() {
    // sk_buff → mbuf → sk_buff preserves both bytes and sharing.
    let ledger = CopyLedger::new();
    let seg = Segment::from_vec((0..2048u16).map(|x| x as u8).collect());
    let mut skb = NetBuf::new(&ledger);
    skb.append_segment(seg.clone());

    let chain = MbufChain::from_segments(&ledger, skb.take_payload());
    let mut back = NetBuf::new(&ledger);
    for s in chain.share_segments(&ledger) {
        back.append_segment(s);
    }
    assert!(
        back.segments().next().expect("one segment").same_storage(&seg),
        "the storage is shared across all three representations"
    );
    assert_eq!(back.copy_payload_to_vec(), seg.as_slice());
}

#[test]
fn iscsi_write_handshake_uses_r2t() {
    // The write path follows the iSCSI handshake: command → R2T → Data-Out
    // → response. Proven indirectly: `IscsiTarget::solicit` grants exactly
    // the command's transfer length, and the full write path (which now
    // consumes the R2T) still round-trips.
    use ncache_repro::proto::iscsi::{IscsiPdu, ScsiCommand, ScsiOp};
    use ncache_repro::servers::IscsiTarget;
    let ledger = CopyLedger::new();
    let target = IscsiTarget::new(64, &ledger);
    let cmd = ScsiCommand {
        itt: 5,
        op: ScsiOp::Write,
        lbn: 3,
        blocks: 2,
    };
    let r2t = target.solicit(cmd);
    let decoded = IscsiPdu::decode(r2t.header()).expect("valid");
    let IscsiPdu::R2T(grant) = decoded else {
        panic!("expected R2T, got {decoded:?}");
    };
    assert_eq!(grant.itt, 5);
    assert_eq!(grant.lbn, 3);
    assert_eq!(grant.desired_len, 2 * 4096);
}

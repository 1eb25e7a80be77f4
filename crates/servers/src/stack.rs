//! The network stack each node runs: delivery.
//!
//! Senders push their protocol headers (RPC, NFS, iSCSI, HTTP) onto a
//! [`NetBuf`]; receivers take delivery ([`deliver`]) and parse them off.
//! Delivery models NIC DMA: the frame lands in the receiver's memory
//! without CPU copies, and — crucially for NCache — the payload segments
//! keep their shared storage, so data cached straight off the wire is the
//! same memory that later goes back out. Ethernet, IPv4 and UDP/TCP
//! framing is modeled, not built: `sim::costs` charges per-packet CPU by
//! transport and the testbed adds a fixed per-message header overhead to
//! the wire bytes.

use netbuf::{CopyLedger, NetBuf};

/// Delivers a transmitted buffer into a receiving node's memory: the
/// sender's built headers land in the linear area of a fresh buffer charged
/// to the *receiver's* ledger, as its leading payload bytes. Payload
/// segments keep their shared storage, one logical copy per buffer
/// ([`NetBuf::attach_chain_of`]); nothing is physically copied (NIC DMA),
/// and a frame that is all headers costs the host no allocation.
pub fn deliver(sent: &NetBuf, receiver: &CopyLedger) -> NetBuf {
    let mut rx = NetBuf::new(receiver);
    rx.reserve_segments(sent.segment_count());
    // Built headers — or, when `sent` is itself an unparsed delivery, what
    // it landed.
    if !sent.linear().is_empty() {
        rx.land(sent.linear());
    }
    rx.attach_chain_of(sent, usize::MAX);
    rx
}

/// Delivers a transmitted buffer through a faulty link.
///
/// Draws one fault decision from `plan` for `link` and applies it to the
/// delivery:
///
/// * `Drop` — nothing arrives (`None`).
/// * `Corrupt` — a bit flips in the *landing area* of the delivered frame
///   (delivery copies headers into receiver memory; shared payload storage
///   is never mutated). Headerless frames land a private copy of their
///   first segment and corrupt that instead. Either way the damage is
///   confined to this delivery and is protocol-detectable.
/// * `Truncate` — only a prefix of the frame arrives; shared segments are
///   clipped with [`netbuf::Segment::slice`], again leaving storage intact.
/// * `Duplicate` / `Reorder` / `Delay` — the frame arrives intact; the
///   kind is returned so the *caller* (who owns both ends of the
///   synchronous exchange) can replay, resequence, or time out.
///
/// Returns the delivered frame (if any) and the fault applied (if any).
/// A faultless draw is exactly [`deliver`].
pub fn deliver_faulty(
    sent: &NetBuf,
    receiver: &CopyLedger,
    plan: &mut sim::FaultPlan,
    link: sim::FaultLink,
) -> (Option<NetBuf>, Option<sim::FaultKind>) {
    use sim::FaultKind;
    let kind = plan.draw(link);
    match kind {
        Some(FaultKind::Drop) => (None, kind),
        Some(FaultKind::Corrupt { pos, bit }) => {
            let mut rx = deliver(sent, receiver);
            if sent.linear().is_empty() {
                // Headerless: the first segment, if it has bytes, arrives
                // as a private copy.
                rx.land_first_segment();
            }
            let private = rx.landed_mut();
            if !private.is_empty() {
                private[(pos % private.len() as u64) as usize] ^= 1u8 << (bit & 7);
            }
            (Some(rx), kind)
        }
        Some(FaultKind::Truncate { keep_ppm }) => {
            let total = sent.total_len() as u64;
            let mut keep = (total * u64::from(keep_ppm) / sim::fault::PPM) as usize;
            let mut rx = NetBuf::new(receiver);
            let take = keep.min(sent.linear().len());
            if take > 0 {
                rx.land(&sent.linear()[..take]);
            }
            keep -= take;
            rx.attach_chain_of(sent, keep);
            (Some(rx), kind)
        }
        // Delivered intact; the semantics (replay, resequencing, timeout)
        // live with the caller, who owns both ends of the exchange.
        Some(FaultKind::Duplicate) | Some(FaultKind::Reorder) | Some(FaultKind::Delay) => {
            (Some(deliver(sent, receiver)), kind)
        }
        None => (Some(deliver(sent, receiver)), None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netbuf::Segment;
    use proto::nfs::proc;
    use proto::rpc::{RpcCall, CALL_LEN};

    /// The RPC call header's leading field.
    const XID_LEN: usize = 4;

    /// Pushes the RPC call header an NFS client puts on a WRITE.
    fn push_call(pkt: &mut NetBuf) {
        pkt.push_header(&RpcCall::nfs(1, proc::WRITE).encode_array());
    }

    #[test]
    fn delivery_is_zero_copy_and_rehomed() {
        let tx_ledger = CopyLedger::new();
        let rx_ledger = CopyLedger::new();
        let payload = Segment::from_vec(vec![7u8; 100]);
        let mut pkt = NetBuf::new(&tx_ledger);
        pkt.append_segment(payload.clone());
        push_call(&mut pkt);

        let before_rx = rx_ledger.snapshot();
        let rx = deliver(&pkt, &rx_ledger);
        assert_eq!(
            rx_ledger.snapshot().delta_since(&before_rx).payload_copies,
            0,
            "delivery is DMA"
        );
        // The payload segment is the same storage end to end.
        assert!(rx
            .segments()
            .any(|s| s.same_storage(&payload)));
        let before = rx_ledger.snapshot();
        rx.ledger().charge_logical_copy();
        let d = rx_ledger.snapshot().delta_since(&before);
        assert_eq!(d.logical_copies, 1, "the receiver's ledger");
    }

    #[test]
    fn headers_land_and_an_unparsed_delivery_is_redelivered_whole() {
        let ledger = CopyLedger::new();
        let payload = Segment::from_vec(vec![7u8; 100]);
        let mut pkt = NetBuf::new(&ledger);
        pkt.append_segment(payload.clone());
        push_call(&mut pkt);
        let mut rx = deliver(&pkt, &ledger);
        // The headers are in the receive buffer's own linear area; the
        // chain is the sender's payload and nothing else.
        assert_eq!((rx.header_len(), rx.linear().len(), rx.segment_count()), (0, CALL_LEN, 1));
        // A hop that parsed only the xid forwards the rest.
        rx.pull_array::<XID_LEN>();
        let before = ledger.snapshot();
        let again = deliver(&rx, &ledger);
        assert_eq!(ledger.snapshot().delta_since(&before).logical_copies, 2);
        assert_eq!(again.to_wire(), pkt.to_wire()[XID_LEN..]);
        assert!(again.segments().all(|s| s.same_storage(&payload)));
    }

    #[test]
    fn faulty_delivery_at_rate_zero_is_plain_delivery() {
        let ledger = CopyLedger::new();
        let mut plan = sim::FaultPlan::new(&sim::FaultSpec::default(), 42);
        let payload = Segment::from_vec(vec![5u8; 64]);
        let mut pkt = NetBuf::new(&ledger);
        pkt.append_segment(payload.clone());
        pkt.push_header(&[1, 2, 3, 4]);
        for _ in 0..50 {
            let (rx, kind) = deliver_faulty(&pkt, &ledger, &mut plan, sim::FaultLink::ClientServer);
            let rx = rx.expect("nothing drops at rate zero");
            assert_eq!(kind, None);
            assert!(rx.segments().any(|s| s.same_storage(&payload)));
            assert_eq!(rx.total_len(), pkt.total_len());
        }
    }

    #[test]
    fn corruption_never_touches_shared_payload_storage() {
        let ledger = CopyLedger::new();
        let spec = sim::FaultSpec {
            corrupt: 1.0,
            ..sim::FaultSpec::default()
        };
        let mut plan = sim::FaultPlan::new(&spec, 7);
        let payload = Segment::from_vec(vec![5u8; 256]);
        let mut pkt = NetBuf::new(&ledger);
        pkt.append_segment(payload.clone());
        pkt.push_header(&[0u8; 16]);
        let mut corrupted = 0;
        for _ in 0..32 {
            let (rx, kind) = deliver_faulty(&pkt, &ledger, &mut plan, sim::FaultLink::ClientServer);
            let rx = rx.expect("corruption still delivers");
            if matches!(kind, Some(sim::FaultKind::Corrupt { .. })) {
                corrupted += 1;
                // The flip landed in the header-copy region, not the body.
                let bytes = rx.copy_payload_to_vec();
                assert_ne!(&bytes[..16], &[0u8; 16], "header bit flipped");
                assert_eq!(&bytes[16..], &[5u8; 256][..], "payload intact");
            }
            // The shared storage is pristine either way.
            assert_eq!(payload.as_slice(), &[5u8; 256][..]);
        }
        assert!(corrupted > 0, "rate-1.0 corruption fired");
    }

    #[test]
    fn truncation_clips_without_mutating_storage() {
        let ledger = CopyLedger::new();
        let spec = sim::FaultSpec {
            truncate: 1.0,
            ..sim::FaultSpec::default()
        };
        let mut plan = sim::FaultPlan::new(&spec, 9);
        let payload = Segment::from_vec(vec![8u8; 100]);
        let mut pkt = NetBuf::new(&ledger);
        pkt.append_segment(payload.clone());
        pkt.push_header(&[1u8; 10]);
        let mut truncated = 0;
        for _ in 0..32 {
            let (rx, kind) = deliver_faulty(&pkt, &ledger, &mut plan, sim::FaultLink::InitiatorTarget);
            let rx = rx.expect("truncation still delivers");
            if matches!(kind, Some(sim::FaultKind::Truncate { .. })) {
                truncated += 1;
                assert!(rx.total_len() < pkt.total_len());
            }
            assert_eq!(payload.len(), 100, "shared storage untouched");
        }
        assert!(truncated > 0, "rate-1.0 truncation fired");
    }

    #[test]
    fn drops_deliver_nothing_and_same_seed_replays_identically() {
        let ledger = CopyLedger::new();
        let spec = sim::FaultSpec::parse("loss=0.5").unwrap();
        let mut a = sim::FaultPlan::new(&spec, 1234);
        let mut b = sim::FaultPlan::new(&spec, 1234);
        let mut pkt = NetBuf::new(&ledger);
        pkt.append_segment(Segment::from_vec(vec![3u8; 32]));
        pkt.push_header(&[9u8; 8]);
        let mut dropped = 0;
        for _ in 0..64 {
            let (rx_a, kind_a) = deliver_faulty(&pkt, &ledger, &mut a, sim::FaultLink::ClientServer);
            let (rx_b, kind_b) = deliver_faulty(&pkt, &ledger, &mut b, sim::FaultLink::ClientServer);
            assert_eq!(kind_a, kind_b, "same seed, same schedule");
            assert_eq!(rx_a.is_none(), rx_b.is_none());
            if kind_a == Some(sim::FaultKind::Drop) {
                assert!(rx_a.is_none());
                dropped += 1;
            }
        }
        assert!(dropped > 0, "50% loss fired");
    }

    #[test]
    fn headers_charged_as_header_bytes_not_copies() {
        let ledger = CopyLedger::new();
        let mut pkt = NetBuf::new(&ledger);
        pkt.append_segment(Segment::from_vec(vec![0u8; 100]));
        let before = ledger.snapshot();
        push_call(&mut pkt);
        let d = ledger.snapshot().delta_since(&before);
        assert_eq!(d.payload_copies, 0);
        assert_eq!(d.header_bytes, CALL_LEN as u64);
    }
}

//! `NetBuf` against a flat-bytes model, and faulty delivery against the
//! frame it was given.
//!
//! The buffer keeps its headers in an inline linear area that spills to
//! the heap, lands a delivered frame's headers in that same area as the
//! front of its payload, keeps the rest of the payload in a chain whose
//! length is cached and whose first segment lives inline, and parses fixed
//! headers into stack arrays — all host-side representation. The ops cross
//! the chain's one-segment boundary both ways: landed bytes spilling in
//! front of it, pulls and pointer surgery cutting it down to one segment
//! or none, appends and deliveries growing it again. None of it may be observable: for any op
//! sequence the wire bytes are `header ++ payload` of a two-`Vec<u8>`
//! model, and the ledger moves by exactly the closed-form charge of each
//! op (header bytes for pushes and pulls, one logical copy per
//! attach/land/share/replace, one payload copy per physical copy, nothing
//! for peeks, takes and reservations). A `share()`/`clone()` forks the
//! model too: mutating one side must never show on the other.
//!
//! Segments come in every storage kind: fully stored, placeholders that
//! store only their key stamp, and zeros that store nothing — viewed whole
//! or sliced across the stored/zero boundary, split, advanced and pulled
//! through it — and multi-block pooled appends whose slabs a delivery
//! attaches as one buffer (one logical copy).

use check::gen::*;
use check::{prop_assert, prop_assert_eq, property, Failed, PropResult};
use netbuf::buf::HEADROOM;
use netbuf::key::{KeyStamp, Lbn};
use netbuf::{BufPool, CopyLedger, LedgerSnapshot, NetBuf, SegChain, Segment, SLAB_SIZE};
use servers::stack::{deliver, deliver_faulty};
use sim::{FaultKind, FaultLink, FaultPlan, FaultSpec};

/// One buffer and the flat bytes it must serialize to.
struct Side {
    buf: NetBuf,
    header: Vec<u8>,
    payload: Vec<u8>,
}

impl Side {
    fn check(&self) -> PropResult {
        let mut wire = self.header.clone();
        wire.extend_from_slice(&self.payload);
        prop_assert_eq!(self.buf.to_wire(), wire, "wire bytes");
        prop_assert_eq!(self.buf.header(), &self.header[..], "header bytes");
        prop_assert_eq!(self.buf.header_len(), self.header.len());
        prop_assert_eq!(self.buf.payload_len(), self.payload.len());
        prop_assert_eq!(self.buf.total_len(), wire.len());
        prop_assert_eq!(self.buf.total_len() == 0, wire.is_empty());
        // The linear area holds headers or landed payload, never both.
        let landed: &[u8] = if self.header.is_empty() { self.buf.linear() } else { &[] };
        let chain: Vec<u8> = landed
            .iter()
            .copied()
            .chain(self.buf.segments().flat_map(|s| s.runs().flatten().copied()))
            .collect();
        prop_assert_eq!(chain, self.payload.clone(), "landed + chain bytes");
        prop_assert_eq!(self.buf.segments().count(), self.buf.segment_count());
        prop_assert!(self.buf.buffer_count() <= self.buf.segment_count());
        if let Some(run) = self.buf.payload_contiguous() {
            prop_assert_eq!(run, &self.payload[..], "contiguous payload");
        }
        Ok(())
    }
}

/// Distinct bytes per op, so a misplaced run shows.
fn fill(tag: u32, len: usize) -> Vec<u8> {
    (0..len).map(|i| (tag as usize * 31 + i) as u8).collect()
}

/// `pull_array`/`peek_array` at one of the workspace's header sizes,
/// checked against the model bytes.
fn array_op(side: &mut Side, pick: u32, off: usize, pull: bool) -> Result<usize, Failed> {
    macro_rules! at {
        ($n:literal) => {{
            if off + $n > side.payload.len() {
                return Ok(0);
            }
            if pull {
                prop_assert_eq!(side.buf.pull_array::<$n>()[..], side.payload[..$n]);
                side.payload.drain(..$n);
            } else {
                prop_assert_eq!(
                    side.buf.peek_array::<$n>(off)[..],
                    side.payload[off..off + $n]
                );
            }
            Ok($n)
        }};
    }
    match pick % 6 {
        0 => at!(1),
        1 => at!(4),
        2 => at!(14),
        3 => at!(20),
        4 => at!(24),
        _ => at!(48),
    }
}

property! {
    #![cases(96)]

    fn prop_netbuf_matches_the_flat_model(
        start in ints(0u8..4),
        ops in vec_of((ints(0u8..17), any_u32(), any_u32()), 1..64),
    ) {
        let ledger = CopyLedger::new();
        let pool = BufPool::slab_only();
        let stamps = BufPool::stamp_only();
        let mut expect = LedgerSnapshot::default();
        // Sent frames: fresh, or received ones whose landed bytes every op
        // below then meets unparsed — an odd-length landing, one larger
        // than the inline area, and a delivered frame whose 54 landed
        // bytes and 7-byte first segment the 14..48-byte array pulls
        // straddle.
        let mut first = Side { buf: NetBuf::new(&ledger), header: Vec::new(), payload: Vec::new() };
        expect.allocations += 1;
        match start {
            0 => {}
            1 | 2 => {
                first.payload = fill(99, if start == 1 { 41 } else { 3 * HEADROOM + 1 });
                first.buf.land(&first.payload);
                expect.logical_copies += 1;
            }
            _ => {
                let mut sent = NetBuf::new(&CopyLedger::new());
                sent.append_segment(Segment::from_vec(fill(98, 7)));
                sent.append_segment(Segment::from_vec(fill(97, 300)));
                sent.push_header(&fill(99, 54));
                first.buf = deliver(&sent, &ledger);
                first.payload = sent.to_wire();
                expect.allocations += 1;
                expect.logical_copies += 3;
            }
        }
        first.check()?;
        prop_assert_eq!(ledger.snapshot(), expect, "ledger after the start");
        let mut sides = vec![first];
        let mut active = 0usize;
        for (tag, (kind, a, b)) in ops.into_iter().enumerate() {
            let tag = tag as u32;
            let forked = sides.len() > 1;
            let side = &mut sides[active];
            match kind {
                // A protocol-sized header, or one large enough to exhaust
                // the headroom and regrow the spill.
                0 | 1 => {
                    let len = if kind == 0 { a as usize % 64 } else { a as usize % (3 * HEADROOM) };
                    let bytes = fill(tag, len);
                    side.buf.push_header(&bytes);
                    side.header.splice(0..0, bytes);
                    expect.header_bytes += len as u64;
                }
                // An appended segment is a buffer of its own, behind
                // fragments or not.
                2 => {
                    let bytes = fill(tag, a as usize % 300);
                    let bufs = side.buf.buffer_count();
                    side.buf.append_segment(Segment::from_vec(bytes.clone()));
                    prop_assert_eq!(side.buf.buffer_count(), bufs + 1, "one buffer more");
                    side.payload.extend_from_slice(&bytes);
                    expect.logical_copies += 1;
                }
                3 => {
                    let bytes = fill(tag, a as usize % 300);
                    let bufs = side.buf.buffer_count();
                    match b % 4 {
                        0 => side.buf.append_bytes(&bytes),
                        1 => side.buf.append_vec(bytes.clone()),
                        2 => side.buf.append_pooled(&pool, &bytes),
                        _ => side.buf.append_written(&pool, bytes.len(), |w| w.put(&bytes)),
                    }
                    prop_assert_eq!(side.buf.buffer_count(), bufs + 1, "one buffer more");
                    side.payload.extend_from_slice(&bytes);
                    expect.payload_copies += 1;
                    expect.payload_bytes_copied += bytes.len() as u64;
                }
                4 => {
                    let n = a as usize % (side.payload.len() + 1);
                    prop_assert_eq!(side.buf.pull(n), side.payload[..n].to_vec(), "pull");
                    side.payload.drain(..n);
                    expect.header_bytes += n as u64;
                }
                5 => {
                    expect.header_bytes += array_op(side, a, 0, true)? as u64;
                }
                6 => {
                    let off = a as usize % (side.payload.len() + 1);
                    let len = b as usize % (side.payload.len() - off + 1);
                    prop_assert_eq!(side.buf.peek(off, len), side.payload[off..off + len].to_vec(), "peek");
                }
                7 => {
                    let off = b as usize % (side.payload.len() + 1);
                    array_op(side, a, off, false)?;
                }
                // Pointer surgery: take the chain, rearrange it — or cut it
                // to its first segment, or to nothing — and put it back, as
                // a vector or rebuilt front to back as a chain.
                8 => {
                    let mut segs: Vec<Segment> = side.buf.take_payload().into();
                    prop_assert_eq!(side.buf.payload_len(), 0);
                    prop_assert_eq!(side.buf.segment_count(), 0);
                    match b % 6 {
                        0 => {}
                        1 => segs.reverse(),
                        2 => segs = segs.iter().map(|s| s.slice(0, s.len() / 2)).collect(),
                        3 => segs.truncate(1),
                        4 => {
                            segs = segs
                                .iter()
                                .flat_map(|s| {
                                    let (front, back) = s.split_at(s.len() / 3);
                                    [front, back]
                                })
                                .collect()
                        }
                        _ => segs.clear(),
                    }
                    side.payload = segs.iter().flat_map(Segment::to_vec).collect();
                    if a & 1 == 1 {
                        side.buf.replace_payload(segs);
                    } else {
                        let mut chain = SegChain::new();
                        for seg in segs.into_iter().rev() {
                            chain.push_front(seg);
                        }
                        side.buf.replace_payload(chain);
                    }
                    expect.logical_copies += 1;
                }
                // Fork once (share or clone), then alternate sides.
                9 => {
                    if !forked {
                        let twin = if b & 1 == 1 {
                            expect.logical_copies += 1;
                            side.buf.share()
                        } else {
                            side.buf.clone()
                        };
                        let (header, payload) = (side.header.clone(), side.payload.clone());
                        sides.push(Side { buf: twin, header, payload });
                    }
                    active = (active + 1) % sides.len();
                }
                10 => {
                    if b & 1 == 1 {
                        prop_assert_eq!(side.buf.copy_payload_to_vec(), side.payload.clone());
                    } else {
                        let seg = side.buf.copy_payload_to_pooled(&pool);
                        prop_assert_eq!(seg.to_vec(), side.payload.clone());
                    }
                    expect.payload_copies += 1;
                    expect.payload_bytes_copied += side.payload.len() as u64;
                }
                11 => {
                    side.buf.reserve_segments(a as usize % 32);
                    if b & 1 == 1 {
                        side.buf.inherit_csum();
                        expect.csum_inherited += 1;
                    } else {
                        // Against a one-segment buffer of the same bytes:
                        // an odd-length landed prefix carries its last
                        // byte into the chain.
                        let mut flat = NetBuf::new(&CopyLedger::new());
                        flat.append_vec(side.payload.clone());
                        prop_assert_eq!(side.buf.compute_csum(), flat.compute_csum(), "checksum");
                        expect.csum_bytes += side.payload.len() as u64;
                    }
                }
                // Landing: into the linear area when the buffer is fresh,
                // behind what it holds otherwise.
                12 => {
                    let len = if b & 1 == 1 { a as usize % 80 } else { a as usize % (3 * HEADROOM) };
                    let bytes = fill(tag, len);
                    side.buf.land(&bytes);
                    side.payload.extend_from_slice(&bytes);
                    expect.logical_copies += 1;
                }
                // Pull down to the chain's last segment: the landed bytes
                // and every segment ahead of it go, the survivor moves
                // into the chain's inline slot.
                13 => {
                    let keep = side.buf.segments().last().map_or(0, Segment::len);
                    let n = side.payload.len() - keep;
                    prop_assert_eq!(side.buf.pull(n), side.payload[..n].to_vec(), "pull to the last segment");
                    side.payload.drain(..n);
                    expect.header_bytes += n as u64;
                }
                // A segment that stores less than it views: a placeholder
                // (its stamp, then zeros) or zeros alone, attached whole or
                // as a slice that may straddle the stored prefix.
                14 => {
                    let len = KeyStamp::LEN + a as usize % (2 * SLAB_SIZE);
                    let (seg, bytes) = if b & 1 == 0 {
                        let stamp = KeyStamp::new().with_lbn(Lbn(u64::from(a)));
                        let mut bytes = vec![0u8; len];
                        stamp.encode_into(&mut bytes);
                        (stamps.placeholder(&stamp, len), bytes)
                    } else {
                        (Segment::zeroed(len), vec![0u8; len])
                    };
                    let off = (b as usize >> 1) % (len + 1);
                    let cut = (b as usize >> 16) % (len - off + 1);
                    side.buf.append_segment(seg.slice(off, cut));
                    side.payload.extend_from_slice(&bytes[off..off + cut]);
                    expect.logical_copies += 1;
                }
                // A multi-block pooled append: one slab per block, one
                // payload copy, one buffer. A buffer holds one such append
                // (one socket send), so a buffer that has fragments
                // already skips it.
                15 => {
                    if side.buf.buffer_count() < side.buf.segment_count() {
                        continue;
                    }
                    let bytes = fill(tag, SLAB_SIZE + 1 + a as usize % (2 * SLAB_SIZE));
                    let bufs = side.buf.buffer_count();
                    side.buf.append_pooled(&pool, &bytes);
                    prop_assert_eq!(side.buf.buffer_count(), bufs + 1, "one buffer more");
                    prop_assert_eq!(side.buf.buffer_count() + bytes.len().div_ceil(SLAB_SIZE) - 1, side.buf.segment_count());
                    side.payload.extend_from_slice(&bytes);
                    expect.payload_copies += 1;
                    expect.payload_bytes_copied += bytes.len() as u64;
                }
                // Delivery of whatever this is — a built frame, or a
                // delivered one still (partly) unparsed: the linear area
                // re-lands, the chain rides by reference, one logical copy
                // per buffer, and the delivery has the buffers it was
                // charged for.
                _ => {
                    expect.allocations += 1;
                    expect.logical_copies += u64::from(!side.buf.linear().is_empty());
                    expect.logical_copies += side.buf.buffer_count() as u64;
                    let shape = (side.buf.segment_count(), side.buf.buffer_count());
                    side.buf = deliver(&side.buf, &ledger);
                    prop_assert_eq!((side.buf.segment_count(), side.buf.buffer_count()), shape, "delivered shape");
                    let header = std::mem::take(&mut side.header);
                    side.payload.splice(0..0, header);
                }
            }
            for side in &sides {
                side.check()?;
            }
            prop_assert_eq!(ledger.snapshot(), expect, "ledger after op {} (kind {})", tag, kind);
        }
    }
}

/// A frame whose header either fits the headroom, spilled past it, or is
/// absent, over a two-segment payload; plus pristine copies of the payload
/// storage.
fn frame(header_len: usize) -> (NetBuf, [Segment; 2], [Vec<u8>; 2]) {
    let bytes = [fill(1, 700), fill(2, 900)];
    let segs = [
        Segment::from_vec(bytes[0].clone()),
        Segment::from_vec(bytes[1].clone()),
    ];
    let mut pkt = NetBuf::new(&CopyLedger::new());
    for seg in &segs {
        pkt.append_segment(seg.clone());
    }
    if header_len > 0 {
        pkt.push_header(&fill(3, header_len));
    }
    (pkt, segs, bytes)
}

property! {
    #![cases(48)]

    /// Corrupt deliveries differ from the sent frame in exactly one bit,
    /// and that bit is in receiver-private memory: the sender's payload
    /// storage still reads as it did, for headers in the headroom, spilled
    /// headers and headerless frames (whose first segment is copied before
    /// the flip).
    fn prop_corruption_never_mutates_shared_payload(
        seed in any_u64(),
        header_len in one_of(vec![boxed(just(0usize)), boxed(just(42)), boxed(just(3 * HEADROOM))]),
    ) {
        let (pkt, segs, pristine) = frame(header_len);
        let spec = FaultSpec { corrupt: 1.0, ..FaultSpec::default() };
        let mut plan = FaultPlan::new(&spec, seed);
        let rx_ledger = CopyLedger::new();
        let mut corrupted = 0;
        for _ in 0..8 {
            let (rx, kind) = deliver_faulty(&pkt, &rx_ledger, &mut plan, FaultLink::ClientServer);
            let rx = rx.expect("corruption still delivers");
            let (sent, got) = (pkt.to_wire(), rx.to_wire());
            prop_assert_eq!(got.len(), sent.len());
            let flipped: u32 = sent.iter().zip(&got).map(|(a, b)| (a ^ b).count_ones()).sum();
            if matches!(kind, Some(FaultKind::Corrupt { .. })) {
                corrupted += 1;
                prop_assert_eq!(flipped, 1, "exactly one bit flips");
                let first_diff = sent.iter().zip(&got).position(|(a, b)| a != b).expect("one bit");
                let private = if header_len > 0 { header_len } else { segs[0].len() };
                prop_assert_eq!(rx.linear().len(), private, "the private copy is the landing area");
                prop_assert!(first_diff < private, "flip at {} is outside the private copy", first_diff);
            } else {
                prop_assert_eq!(flipped, 0);
            }
            for (seg, bytes) in segs.iter().zip(&pristine) {
                prop_assert_eq!(seg.as_slice(), &bytes[..], "shared storage pristine");
            }
            // The untouched payload still rides by reference: every chain
            // segment of the delivery is the sender's storage (a corrupted
            // headerless frame landed its first).
            prop_assert_eq!(rx.header_len(), 0);
            let landed_segs = usize::from(header_len == 0 && kind.is_some());
            prop_assert_eq!(rx.segment_count(), segs.len() - landed_segs);
            for (s, sent_seg) in rx.segments().zip(&segs[landed_segs..]) {
                prop_assert!(s.same_storage(sent_seg), "a chain segment was copied");
            }
        }
        prop_assert!(corrupted > 0, "rate-1.0 corruption fired");
    }

    /// Truncated deliveries are a prefix of the sent frame, clipped by
    /// slicing: the surviving header prefix is in the landing area, and
    /// every chain segment of the delivery still shares the sender's
    /// storage, which still reads as it did.
    fn prop_truncation_clips_without_mutating_storage(
        seed in any_u64(),
        header_len in one_of(vec![boxed(just(0usize)), boxed(just(42)), boxed(just(3 * HEADROOM))]),
    ) {
        let (pkt, segs, pristine) = frame(header_len);
        let spec = FaultSpec { truncate: 1.0, ..FaultSpec::default() };
        let mut plan = FaultPlan::new(&spec, seed);
        let rx_ledger = CopyLedger::new();
        let mut truncated = 0;
        for _ in 0..8 {
            let (rx, kind) = deliver_faulty(&pkt, &rx_ledger, &mut plan, FaultLink::InitiatorTarget);
            let rx = rx.expect("truncation still delivers");
            let (sent, got) = (pkt.to_wire(), rx.to_wire());
            prop_assert_eq!(&got[..], &sent[..got.len()], "a prefix arrives");
            if matches!(kind, Some(FaultKind::Truncate { .. })) {
                truncated += 1;
                prop_assert!(got.len() < sent.len());
            } else {
                prop_assert_eq!(got.len(), sent.len());
            }
            prop_assert_eq!(rx.header_len(), 0);
            prop_assert_eq!(rx.linear(), &sent[..got.len().min(header_len)], "landed header prefix");
            for (i, s) in rx.segments().enumerate() {
                prop_assert!(s.same_storage(&segs[i]), "payload segment {} is a slice, not a copy", i);
            }
            for (seg, bytes) in segs.iter().zip(&pristine) {
                prop_assert_eq!(seg.as_slice(), &bytes[..], "shared storage pristine");
            }
        }
        prop_assert!(truncated > 0, "rate-1.0 truncation fired");
    }

    /// A headerless frame whose payload is a multi-block pooled append —
    /// one buffer of slabs, with `behind` plain segments appended after
    /// its fragments — crosses a corrupting link as it crosses a clean
    /// one: one logical copy per buffer. Its first slab lands privately
    /// and takes the flip, the fragment behind it heads the rest, and a
    /// segment the receiver appends is one buffer more, which the next
    /// delivery charges as one.
    fn prop_a_corrupted_headerless_pooled_frame_keeps_its_buffers(
        seed in any_u64(),
        len in ints(SLAB_SIZE + 1..4 * SLAB_SIZE),
        behind in ints(0usize..3),
    ) {
        let pool = BufPool::slab_only();
        let bytes = fill(5, len);
        let mut sent = NetBuf::new(&CopyLedger::new());
        sent.append_pooled(&pool, &bytes);
        for k in 0..behind {
            sent.append_segment(Segment::from_vec(fill(6 + k as u32, 100)));
        }
        let blocks = len.div_ceil(SLAB_SIZE);
        prop_assert_eq!((sent.segment_count(), sent.buffer_count()), (blocks + behind, 1 + behind));
        let wire = sent.to_wire();
        let spec = FaultSpec { corrupt: 1.0, ..FaultSpec::default() };
        let mut plan = FaultPlan::new(&spec, seed);
        let ledger = CopyLedger::new();
        let (rx, kind) = deliver_faulty(&sent, &ledger, &mut plan, FaultLink::ClientServer);
        let mut rx = rx.expect("corruption still delivers");
        prop_assert!(matches!(kind, Some(FaultKind::Corrupt { .. })), "a first draw at rate 1.0 corrupts");
        let s = ledger.snapshot();
        prop_assert_eq!((s.allocations, s.logical_copies), (1, 1 + behind as u64), "one logical copy per buffer");
        let got = rx.to_wire();
        let flipped: u32 = wire.iter().zip(&got).map(|(a, b)| (a ^ b).count_ones()).sum();
        prop_assert_eq!(flipped, 1, "exactly one bit flips");
        prop_assert_eq!(rx.linear().len(), SLAB_SIZE, "the first slab landed privately");
        prop_assert_eq!((rx.segment_count(), rx.buffer_count()), (blocks - 1 + behind, 1 + behind));
        prop_assert_eq!(sent.to_wire(), wire, "the sender's slabs are pristine");

        let bufs = rx.buffer_count();
        rx.append_segment(Segment::from_vec(fill(9, 10)));
        prop_assert_eq!(rx.buffer_count(), bufs + 1, "one buffer more");
        let again = CopyLedger::new();
        let redelivered = deliver(&rx, &again);
        prop_assert_eq!(again.snapshot().logical_copies, 1 + bufs as u64 + 1, "the landing and each buffer");
        prop_assert_eq!(redelivered.to_wire(), rx.to_wire());
    }

    /// A delivery that lands its headers is, to everything that reads a
    /// buffer, the delivery that carried them as a heap segment at the
    /// front of the chain (the layout before the landing area): same wire
    /// bytes, same parse, same checksum, same payload handed to pointer
    /// surgery, same charges.
    fn prop_a_landed_delivery_reads_like_the_header_segment_layout(
        header_len in one_of(vec![boxed(ints(0usize..100)), boxed(just(HEADROOM)), boxed(ints(HEADROOM..4 * HEADROOM))]),
        pulls in vec_of(ints(0usize..120), 0..6),
        then in ints(0u8..4),
    ) {
        let (pkt, segs, _) = frame(header_len);
        let (new_ledger, old_ledger) = (CopyLedger::new(), CopyLedger::new());
        let mut new = deliver(&pkt, &new_ledger);
        let mut old = NetBuf::new(&old_ledger);
        if header_len > 0 {
            old.append_segment(Segment::from_vec(pkt.header().to_vec()));
        }
        for seg in &segs {
            old.append_segment(seg.clone());
        }
        prop_assert_eq!(new.to_wire(), pkt.to_wire());
        for n in pulls {
            let n = n.min(new.payload_len());
            prop_assert_eq!(new.peek(n / 2, n - n / 2), old.peek(n / 2, n - n / 2), "peek");
            prop_assert_eq!(new.pull(n), old.pull(n), "pull {}", n);
        }
        prop_assert_eq!(new.to_wire(), old.to_wire());
        prop_assert_eq!(new.payload_len(), old.payload_len());
        match then {
            0 => prop_assert_eq!(new.compute_csum(), old.compute_csum()),
            1 => prop_assert_eq!(new.copy_payload_to_vec(), old.copy_payload_to_vec()),
            // Unpulled landed bytes spill to one segment at the front.
            2 => {
                let bytes = |segs: SegChain| -> Vec<u8> { segs.iter().flat_map(Segment::to_vec).collect() };
                prop_assert_eq!(bytes(new.take_payload()), bytes(old.take_payload()));
                prop_assert!(new.total_len() == 0 && new.linear().is_empty());
            }
            _ => {
                new.push_header(&[0xAA; 20]);
                old.push_header(&[0xAA; 20]);
                prop_assert_eq!(new.header(), old.header());
                let again = deliver(&new, &new_ledger);
                prop_assert_eq!(again.to_wire(), deliver(&old, &old_ledger).to_wire());
                prop_assert_eq!(again.linear(), &[0xAA; 20][..], "only the built header lands");
            }
        }
        prop_assert_eq!(new_ledger.snapshot(), old_ledger.snapshot(), "charge for charge");
    }
}

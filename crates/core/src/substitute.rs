//! Packet substitution: swapping cached payload for key-carrying
//! placeholders at the driver boundary (§3.2 step 6).
//!
//! An outgoing NFS read reply (or kHTTPd response body) built by the
//! logical-copy paths carries placeholder blocks — junk payload whose head
//! is a [`netbuf::key::KeyStamp`]. Just before transmission, the NCache
//! module resolves each stamp (FHO cache first, then LBN) and splices the
//! cached network buffers into the packet in place of the placeholder. No payload bytes
//! move: substitution is pointer surgery, charged to the CPU model per
//! packet, not per byte.

use netbuf::{NetBuf, SegChain, Segment};

use crate::shards::NetCacheShards;

/// What substitution did to one outgoing packet.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubstitutionReport {
    /// Placeholder segments replaced with cached payload.
    pub substituted: u64,
    /// Segments passed through untouched (headers, metadata, real data).
    pub passed_through: u64,
    /// Placeholder segments whose key missed the cache — the junk goes out
    /// as-is. Must be zero in a correctly configured server; counted so
    /// tests can assert on it.
    pub missing: u64,
}

/// Substitutes every stamped placeholder segment in `buf`'s payload with
/// the corresponding cached chunk. Non-stamped segments pass through.
///
/// # Examples
///
/// ```
/// use ncache::shards::NetCacheShards;
/// use ncache::substitute::substitute_payload;
/// use netbuf::key::{KeyStamp, Lbn};
/// use netbuf::{BufPool, CopyLedger, NetBuf, Segment};
///
/// let cache = NetCacheShards::new(BufPool::new(1 << 20), 0, 4);
/// cache.insert_lbn(Lbn(3), vec![Segment::from_vec(vec![7u8; 4096])], 4096, false)?;
///
/// // Build a placeholder block as the logical read path would.
/// let mut junk = vec![0u8; 4096];
/// KeyStamp::new().with_lbn(Lbn(3)).encode_into(&mut junk);
/// let ledger = CopyLedger::new();
/// let mut pkt = NetBuf::new(&ledger);
/// pkt.append_segment(Segment::from_vec(junk));
///
/// let report = substitute_payload(&mut pkt, &cache);
/// assert_eq!(report.substituted, 1);
/// assert_eq!(pkt.copy_payload_to_vec(), vec![7u8; 4096]);
/// # Ok::<(), ncache::CacheFull>(())
/// ```
pub fn substitute_payload(buf: &mut NetBuf, cache: &NetCacheShards) -> SubstitutionReport {
    let chain = buf.take_payload();
    let mut resolved = cache.take_resolve_buf();
    resolved.reserve(chain.len());
    // A hit is clipped to the placeholder's length (a reply's tail block
    // may be short).
    let blocks = chain.iter().map(|seg| (seg, seg.len()));
    let report = cache
        .resolve_all(blocks, false, &mut resolved)
        .expect("only a strict resolution fails");
    refill(buf, chain, resolved, cache);
    report
}

/// Makes `resolved`'s segments `buf`'s payload, held in `chain` — the
/// chain `buf` carried, emptied, so the outgoing packet keeps its buffer —
/// and files the emptied `resolved` with `cache` for the next reply.
fn refill(
    buf: &mut NetBuf,
    mut chain: SegChain,
    mut resolved: Vec<Segment>,
    cache: &NetCacheShards,
) {
    chain.clear();
    chain.extend(resolved.drain(..));
    buf.replace_payload(chain);
    cache.file_resolve_buf(resolved);
}

/// A reply's placeholders resolved ahead of transmission — the commit
/// point of a READ (DESIGN.md §9.2): the payload that takes their place at
/// the driver boundary, and what resolving it did. The value travels with
/// the reply; the payload's buffer is one of the shard set's resolution
/// buffers, which goes back to it emptied once spliced.
#[derive(Debug)]
pub struct Resolved {
    payload: Vec<Segment>,
    report: SubstitutionReport,
}

/// Resolves every placeholder of a logical reply through `cache`, all or
/// nothing ([`NetCacheShards::resolve_all`]): `reply` yields each block as
/// the buffer cache holds it and the number of its bytes the reply
/// carries, so a stamp is read from the whole block however short the
/// reply's tail is.
///
/// # Errors
///
/// The index of the first dangling stamp; nothing was counted, and the
/// caller serves the request on the copying path.
pub fn resolve_reply<'s>(
    cache: &NetCacheShards,
    reply: impl ExactSizeIterator<Item = (&'s Segment, usize)> + Clone,
) -> Result<Resolved, usize> {
    let mut payload = cache.take_resolve_buf();
    payload.reserve(reply.len());
    let report = match cache.resolve_all(reply, true, &mut payload) {
        Ok(report) => report,
        Err(dangling) => {
            cache.file_resolve_buf(payload);
            return Err(dangling);
        }
    };
    Ok(Resolved { payload, report })
}

impl Resolved {
    /// Splices the resolved payload into `buf` in place of its
    /// placeholders (pointer surgery: one logical copy) and returns what
    /// the resolution did. [`NetCacheShards::transmit`] is the one caller.
    pub(crate) fn splice(self, buf: &mut NetBuf, cache: &NetCacheShards) -> SubstitutionReport {
        let chain = buf.take_payload();
        refill(buf, chain, self.payload, cache);
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netbuf::key::{Fho, FileHandle, KeyStamp, Lbn};
    use netbuf::{BufPool, CopyLedger, Segment};

    fn cache() -> NetCacheShards {
        // Multi-shard on purpose: every substitution test doubles as a
        // cross-shard resolution test.
        NetCacheShards::new(BufPool::new(1 << 22), 0, 4)
    }

    fn placeholder(stamp: KeyStamp, len: usize) -> Segment {
        let mut junk = vec![0u8; len];
        stamp.encode_into(&mut junk);
        Segment::from_vec(junk)
    }

    #[test]
    fn substitutes_lbn_placeholder() {
        let c = cache();
        c.insert_lbn(Lbn(1), vec![Segment::from_vec(vec![5; 4096])], 4096, false)
            .expect("fits");
        let ledger = CopyLedger::new();
        let mut pkt = NetBuf::new(&ledger);
        pkt.append_segment(placeholder(KeyStamp::new().with_lbn(Lbn(1)), 4096));
        pkt.push_header(&[0xAB]);
        let before = ledger.snapshot();
        let r = substitute_payload(&mut pkt, &c);
        assert_eq!(r.substituted, 1);
        assert_eq!(r.missing, 0);
        let d = ledger.snapshot().delta_since(&before);
        assert_eq!(d.payload_copies, 0, "substitution moves no payload");
        assert_eq!(pkt.header(), &[0xAB], "headers untouched");
        assert_eq!(pkt.copy_payload_to_vec(), vec![5u8; 4096]);
    }

    #[test]
    fn fho_wins_over_stale_lbn() {
        let c = cache();
        c.insert_lbn(Lbn(1), vec![Segment::from_vec(vec![0xAA; 4096])], 4096, false)
            .expect("fits");
        let fho = Fho::new(FileHandle(2), 0);
        c.insert_fho(fho, vec![Segment::from_vec(vec![0xBB; 4096])], 4096)
            .expect("fits");
        let ledger = CopyLedger::new();
        let mut pkt = NetBuf::new(&ledger);
        pkt.append_segment(placeholder(
            KeyStamp::new().with_fho(fho).with_lbn(Lbn(1)),
            4096,
        ));
        substitute_payload(&mut pkt, &c);
        assert_eq!(
            pkt.copy_payload_to_vec(),
            vec![0xBB; 4096],
            "freshest data substituted"
        );
    }

    #[test]
    fn partial_tail_blocks_are_clipped() {
        let c = cache();
        c.insert_lbn(Lbn(1), vec![Segment::from_vec(vec![9; 4096])], 4096, false)
            .expect("fits");
        let ledger = CopyLedger::new();
        let mut pkt = NetBuf::new(&ledger);
        // The reply's last block is clipped to 100 bytes at end of file.
        pkt.append_segment(placeholder(KeyStamp::new().with_lbn(Lbn(1)), 100));
        substitute_payload(&mut pkt, &c);
        assert_eq!(pkt.payload_len(), 100);
        assert_eq!(pkt.copy_payload_to_vec(), vec![9u8; 100]);
    }

    #[test]
    fn unstamped_segments_pass_through() {
        let c = cache();
        let ledger = CopyLedger::new();
        let mut pkt = NetBuf::new(&ledger);
        pkt.append_segment(Segment::from_vec(vec![1, 2, 3, 4]));
        pkt.append_segment(Segment::from_vec(b"HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n".to_vec()));
        let r = substitute_payload(&mut pkt, &c);
        assert_eq!(r.substituted, 0);
        assert_eq!(r.passed_through, 2);
        assert_eq!(pkt.peek(0, 4), vec![1, 2, 3, 4]);
    }

    #[test]
    fn missing_key_is_counted_and_left_alone() {
        let c = cache();
        let ledger = CopyLedger::new();
        let mut pkt = NetBuf::new(&ledger);
        pkt.append_segment(placeholder(KeyStamp::new().with_lbn(Lbn(404)), 4096));
        let r = substitute_payload(&mut pkt, &c);
        assert_eq!(r.missing, 1);
        assert_eq!(r.substituted, 0);
        assert_eq!(pkt.payload_len(), 4096);
    }

    #[test]
    fn mixed_payload_multiple_blocks() {
        let c = cache();
        for i in 0..3u64 {
            c.insert_lbn(
                Lbn(i),
                vec![Segment::from_vec(vec![i as u8 + 1; 4096])],
                4096,
                false,
            )
            .expect("fits");
        }
        let ledger = CopyLedger::new();
        let mut pkt = NetBuf::new(&ledger);
        for i in 0..3u64 {
            pkt.append_segment(placeholder(KeyStamp::new().with_lbn(Lbn(i)), 4096));
        }
        let r = substitute_payload(&mut pkt, &c);
        assert_eq!(r.substituted, 3);
        let bytes = pkt.copy_payload_to_vec();
        assert_eq!(bytes.len(), 3 * 4096);
        assert_eq!(bytes[0], 1);
        assert_eq!(bytes[4096], 2);
        assert_eq!(bytes[8192], 3);
    }

    #[test]
    fn tiny_segments_cannot_be_stamps() {
        let c = cache();
        let ledger = CopyLedger::new();
        let mut pkt = NetBuf::new(&ledger);
        pkt.append_segment(Segment::from_vec(vec![1, 2])); // < KeyStamp::LEN
        let r = substitute_payload(&mut pkt, &c);
        assert_eq!(r.passed_through, 1);
    }

    #[test]
    fn the_resolution_buffer_is_filed_back_empty() {
        let c = cache();
        let ledger = CopyLedger::new();
        let mut pkt = NetBuf::new(&ledger);
        for i in 0..3u64 {
            c.insert_lbn(Lbn(i), vec![Segment::from_vec(vec![1; 4096])], 4096, false)
                .expect("fits");
            pkt.append_segment(placeholder(KeyStamp::new().with_lbn(Lbn(i)), 4096));
        }
        assert_eq!(substitute_payload(&mut pkt, &c).substituted, 3);
        let buf = c.take_resolve_buf();
        assert!(buf.is_empty() && buf.capacity() >= 3, "kept for the next reply");
        let fresh = c.take_resolve_buf();
        assert_eq!(
            fresh.capacity(),
            0,
            "while one resolution holds it, another gets a fresh one"
        );
        // Both go back: two concurrent resolutions keep two buffers.
        c.file_resolve_buf(fresh);
        c.file_resolve_buf(buf);
        assert!(c.take_resolve_buf().capacity() >= 3);
        assert_eq!(c.take_resolve_buf().capacity(), 0);
        assert_eq!(c.take_resolve_buf().capacity(), 0, "no third was filed");
    }

    #[test]
    fn multi_segment_chunks_splice_in_whole_and_clipped() {
        let c = cache();
        let chunk = vec![
            Segment::from_vec(vec![1; 1448]),
            Segment::from_vec(vec![2; 1448]),
            Segment::from_vec(vec![3; 1200]),
        ];
        c.insert_lbn(Lbn(1), chunk.clone(), 4096, false).expect("fits");
        let ledger = CopyLedger::new();
        let mut pkt = NetBuf::new(&ledger);
        pkt.append_segment(placeholder(KeyStamp::new().with_lbn(Lbn(1)), 4096));
        pkt.append_segment(placeholder(KeyStamp::new().with_lbn(Lbn(1)), 2000));
        let r = substitute_payload(&mut pkt, &c);
        assert_eq!(r.substituted, 2);
        let lens: Vec<usize> = pkt.segments().map(Segment::len).collect();
        assert_eq!(lens, vec![1448, 1448, 1200, 1448, 552]);
        for (got, want) in pkt.segments().zip(chunk.iter().chain(&chunk)) {
            assert!(got.same_storage(want), "spliced, not copied");
        }
        assert_eq!(pkt.payload_len(), 4096 + 2000);
    }
}

//! BSD-style `mbuf` chains — the FreeBSD flavour of the network buffer.
//!
//! The paper ports NCache to FreeBSD (§4.2) and observes that "using mbuf,
//! rather than sk_buff, does not lead to any structural change to NCache":
//! both buffer structures support variable-size chained storage, and the
//! cache only ever needs reference-counted views of payload bytes. This
//! module provides an mbuf-faithful chain — small inline buffers for
//! headers, shared external *clusters* for payload — and the conversions
//! that let the NCache chunk store hold mbuf payloads unchanged. The
//! portability claim is enforced by tests in the `ncache` crate: a chunk
//! built from an mbuf chain substitutes into an sk_buff-style [`NetBuf`]
//! byte-for-byte.
//!
//! [`NetBuf`]: crate::buf::NetBuf

use crate::accounting::CopyLedger;
use crate::segment::Segment;

/// Bytes of inline data storage in an mbuf (BSD's `MLEN` for a 256-byte
/// mbuf with a packet header).
pub const MLEN: usize = 224;
/// Bytes in an external cluster (BSD's `MCLBYTES`).
pub const MCLBYTES: usize = 2048; // test-api: the FreeBSD-port claim that tests/portability.rs holds

/// One mbuf: either inline data or a reference to (part of) an external
/// cluster.
#[derive(Clone, Debug)]
enum Storage {
    /// Small data held inline in the mbuf itself.
    Inline(Vec<u8>),
    /// A reference-counted external cluster (or a view into one).
    Cluster(Segment),
}

/// One link of an mbuf chain.
#[derive(Clone, Debug)]
pub struct Mbuf {
    storage: Storage,
}

impl Mbuf {
    /// An inline mbuf holding `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` exceeds [`MLEN`] — larger data belongs in a
    /// cluster.
    pub fn inline(data: &[u8]) -> Self {
        assert!(
            data.len() <= MLEN,
            "{} bytes exceed MLEN = {MLEN}; use a cluster",
            data.len()
        );
        Mbuf {
            storage: Storage::Inline(data.to_vec()),
        }
    }

    /// An mbuf referencing an external cluster (shared, not copied).
    pub fn cluster(seg: Segment) -> Self {
        Mbuf {
            storage: Storage::Cluster(seg),
        }
    }

    /// Bytes this mbuf carries.
    pub fn len(&self) -> usize {
        match &self.storage {
            Storage::Inline(v) => v.len(),
            Storage::Cluster(s) => s.len(),
        }
    }

    /// Whether the mbuf is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A view of the carried bytes.
    ///
    /// # Panics
    ///
    /// As [`Segment::as_slice`], on a cluster that is not one run.
    pub fn as_slice(&self) -> &[u8] {
        match &self.storage {
            Storage::Inline(v) => v,
            Storage::Cluster(s) => s.as_slice(),
        }
    }
}

/// An mbuf chain: the unit FreeBSD's stack passes around (`m_next`
/// linkage), with the same logical/physical copy discipline as
/// [`crate::buf::NetBuf`].
#[derive(Clone, Debug, Default)]
pub struct MbufChain { // test-api: the FreeBSD-port claim that tests/portability.rs holds
    bufs: Vec<Mbuf>,
}

impl MbufChain {
    /// An empty chain.
    pub fn new() -> Self {
        MbufChain::default()
    }

    /// Builds a chain referencing existing segments — a *logical* copy
    /// (cluster reference counting), charged as such.
    pub fn from_segments(ledger: &CopyLedger, segs: impl IntoIterator<Item = Segment>) -> Self { // test-api: the FreeBSD-port claim that tests/portability.rs holds
        ledger.charge_logical_copy();
        MbufChain {
            bufs: segs.into_iter().map(Mbuf::cluster).collect(),
        }
    }

    /// Prepends header bytes (an inline mbuf at the front, as `M_PREPEND`
    /// does). Charged as header movement.
    pub fn prepend(&mut self, ledger: &CopyLedger, header: &[u8]) {
        ledger.charge_header_bytes(header.len() as u64);
        self.bufs.insert(0, Mbuf::inline(header));
    }

    /// Total bytes across the chain.
    pub fn len(&self) -> usize {
        self.bufs.iter().map(Mbuf::len).sum()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.bufs.is_empty()
    }

    /// Iterates over the chain's links.
    pub fn iter(&self) -> impl Iterator<Item = &Mbuf> {
        self.bufs.iter()
    }

    /// Shares the chain's payload as segments — what NCache stores. Cluster
    /// mbufs share storage (logical); inline mbufs (headers, small data)
    /// are materialized, which is the same copy `m_pullup` would do.
    pub fn share_segments(&self, ledger: &CopyLedger) -> Vec<Segment> {
        ledger.charge_logical_copy();
        self.bufs
            .iter()
            .map(|m| match &m.storage {
                Storage::Cluster(s) => s.clone(),
                Storage::Inline(v) => {
                    ledger.charge_header_bytes(v.len() as u64);
                    Segment::from_vec(v.clone())
                }
            })
            .collect()
    }

    /// Materializes the whole chain — a physical copy, charged.
    pub fn to_bytes(&self, ledger: &CopyLedger) -> Vec<u8> {
        ledger.charge_payload_copy(self.len() as u64);
        let mut out = Vec::with_capacity(self.len());
        for m in &self.bufs {
            match &m.storage {
                Storage::Inline(v) => out.extend_from_slice(v),
                Storage::Cluster(s) => s.runs().for_each(|run| out.extend_from_slice(run)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_and_cluster_basics() {
        let i = Mbuf::inline(b"header");
        assert_eq!(i.len(), 6);
        assert!(!i.is_empty());
        let c = Mbuf::cluster(Segment::from_vec(vec![7; MCLBYTES]));
        assert_eq!(c.len(), MCLBYTES);
    }

    #[test]
    #[should_panic(expected = "use a cluster")]
    fn oversized_inline_panics() {
        Mbuf::inline(&vec![0u8; MLEN + 1]);
    }

    #[test]
    fn from_segments_is_logical() {
        let l = CopyLedger::new();
        let seg = Segment::from_vec(vec![9u8; 4096]);
        let chain = MbufChain::from_segments(&l, vec![seg.clone()]);
        assert_eq!(l.snapshot().payload_copies, 0);
        assert_eq!(l.snapshot().logical_copies, 1);
        // The cluster shares storage with the source segment.
        let shared = chain.share_segments(&l);
        assert!(shared[0].same_storage(&seg));
    }

    #[test]
    fn prepend_builds_protocol_headers() {
        let l = CopyLedger::new();
        let mut chain = MbufChain::from_segments(&l, [Segment::from_vec(b"payload".to_vec())]);
        chain.prepend(&l, b"tcp");
        chain.prepend(&l, b"ip");
        assert_eq!(chain.to_bytes(&l), b"iptcppayload");
        assert_eq!(l.snapshot().header_bytes, 5);
    }

    #[test]
    fn round_trip_preserves_bytes() {
        let l = CopyLedger::new();
        let data: Vec<u8> = (0..5000u16).map(|x| x as u8).collect();
        let clusters = data.chunks(MCLBYTES).map(|c| Segment::from_vec(c.to_vec()));
        let chain = MbufChain::from_segments(&l, clusters);
        assert_eq!(chain.to_bytes(&l), data);
    }

    #[test]
    fn empty_chain() {
        let l = CopyLedger::new();
        let chain = MbufChain::new();
        assert!(chain.is_empty());
        assert_eq!(chain.len(), 0);
        assert!(chain.to_bytes(&l).is_empty());
    }
}

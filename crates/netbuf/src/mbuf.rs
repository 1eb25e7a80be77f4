//! BSD-style `mbuf` chains — the FreeBSD flavour of the network buffer.
//!
//! The paper ports NCache to FreeBSD (§4.2) and observes that "using mbuf,
//! rather than sk_buff, does not lead to any structural change to NCache":
//! both buffer structures support variable-size chained storage, and the
//! cache only ever needs reference-counted views of payload bytes. This
//! module provides an mbuf-faithful chain of shared external *clusters*
//! and the conversions that let the NCache chunk store hold mbuf payloads
//! unchanged. The portability claim is enforced by `tests/portability.rs`:
//! a chunk built from an mbuf chain substitutes into an sk_buff-style
//! [`NetBuf`] byte-for-byte.
//!
//! [`NetBuf`]: crate::buf::NetBuf

use crate::accounting::CopyLedger;
use crate::segment::Segment;

/// Bytes in an external cluster (BSD's `MCLBYTES`).
pub const MCLBYTES: usize = 2048; // test-api: the FreeBSD-port claim that tests/portability.rs holds

/// One link of an mbuf chain: a reference-counted external cluster (or a
/// view into one).
#[derive(Clone, Debug)]
pub struct Mbuf {
    cluster: Segment,
}

impl Mbuf {
    /// An mbuf referencing an external cluster (shared, not copied).
    pub fn cluster(seg: Segment) -> Self {
        Mbuf { cluster: seg }
    }

    /// Bytes this mbuf carries.
    pub fn len(&self) -> usize {
        self.cluster.len()
    }

    /// Whether the mbuf is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
    /// Builds a chain referencing existing segments — a *logical* copy
    /// (cluster reference counting), charged as such.
    pub fn from_segments(ledger: &CopyLedger, segs: impl IntoIterator<Item = Segment>) -> Self { // test-api: the FreeBSD-port claim that tests/portability.rs holds
        ledger.charge_logical_copy();
        MbufChain {
            bufs: segs.into_iter().map(Mbuf::cluster).collect(),
        }
    }

    /// Total bytes across the chain.
    pub fn len(&self) -> usize {
        self.bufs.iter().map(Mbuf::len).sum()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.bufs.is_empty()
    }

    /// Shares the chain's payload as segments — what NCache stores: each
    /// cluster shares its storage (a logical copy).
    pub fn share_segments(&self, ledger: &CopyLedger) -> Vec<Segment> {
        ledger.charge_logical_copy();
        self.bufs.iter().map(|m| m.cluster.clone()).collect()
    }

    /// Materializes the whole chain — a physical copy, charged.
    pub fn to_bytes(&self, ledger: &CopyLedger) -> Vec<u8> {
        ledger.charge_payload_copy(self.len() as u64);
        let mut out = Vec::with_capacity(self.len());
        for m in &self.bufs {
            m.cluster.runs().for_each(|run| out.extend_from_slice(run));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_basics() {
        let c = Mbuf::cluster(Segment::from_vec(vec![7; MCLBYTES]));
        assert_eq!(c.len(), MCLBYTES);
        assert!(!c.is_empty());
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
        let chain = MbufChain::default();
        assert!(chain.is_empty());
        assert_eq!(chain.len(), 0);
        assert!(chain.to_bytes(&l).is_empty());
    }
}

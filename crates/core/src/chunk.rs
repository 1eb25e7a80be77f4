//! Cache chunks: pinned lists of network buffers.

use netbuf::pool::Pinned;
use netbuf::{SegChain, Segment};

/// One cached block: the network-buffer segments that carried it, exactly
/// as they arrived off the wire, plus pinned-memory accounting.
///
/// The segments are shared ([`Segment`] is reference-counted), so handing a
/// chunk's payload to an outgoing packet is pointer manipulation — the
/// logical copy at the heart of the design. The chain is the one the
/// packet carried: a one-block chunk holds its segment inline.
#[derive(Debug)]
pub struct Chunk {
    segs: SegChain,
    len: usize,
    dirty: bool,
    /// Stored checksum carried over from the payload's originator; packets
    /// substituted from this chunk inherit it instead of recomputing.
    csum: Option<u16>,
    _pin: Pinned,
}

impl Chunk {
    /// Assembles a chunk from arrived network-buffer segments. `len` is
    /// the payload length (the segments may carry trailing slack).
    ///
    /// # Panics
    ///
    /// Panics if the segments hold fewer than `len` bytes.
    pub fn new(segs: SegChain, len: usize, dirty: bool, pin: Pinned) -> Self {
        let have = segs.byte_len();
        assert!(have >= len, "segments hold {have} bytes, need {len}");
        Chunk {
            segs,
            len,
            dirty,
            csum: None,
            _pin: pin,
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the chunk holds no payload.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the chunk holds data newer than the storage server's copy.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Marks the chunk clean (after its data was written back).
    pub fn mark_clean(&mut self) {
        self.dirty = false;
    }

    /// Marks the chunk dirty.
    pub fn mark_dirty(&mut self) {
        self.dirty = true;
    }

    /// The stored (inheritable) checksum, if one was recorded.
    pub fn stored_csum(&self) -> Option<u16> {
        self.csum
    }

    /// Records a checksum for later inheritance.
    pub fn set_csum(&mut self, csum: u16) {
        self.csum = Some(csum);
    }

    /// Shares the payload segments (logical copy) straight into `out`,
    /// clipped to the payload length and to `limit` bytes — the length of
    /// the placeholder being substituted (a reply's tail block may be
    /// shorter than the chunk).
    pub fn share_segments_into(&self, limit: usize, out: &mut impl Extend<Segment>) {
        let mut remaining = self.len.min(limit);
        for seg in &self.segs {
            if remaining == 0 {
                break;
            }
            let take = seg.len().min(remaining);
            out.extend(Some(seg.slice(0, take)));
            remaining -= take;
        }
    }

    /// Shares the payload segments (logical copy), clipped to the payload
    /// length — as a chain, so a one-segment chunk's share allocates
    /// nothing.
    pub fn share_segments(&self) -> SegChain {
        let mut out = SegChain::new();
        self.share_segments_into(usize::MAX, &mut out);
        out
    }

    /// Physically materializes the payload (for integrity checks and
    /// writeback paths that must hand bytes to a copying interface).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.len);
        for seg in &self.share_segments() {
            seg.runs().for_each(|run| v.extend_from_slice(run));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netbuf::BufPool;

    fn pin(pool: &BufPool, n: u64) -> Pinned {
        pool.pin(n).expect("capacity")
    }

    #[test]
    fn share_segments_clips_to_len() {
        let pool = BufPool::new(1 << 20);
        let segs = vec![
            Segment::from_vec(vec![1; 1000]),
            Segment::from_vec(vec![2; 1000]),
        ];
        let c = Chunk::new(segs.into(), 1500, false, pin(&pool, 4096));
        let shared = c.share_segments();
        assert_eq!(shared.len(), 2);
        assert_eq!(shared[0].len(), 1000);
        assert_eq!(shared[1].len(), 500);
        assert_eq!(c.to_bytes().len(), 1500);
        assert_eq!(c.len(), 1500);
        assert!(!c.is_empty());
    }

    #[test]
    fn share_into_clips_to_the_smaller_of_len_and_limit() {
        let pool = BufPool::new(1 << 20);
        let segs = vec![
            Segment::from_vec(vec![1; 1000]),
            Segment::from_vec(vec![2; 1000]),
        ];
        let c = Chunk::new(segs.into(), 1500, false, pin(&pool, 4096));
        let lens = |limit: usize| {
            let mut out = vec![Segment::from_vec(vec![9])]; // appended to, not cleared
            c.share_segments_into(limit, &mut out);
            out[1..].iter().map(Segment::len).collect::<Vec<_>>()
        };
        assert_eq!(lens(0), Vec::<usize>::new());
        assert_eq!(lens(100), vec![100]);
        assert_eq!(lens(1000), vec![1000]);
        assert_eq!(lens(1200), vec![1000, 200]);
        assert_eq!(lens(usize::MAX), vec![1000, 500]);
    }

    #[test]
    fn share_is_logical_not_physical() {
        let pool = BufPool::new(1 << 20);
        let seg = Segment::from_vec(vec![7; 4096]);
        let c = Chunk::new(seg.clone().into(), 4096, false, pin(&pool, 4096));
        let shared = c.share_segments();
        assert!(shared[0].same_storage(&seg));
    }

    #[test]
    fn dirty_lifecycle() {
        let pool = BufPool::new(1 << 20);
        let mut c = Chunk::new(
            Segment::from_vec(vec![0; 64]).into(),
            64,
            true,
            pin(&pool, 64),
        );
        assert!(c.is_dirty());
        c.mark_clean();
        assert!(!c.is_dirty());
        c.mark_dirty();
        assert!(c.is_dirty());
    }

    #[test]
    fn checksum_storage() {
        let pool = BufPool::new(1 << 20);
        let mut c = Chunk::new(
            Segment::from_vec(vec![0; 64]).into(),
            64,
            false,
            pin(&pool, 64),
        );
        assert_eq!(c.stored_csum(), None);
        c.set_csum(0xBEEF);
        assert_eq!(c.stored_csum(), Some(0xBEEF));
    }

    #[test]
    fn dropping_chunk_releases_pin() {
        let pool = BufPool::new(100);
        let c = Chunk::new(
            Segment::from_vec(vec![0; 10]).into(),
            10,
            false,
            pin(&pool, 60),
        );
        assert_eq!(pool.pinned(), 60);
        drop(c);
        assert_eq!(pool.pinned(), 0);
    }

    #[test]
    #[should_panic(expected = "need")]
    fn short_segments_panic() {
        let pool = BufPool::new(1 << 20);
        let _ = Chunk::new(
            Segment::from_vec(vec![0; 10]).into(),
            20,
            false,
            pin(&pool, 10),
        );
    }
}

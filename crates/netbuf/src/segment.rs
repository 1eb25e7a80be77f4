//! Reference-counted byte segments — the payload-carrying unit.
//!
//! A [`Segment`] is an immutable view into shared byte storage. Cloning a
//! segment never moves payload bytes (that is the *logical copy* the paper
//! exploits); materializing its bytes elsewhere is a physical copy and goes
//! through ledger-charged [`crate::buf::NetBuf`] operations.
//!
//! Storage is a boxed slice behind an [`std::sync::Arc`], optionally owned
//! by a [`crate::pool::BufPool`] free list: when the last reference to a
//! pool-backed segment drops, the whole store — the `Arc` handle with its
//! bytes, the extent its constructor dirtied and its home — files itself in
//! the pool's free list instead of going back to the allocator, so the
//! next segment built on that pool allocates nothing. That is the
//! driver-context buffer recycling the Linux prototype gets from `skb`
//! slab caches.
//!
//! A store may be *shorter than the views on it*: every byte of a view past
//! the stored prefix reads as zero — the dirty-extent rule ("every byte at
//! or past the extent is zero") carried past the end of the store. A
//! key-stamped placeholder is such a segment: 29 stored bytes
//! ([`KeyStamp::LEN`]) and a logical length of a whole block, so the buffer
//! cache holds keys, not pages. [`Segment::zeroed`] stores nothing at all.
//! Readers of a view that may be partial go run by run
//! ([`Segment::runs`]: the stored prefix, then zeros from one static zero
//! block) or read its stamp ([`Segment::stamp`]).

use std::fmt;
use std::sync::Arc;

use crate::key::KeyStamp;
use crate::pool::{SlabHome, SLAB_SIZE};

/// The zero tail of every partially stored view is read from here.
static ZEROS: [u8; SLAB_SIZE] = [0; SLAB_SIZE];

/// The shared backing store of one or more [`Segment`] views.
pub(crate) struct SegStore {
    /// The stored bytes; views may extend past them, into zeros.
    pub(crate) buf: Box<[u8]>,
    /// The free list this store files itself in, if pool-backed.
    pub(crate) home: Option<SlabHome>,
    /// Every byte of `buf` at or past this offset is zero (segments are
    /// immutable, so what the constructor could write is all that is
    /// dirty). Travels home with the store.
    pub(crate) dirty: usize,
}

impl Drop for SegStore {
    /// The fallback of [`Segment`]'s drop: when the last two clones drop
    /// at once, each sees the other and neither files the store, so the
    /// bytes go home here, in a new handle. A store that is freed
    /// instead of filed has had its home cleared first.
    fn drop(&mut self) {
        if let Some(home) = self.home.take() {
            home.recycle(std::mem::take(&mut self.buf), self.dirty);
        }
    }
}

/// An immutable, cheaply-cloneable view of shared bytes.
///
/// # Examples
///
/// ```
/// use netbuf::Segment;
/// let s = Segment::from_vec(vec![1, 2, 3, 4, 5]);
/// let mid = s.slice(1, 3);
/// assert_eq!(mid.as_slice(), &[2, 3, 4]);
/// assert_eq!(s.refcount(), 2); // slice shares storage
///
/// // A view longer than its store reads zeros past the stored bytes.
/// let z = Segment::zeroed(4096);
/// assert_eq!(z.stored_len(), 0);
/// assert!(z.runs().flatten().all(|&b| b == 0));
/// ```
#[derive(Clone)]
pub struct Segment {
    /// `None` for a segment that stores nothing (every byte is zero), and
    /// once the final drop has filed the store in its pool.
    store: Option<Arc<SegStore>>,
    off: usize,
    len: usize,
}

impl Drop for Segment {
    /// The final reference to a pooled store files the store, handle and
    /// all, in its pool's free list; any other drop pays one relaxed load
    /// more than an `Arc` drop.
    fn drop(&mut self) {
        let Some(store) = &mut self.store else {
            return;
        };
        if Arc::strong_count(store) == 1 && store.home.is_some() && Arc::get_mut(store).is_some() {
            SlabHome::file(self.store.take().expect("checked above"));
        }
    }
}

impl Segment {
    /// Wraps an owned byte vector without copying it (the vector is turned
    /// into its boxed slice in place when capacity equals length).
    pub fn from_vec(data: Vec<u8>) -> Self {
        let len = data.len();
        Segment::from_store(
            Arc::new(SegStore {
                buf: data.into_boxed_slice(),
                home: None,
                dirty: len,
            }),
            len,
        )
    }

    /// Views the first `len` bytes of `store`, whose bytes at or past its
    /// dirty extent — and past its end, when `len` is longer — are zero.
    pub(crate) fn from_store(store: Arc<SegStore>, len: usize) -> Self {
        debug_assert!(store.dirty <= store.buf.len());
        Segment {
            store: Some(store),
            off: 0,
            len,
        }
    }

    /// A zero-filled segment of `len` bytes (fresh "junk" payload: read
    /// holes, the Baseline build's blocks). It stores nothing, so it costs
    /// the allocator nothing.
    pub fn zeroed(len: usize) -> Self {
        Segment {
            store: None,
            off: 0,
            len,
        }
    }

    /// The stored prefix of the view: every byte after it is zero.
    pub fn stored(&self) -> &[u8] {
        let buf = self.store.as_ref().map_or(&[][..], |s| &s.buf[..]);
        let end = (self.off + self.len).min(buf.len());
        &buf[self.off.min(end)..end]
    }

    /// Bytes of the view that live in storage (the rest are zero).
    pub fn stored_len(&self) -> usize {
        self.stored().len()
    }

    /// The viewed bytes as one borrowed run, when they are one: the view is
    /// fully stored, or all zeros no longer than one zero block.
    pub fn contiguous(&self) -> Option<&[u8]> {
        let stored = self.stored();
        if stored.len() == self.len {
            Some(stored)
        } else if stored.is_empty() && self.len <= ZEROS.len() {
            Some(&ZEROS[..self.len])
        } else {
            None
        }
    }

    /// The viewed bytes (see [`Segment::contiguous`]).
    ///
    /// # Panics
    ///
    /// Panics on a view that is partly stored, or all zeros past one zero
    /// block: read those with [`Segment::runs`].
    pub fn as_slice(&self) -> &[u8] {
        self.contiguous().unwrap_or_else(|| {
            panic!(
                "a segment of {} bytes storing {} is not one run: read it with runs()",
                self.len,
                self.stored_len()
            )
        })
    }

    /// The viewed bytes, run by run: the stored prefix, then the zeros.
    pub fn runs(&self) -> Runs<'_> {
        self.runs_in(0, self.len)
    }

    /// Bytes `[off, off + len)` of the view, run by run.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the view.
    pub fn runs_in(&self, off: usize, len: usize) -> Runs<'_> {
        assert!(
            off + len <= self.len,
            "runs [{off}, {}) out of bounds of segment of {} bytes",
            off + len,
            self.len
        );
        let stored = self.stored();
        let from = off.min(stored.len());
        let to = (off + len).min(stored.len());
        Runs {
            stored: &stored[from..to],
            zeros: len - (to - from),
        }
    }

    /// Copies bytes `[off, off + out.len())` of the view into `out`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the view.
    pub fn read_at(&self, off: usize, out: &mut [u8]) {
        let mut at = 0;
        for run in self.runs_in(off, out.len()) {
            out[at..at + run.len()].copy_from_slice(run);
            at += run.len();
        }
    }

    /// The viewed bytes in a fresh vector.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.len);
        v.extend_from_slice(self.stored());
        v.resize(self.len, 0);
        v
    }

    /// The key stamp heading the view, if its first [`KeyStamp::LEN`]
    /// bytes carry one — a placeholder's key, wherever it is stored.
    pub fn stamp(&self) -> Option<KeyStamp> {
        let stored = self.stored();
        if stored.len() >= KeyStamp::LEN {
            return KeyStamp::decode(&stored[..KeyStamp::LEN]);
        }
        if self.len < KeyStamp::LEN {
            return None;
        }
        let mut head = [0u8; KeyStamp::LEN];
        self.read_at(0, &mut head);
        KeyStamp::decode(&head)
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A sub-view of `len` bytes starting at `off` (relative to this view).
    /// Shares storage; no bytes move.
    ///
    /// # Panics
    ///
    /// Panics if `off + len` exceeds the view.
    pub fn slice(&self, off: usize, len: usize) -> Segment {
        assert!(
            off + len <= self.len,
            "slice [{off}, {}) out of bounds of segment of {} bytes",
            off + len,
            self.len
        );
        Segment {
            store: self.store.clone(),
            off: self.off + off,
            len,
        }
    }

    /// Drops the first `n` bytes from this view in place (the receive
    /// path pulling a header off the front of a frame). No bytes move and
    /// no reference is taken.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the view length.
    pub fn advance(&mut self, n: usize) {
        assert!(
            n <= self.len,
            "advance by {n} out of bounds of segment of {} bytes",
            self.len
        );
        self.off += n;
        self.len -= n;
    }

    /// Splits the view at `at`, returning `(front, back)`. Shares storage.
    ///
    /// # Panics
    ///
    /// Panics if `at` exceeds the view length.
    pub fn split_at(&self, at: usize) -> (Segment, Segment) {
        (self.slice(0, at), self.slice(at, self.len - at))
    }

    /// Number of live references to the underlying storage — zero for a
    /// segment that stores nothing (diagnostic; used by tests to prove
    /// logical copies share memory).
    pub fn refcount(&self) -> usize {
        self.store.as_ref().map_or(0, Arc::strong_count)
    }

    /// Whether two segments view the same underlying storage (regardless of
    /// offsets). Segments that store nothing share nothing.
    pub fn same_storage(&self, other: &Segment) -> bool { // test-api: tests tell a shared store from a copy
        match (&self.store, &other.store) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Whether the storage recycles into a pool free list when dropped.
    pub fn is_pooled(&self) -> bool {
        self.store.as_ref().is_some_and(|s| s.home.is_some())
    }
}

/// The bytes of a [`Segment`] view run by run: its stored part, then its
/// zeros in pieces of at most one zero block.
#[derive(Clone, Debug)]
pub struct Runs<'a> {
    stored: &'a [u8],
    zeros: usize,
}

impl<'a> Iterator for Runs<'a> {
    type Item = &'a [u8];

    #[inline]
    fn next(&mut self) -> Option<&'a [u8]> {
        if !self.stored.is_empty() {
            return Some(std::mem::take(&mut self.stored));
        }
        if self.zeros == 0 {
            return None;
        }
        let n = self.zeros.min(ZEROS.len());
        self.zeros -= n;
        Some(&ZEROS[..n])
    }
}

impl fmt::Debug for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Segment")
            .field("off", &self.off)
            .field("len", &self.len)
            .field("stored", &self.stored_len())
            .field("refcount", &self.refcount())
            .field("pooled", &self.is_pooled())
            .finish()
    }
}

impl PartialEq for Segment {
    /// By content: the logical bytes, however each side stores them.
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.runs().flatten().eq(other.runs().flatten())
    }
}
impl Eq for Segment {}

impl AsRef<[u8]> for Segment {
    /// As [`Segment::as_slice`], panics included.
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Segment {
    fn from(v: Vec<u8>) -> Self {
        Segment::from_vec(v)
    }
}

impl From<&[u8]> for Segment {
    fn from(v: &[u8]) -> Self {
        Segment::from_vec(v.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_round_trips() {
        let s = Segment::from_vec(vec![9, 8, 7]);
        assert_eq!(s.as_slice(), &[9, 8, 7]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(!s.is_pooled());
    }

    #[test]
    fn zeroed_is_zero() {
        let s = Segment::zeroed(16);
        assert_eq!(s.as_slice(), &[0u8; 16]);
    }

    #[test]
    fn zeroed_stores_nothing_at_any_length() {
        let s = Segment::zeroed(3 * SLAB_SIZE + 5);
        assert_eq!((s.stored_len(), s.refcount(), s.is_pooled()), (0, 0, false));
        let runs: Vec<usize> = s.runs().map(<[u8]>::len).collect();
        assert_eq!(runs, [SLAB_SIZE, SLAB_SIZE, SLAB_SIZE, 5], "one zero block at a time");
        assert!(s.runs().flatten().all(|&b| b == 0));
        assert_eq!(s.contiguous(), None, "longer than one zero block");
        assert_eq!(s.to_vec(), vec![0u8; 3 * SLAB_SIZE + 5]);
        assert!(!s.same_storage(&s.clone()), "nothing stored, nothing shared");
    }

    /// A view of 10 bytes over a store of 4: `[1, 2, 3, 4, 0, 0, 0, 0, 0, 0]`.
    fn partial() -> Segment {
        let store = Arc::new(SegStore {
            buf: vec![1, 2, 3, 4].into_boxed_slice(),
            home: None,
            dirty: 4,
        });
        Segment::from_store(store, 10)
    }

    #[test]
    fn a_view_past_its_store_reads_zeros() {
        let s = partial();
        let want = [1, 2, 3, 4, 0, 0, 0, 0, 0, 0];
        assert_eq!((s.len(), s.stored(), s.stored_len()), (10, &[1u8, 2, 3, 4][..], 4));
        assert_eq!(s.runs().collect::<Vec<_>>(), [&[1u8, 2, 3, 4][..], &[0u8; 6][..]]);
        assert_eq!(s.to_vec(), want);
        assert_eq!(s.contiguous(), None);
        for off in 0..=10 {
            for len in 0..=10 - off {
                let mut out = vec![0xEE; len];
                s.read_at(off, &mut out);
                assert_eq!(out, want[off..off + len], "read_at({off}, {len})");
                let got: Vec<u8> = s.runs_in(off, len).flatten().copied().collect();
                assert_eq!(got, want[off..off + len], "runs_in({off}, {len})");
                assert_eq!(s.slice(off, len).to_vec(), want[off..off + len], "slice({off}, {len})");
            }
        }
    }

    #[test]
    fn slicing_across_the_stored_prefix() {
        let s = partial();
        let (front, back) = s.split_at(3);
        assert_eq!((front.as_slice(), front.stored_len()), (&[1u8, 2, 3][..], 3));
        assert_eq!((back.stored(), back.len()), (&[4u8][..], 7));
        let zeros = back.slice(1, 6);
        assert_eq!((zeros.stored_len(), zeros.as_slice()), (0, &[0u8; 6][..]), "all zeros");
        assert!(zeros.same_storage(&s), "still a view of the store");
        let mut t = s.clone();
        t.advance(6);
        assert_eq!((t.len(), t.stored_len(), t.to_vec()), (4, 0, vec![0; 4]));
    }

    #[test]
    #[should_panic(expected = "not one run")]
    fn as_slice_of_a_partial_view_panics() {
        partial().as_slice();
    }

    #[test]
    fn stamp_reads_the_head_however_it_is_stored() {
        use crate::key::Lbn;
        let stamp = KeyStamp::new().with_lbn(Lbn(9));
        let mut block = vec![0u8; SLAB_SIZE];
        stamp.encode_into(&mut block);
        let whole = Segment::from_vec(block.clone());
        let keyed = Segment::from_store(
            Arc::new(SegStore {
                buf: stamp.encode().to_vec().into_boxed_slice(),
                home: None,
                dirty: KeyStamp::LEN,
            }),
            SLAB_SIZE,
        );
        assert_eq!((whole.stamp(), keyed.stamp()), (Some(stamp), Some(stamp)));
        assert_eq!(whole, keyed, "same bytes, 4096 stored against 29");
        assert_eq!(keyed.stored_len(), KeyStamp::LEN);
        // A view shorter than a stamp, or not at the head, carries none.
        assert_eq!(keyed.slice(0, KeyStamp::LEN - 1).stamp(), None);
        assert_eq!(keyed.slice(1, 100).stamp(), None);
        assert_eq!(Segment::zeroed(SLAB_SIZE).stamp(), None);
        // A stamp split across stored bytes and zeros still decodes: the
        // bytes are what count, not where they live.
        let short = Segment::from_store(
            Arc::new(SegStore {
                buf: stamp.encode()[..KeyStamp::LEN - 8].to_vec().into_boxed_slice(),
                home: None,
                dirty: KeyStamp::LEN - 8,
            }),
            SLAB_SIZE,
        );
        assert_eq!(short.stamp(), KeyStamp::decode(&short.to_vec()));
        assert!(short.stamp().is_some());
    }

    #[test]
    fn equality_ignores_how_bytes_are_stored() {
        assert_eq!(partial(), Segment::from_vec(vec![1, 2, 3, 4, 0, 0, 0, 0, 0, 0]));
        assert_ne!(partial(), Segment::from_vec(vec![1, 2, 3, 4, 0, 0, 0, 0, 0]));
        assert_eq!(Segment::zeroed(7), Segment::from_vec(vec![0; 7]));
        assert_ne!(Segment::zeroed(7), Segment::from_vec(vec![0, 0, 0, 1, 0, 0, 0]));
    }

    #[test]
    fn a_segment_is_three_words() {
        assert_eq!(std::mem::size_of::<Segment>(), 3 * std::mem::size_of::<usize>());
    }

    #[test]
    fn clone_shares_storage_without_copying() {
        let s = Segment::from_vec(vec![1; 1024]);
        let t = s.clone();
        assert!(s.same_storage(&t));
        assert_eq!(s.refcount(), 2);
        drop(t);
        assert_eq!(s.refcount(), 1);
    }

    #[test]
    fn slice_and_split() {
        let s = Segment::from_vec((0..10).collect());
        let (a, b) = s.split_at(4);
        assert_eq!(a.as_slice(), &[0, 1, 2, 3]);
        assert_eq!(b.as_slice(), &[4, 5, 6, 7, 8, 9]);
        let inner = b.slice(1, 2);
        assert_eq!(inner.as_slice(), &[5, 6]);
        assert!(inner.same_storage(&s));
    }

    #[test]
    fn advance_trims_the_front_in_place() {
        let s = Segment::from_vec((0..10).collect());
        let mut t = s.slice(2, 6);
        t.advance(2);
        assert_eq!(t.as_slice(), &[4, 5, 6, 7]);
        t.advance(4);
        assert!(t.is_empty());
        assert_eq!(s.refcount(), 2, "advance takes no reference");
    }

    #[test]
    fn split_at_boundaries() {
        let s = Segment::from_vec(vec![1, 2]);
        let (a, b) = s.split_at(0);
        assert!(a.is_empty());
        assert_eq!(b.len(), 2);
        let (c, d) = s.split_at(2);
        assert_eq!(c.len(), 2);
        assert!(d.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        Segment::from_vec(vec![0; 4]).slice(2, 3);
    }

    #[test]
    fn equality_is_by_content() {
        let a = Segment::from_vec(vec![1, 2, 3]);
        let b = Segment::from_vec(vec![1, 2, 3]);
        assert_eq!(a, b);
        assert!(!a.same_storage(&b));
    }

    #[test]
    fn conversions() {
        let a: Segment = vec![5u8, 6].into();
        let b: Segment = (&[5u8, 6][..]).into();
        assert_eq!(a, b);
        assert_eq!(a.as_ref(), &[5, 6]);
    }

    #[test]
    fn segment_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Segment>();
    }
}

//! Reference-counted byte segments — the payload-carrying unit.
//!
//! A [`Segment`] is an immutable view into shared byte storage. Cloning a
//! segment never moves payload bytes (that is the *logical copy* the paper
//! exploits); materializing its bytes elsewhere is a physical copy and goes
//! through ledger-charged [`crate::buf::NetBuf`] operations.
//!
//! Storage is a boxed slice behind an [`std::sync::Arc`], optionally owned
//! by a [`crate::pool::BufPool`] slab free list: when the last reference to
//! a pool-backed segment drops, the whole store — the `Arc` handle with its
//! slab, the extent its constructor dirtied and its home — files itself in
//! the pool's free list instead of going back to the allocator, so the
//! next segment built on that pool allocates nothing. That is the
//! driver-context buffer recycling the Linux prototype gets from `skb`
//! slab caches.

use std::fmt;
use std::sync::Arc;

use crate::pool::SlabHome;

/// The shared backing store of one or more [`Segment`] views.
pub(crate) struct SegStore {
    pub(crate) buf: Box<[u8]>,
    /// The slab free list this store files itself in, if pool-backed.
    pub(crate) home: Option<SlabHome>,
    /// Every byte of `buf` at or past this offset is zero (segments are
    /// immutable, so what the constructor could write is all that is
    /// dirty). Travels home with the slab.
    pub(crate) dirty: usize,
}

impl Drop for SegStore {
    /// The fallback of [`Segment`]'s drop: when the last two clones drop
    /// at once, each sees the other and neither files the store, so the
    /// slab goes home here, in a new handle. A store that is freed
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
/// ```
#[derive(Clone)]
pub struct Segment {
    /// `None` only once the final drop has filed the store in its pool.
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
    /// dirty extent are zero.
    pub(crate) fn from_store(store: Arc<SegStore>, len: usize) -> Self {
        debug_assert!(store.dirty <= len && len <= store.buf.len());
        Segment {
            store: Some(store),
            off: 0,
            len,
        }
    }

    fn store(&self) -> &Arc<SegStore> {
        self.store
            .as_ref()
            .expect("a segment's store lives until its drop")
    }

    /// A zero-filled segment of `len` bytes (fresh "junk" payload — the
    /// placeholder contents of key-carrying blocks in the NCache design).
    pub fn zeroed(len: usize) -> Self {
        Segment::from_vec(vec![0u8; len])
    }

    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.store().buf[self.off..self.off + self.len]
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
            store: Some(Arc::clone(self.store())),
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

    /// Number of live references to the underlying storage (diagnostic;
    /// used by tests to prove logical copies share memory).
    pub fn refcount(&self) -> usize {
        Arc::strong_count(self.store())
    }

    /// Whether two segments view the same underlying storage (regardless of
    /// offsets).
    pub fn same_storage(&self, other: &Segment) -> bool {
        Arc::ptr_eq(self.store(), other.store())
    }

    /// Whether the storage recycles into a pool free list when dropped.
    pub fn is_pooled(&self) -> bool {
        self.store().home.is_some()
    }
}

impl fmt::Debug for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Segment")
            .field("off", &self.off)
            .field("len", &self.len)
            .field("refcount", &self.refcount())
            .field("pooled", &self.is_pooled())
            .finish()
    }
}

impl PartialEq for Segment {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Segment {}

impl AsRef<[u8]> for Segment {
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

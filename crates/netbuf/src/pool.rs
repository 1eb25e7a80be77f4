//! Pinned-memory pool accounting and segment-slab recycling.
//!
//! The Linux prototype limits the file-system buffer cache *indirectly*:
//! NCache's buffers are allocated in device-driver context, so they are
//! pinned physical memory, and whatever NCache pins is unavailable to the
//! page cache (paper §4.1). [`BufPool`] models that: it has a fixed byte
//! capacity; pinned allocations ([`BufPool::pin`]) succeed until the
//! capacity is exhausted, and the testbed sizes the FS buffer cache from
//! what remains of the machine's RAM.
//!
//! The pool also recycles fixed-capacity segment buffers ("slabs") through
//! a free list, mirroring the kernel's `skb` slab caches: the data plane
//! builds one segment per packet, and allocating/freeing a `Vec` for each
//! dominates the hot path. [`BufPool::seg_from_slice`] and
//! [`BufPool::seg_filled`] hand out [`Segment`]s whose storage returns to
//! the free list when the last reference drops. Recycled buffers are
//! scrubbed (zero-filled) before reuse, so a recycled segment can never
//! leak a previous packet's bytes. Slab recycling is pure host-allocator
//! mechanics: it charges nothing to the copy ledgers and does not count
//! against the pinned-byte capacity.

use std::fmt;
use std::sync::{Arc, Mutex, Weak};

use crate::segment::Segment;

/// Slab capacity in bytes: one 4 KiB block, the unit the data plane moves.
pub const SLAB_SIZE: usize = 4096;

/// Free-list depth: slabs returned beyond this are released to the host
/// allocator instead (bounds idle memory at 16 MiB per pool).
const FREE_LIMIT: usize = 4096;

/// Error returned when a pinned allocation would exceed the pool capacity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolExhausted {
    /// Bytes requested.
    pub requested: u64,
    /// Bytes currently free.
    pub available: u64,
}

impl fmt::Display for PoolExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pinned pool exhausted: requested {} bytes, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for PoolExhausted {}

#[derive(Debug)]
struct Inner {
    capacity: u64,
    pinned: u64,
    peak: u64,
    free: Vec<Box<[u8]>>,
    slab_allocs: u64,
    slab_recycles: u64,
    slab_returns: u64,
}

/// Slab free-list counters (diagnostic; tests prove recycling happens).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlabStats {
    /// Slabs allocated fresh from the host allocator.
    pub allocs: u64,
    /// Slab takes served from the free list.
    pub recycles: u64,
    /// Slabs returned to the free list on segment drop.
    pub returns: u64,
    /// Slabs currently sitting in the free list.
    pub free: u64,
}

/// Where a pool-backed segment's buffer goes when its last reference
/// drops: back into the owning pool's free list, scrubbed. Holds a weak
/// reference so in-flight segments never keep a dropped pool alive.
pub(crate) struct SlabHome {
    inner: Weak<Mutex<Inner>>,
}

impl SlabHome {
    pub(crate) fn recycle(&self, mut buf: Box<[u8]>) {
        let Some(inner) = self.inner.upgrade() else {
            return;
        };
        // The scrub touches 4 KiB of usually cold memory; every lane and
        // every `Pinned` drop contend for the pool mutex, so it runs
        // between two short holds instead of under one long one.
        if inner.lock().expect("buf pool poisoned").free.len() >= FREE_LIMIT {
            return;
        }
        buf.fill(0);
        let mut g = inner.lock().expect("buf pool poisoned");
        // The list may have filled meanwhile; the scrubbed slab then just
        // goes back to the host allocator.
        if g.free.len() < FREE_LIMIT {
            if g.free.capacity() == 0 {
                // One allocation for the list's whole life (64 KiB), made
                // by the first slab to come home — not a regrowth every
                // time the steady state is a little deeper than before.
                g.free.reserve_exact(FREE_LIMIT);
            }
            g.free.push(buf);
            g.slab_returns += 1;
        }
    }
}

/// A fixed-capacity pinned-memory pool. Clones share the same capacity.
///
/// # Examples
///
/// ```
/// use netbuf::BufPool;
/// let pool = BufPool::new(8192);
/// let a = pool.pin(4096)?;
/// assert_eq!(pool.pinned(), 4096);
/// drop(a);                       // releasing the guard unpins
/// assert_eq!(pool.pinned(), 0);
/// # Ok::<(), netbuf::pool::PoolExhausted>(())
/// ```
#[derive(Clone, Debug)]
pub struct BufPool {
    inner: Arc<Mutex<Inner>>,
}

impl BufPool {
    /// A pool that can pin up to `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        BufPool {
            inner: Arc::new(Mutex::new(Inner {
                capacity,
                pinned: 0,
                peak: 0,
                free: Vec::new(),
                slab_allocs: 0,
                slab_recycles: 0,
                slab_returns: 0,
            })),
        }
    }

    /// A pool used only for slab recycling: nothing can be pinned. The
    /// data-plane components (iSCSI target/initiator, server daemons) use
    /// this for per-packet buffer churn, separate from cache-residency
    /// pools.
    pub fn slab_only() -> Self {
        BufPool::new(0)
    }

    /// A pooled segment holding a copy of `bytes`. Falls back to a plain
    /// heap segment when `bytes` exceeds [`SLAB_SIZE`]. The copy itself is
    /// *not* charged here — callers go through the ledger-charging
    /// [`crate::NetBuf`] operations.
    pub fn seg_from_slice(&self, bytes: &[u8]) -> Segment {
        if bytes.len() > SLAB_SIZE {
            return Segment::from_vec(bytes.to_vec());
        }
        let mut slab = self.take_slab();
        slab[..bytes.len()].copy_from_slice(bytes);
        Segment::from_boxed(slab, bytes.len(), Some(self.home()))
    }

    /// A pooled segment of `len` bytes built in place: `fill` receives a
    /// zero-initialized buffer (fresh or scrubbed) and writes whatever
    /// prefix it needs. Falls back to a plain heap segment past
    /// [`SLAB_SIZE`]. Not ledger-charged; see [`BufPool::seg_from_slice`].
    pub fn seg_filled(&self, len: usize, fill: impl FnOnce(&mut [u8])) -> Segment {
        if len > SLAB_SIZE {
            let mut buf = vec![0u8; len];
            fill(&mut buf);
            return Segment::from_vec(buf);
        }
        let mut slab = self.take_slab();
        fill(&mut slab[..len]);
        Segment::from_boxed(slab, len, Some(self.home()))
    }

    /// Slab free-list counters.
    pub fn slab_stats(&self) -> SlabStats {
        let g = self.lock();
        SlabStats {
            allocs: g.slab_allocs,
            recycles: g.slab_recycles,
            returns: g.slab_returns,
            free: g.free.len() as u64,
        }
    }

    fn take_slab(&self) -> Box<[u8]> {
        let mut g = self.lock();
        if let Some(slab) = g.free.pop() {
            g.slab_recycles += 1;
            slab
        } else {
            g.slab_allocs += 1;
            drop(g);
            vec![0u8; SLAB_SIZE].into_boxed_slice()
        }
    }

    fn home(&self) -> SlabHome {
        SlabHome {
            inner: Arc::downgrade(&self.inner),
        }
    }

    /// Pins `bytes` of memory, returning a guard that unpins on drop.
    ///
    /// # Errors
    ///
    /// Returns [`PoolExhausted`] when fewer than `bytes` remain free;
    /// nothing is pinned in that case.
    pub fn pin(&self, bytes: u64) -> Result<Pinned, PoolExhausted> {
        let mut g = self.lock();
        let available = g.capacity.saturating_sub(g.pinned);
        if bytes > available {
            return Err(PoolExhausted {
                requested: bytes,
                available,
            });
        }
        g.pinned += bytes;
        g.peak = g.peak.max(g.pinned);
        Ok(Pinned {
            pool: self.clone(),
            bytes,
        })
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.lock().capacity
    }

    /// Resizes the pool's capacity. Shrinking below the currently pinned
    /// bytes is allowed — existing pins stay valid and [`BufPool::pin`]
    /// simply sees zero available until enough is released (the adaptive
    /// split controller relies on this lazy-drain semantics: a quota cut
    /// never invalidates in-flight chunks).
    pub fn set_capacity(&self, capacity: u64) {
        self.lock().capacity = capacity;
    }

    /// Bytes currently pinned.
    pub fn pinned(&self) -> u64 {
        self.lock().pinned
    }

    /// Bytes currently free (zero while shrunk below the pinned bytes).
    pub fn available(&self) -> u64 {
        let g = self.lock();
        g.capacity.saturating_sub(g.pinned)
    }

    /// High-water mark of pinned bytes.
    pub fn peak_pinned(&self) -> u64 {
        self.lock().peak
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("buf pool poisoned")
    }

    fn release(&self, bytes: u64) {
        let mut g = self.lock();
        debug_assert!(g.pinned >= bytes, "double release");
        g.pinned = g.pinned.saturating_sub(bytes);
    }
}

/// A pinned-memory reservation; dropping it returns the bytes to the pool.
#[derive(Debug)]
pub struct Pinned {
    pool: BufPool,
    bytes: u64,
}

impl Pinned {
    /// Size of this reservation in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        self.pool.release(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_types_are_send_and_sync() {
        // Lane-parallel runs clone one pool handle into every worker
        // thread; the pool, its reservations and its recycling hook must
        // all cross threads.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BufPool>();
        assert_send_sync::<Pinned>();
        assert_send_sync::<SlabHome>();
    }

    #[test]
    fn slabs_recycle_across_threads() {
        // A segment built on one thread and dropped on another must hand
        // its slab back to the shared free list (the SlabHome holds the
        // pool weakly, from any thread).
        let pool = BufPool::slab_only();
        let seg = pool.seg_from_slice(&[7u8; 64]);
        std::thread::spawn(move || drop(seg))
            .join()
            .expect("drop thread panicked");
        let stats = pool.slab_stats();
        assert_eq!(stats.allocs, 1);
        assert_eq!(stats.returns, 1);
        assert_eq!(stats.free, 1);
        // The recycled slab comes back scrubbed on the original thread.
        let again = pool.seg_from_slice(&[1u8; 16]);
        assert_eq!(pool.slab_stats().recycles, 1);
        drop(again);
    }

    #[test]
    fn pin_and_release() {
        let p = BufPool::new(100);
        let a = p.pin(60).expect("fits");
        assert_eq!(p.pinned(), 60);
        assert_eq!(p.available(), 40);
        assert_eq!(a.bytes(), 60);
        drop(a);
        assert_eq!(p.pinned(), 0);
        assert_eq!(p.peak_pinned(), 60);
    }

    #[test]
    fn exhaustion_is_an_error_and_pins_nothing() {
        let p = BufPool::new(100);
        let _a = p.pin(80).expect("fits");
        let err = p.pin(30).expect_err("must not fit");
        assert_eq!(err.requested, 30);
        assert_eq!(err.available, 20);
        assert_eq!(p.pinned(), 80);
        assert!(err.to_string().contains("exhausted"));
    }

    #[test]
    fn set_capacity_resizes_and_shrink_drains_lazily() {
        let p = BufPool::new(100);
        let a = p.pin(80).expect("fits");
        // Shrink below the pinned bytes: nothing is invalidated, the pool
        // just reports zero available until pins drain.
        p.set_capacity(50);
        assert_eq!(p.capacity(), 50);
        assert_eq!(p.pinned(), 80);
        assert_eq!(p.available(), 0);
        let err = p.pin(1).expect_err("over quota");
        assert_eq!(err.available, 0);
        drop(a);
        assert_eq!(p.available(), 50);
        // Growing opens room immediately.
        p.set_capacity(200);
        let _b = p.pin(150).expect("grown");
    }

    #[test]
    fn exact_fit_is_allowed() {
        let p = BufPool::new(100);
        let _a = p.pin(100).expect("exact fit");
        assert_eq!(p.available(), 0);
        assert!(p.pin(1).is_err());
    }

    #[test]
    fn zero_byte_pin_is_fine() {
        let p = BufPool::new(0);
        let _a = p.pin(0).expect("zero always fits");
        assert!(p.pin(1).is_err());
    }

    #[test]
    fn clones_share_capacity() {
        let p = BufPool::new(100);
        let q = p.clone();
        let _a = q.pin(70).expect("fits");
        assert_eq!(p.pinned(), 70);
    }

    #[test]
    fn slabs_recycle_through_the_free_list() {
        let p = BufPool::slab_only();
        let a = p.seg_from_slice(&[0xAA; 100]);
        assert!(a.is_pooled());
        assert_eq!(a.as_slice(), &[0xAA; 100]);
        let s = p.slab_stats();
        assert_eq!((s.allocs, s.recycles, s.returns, s.free), (1, 0, 0, 0));
        drop(a);
        let s = p.slab_stats();
        assert_eq!((s.allocs, s.returns, s.free), (1, 1, 1));
        let b = p.seg_from_slice(&[0xBB; 8]);
        assert_eq!(p.slab_stats().recycles, 1, "take must reuse the slab");
        assert_eq!(b.as_slice(), &[0xBB; 8]);
        drop(b);
    }

    #[test]
    fn recycled_slabs_are_scrubbed() {
        let p = BufPool::slab_only();
        drop(p.seg_from_slice(&[0xFF; SLAB_SIZE]));
        // A filled segment that writes nothing must see only zeros, even
        // though the recycled slab previously held 0xFF everywhere.
        let s = p.seg_filled(SLAB_SIZE, |_| {});
        assert_eq!(p.slab_stats().recycles, 1);
        assert!(s.as_slice().iter().all(|&b| b == 0), "stale bytes leaked");
    }

    #[test]
    fn slab_survives_pool_drop() {
        let p = BufPool::slab_only();
        let seg = p.seg_from_slice(&[7; 16]);
        drop(p);
        assert_eq!(seg.as_slice(), &[7; 16]); // weak home: buffer just frees
    }

    #[test]
    fn oversized_requests_fall_back_to_the_heap() {
        let p = BufPool::slab_only();
        let big = p.seg_from_slice(&vec![3u8; SLAB_SIZE + 1]);
        assert!(!big.is_pooled());
        assert_eq!(big.len(), SLAB_SIZE + 1);
        let filled = p.seg_filled(SLAB_SIZE + 1, |b| b[0] = 9);
        assert!(!filled.is_pooled());
        assert_eq!(filled.as_slice()[0], 9);
        assert_eq!(p.slab_stats().allocs, 0);
    }

    #[test]
    fn slicing_keeps_the_slab_out_of_the_free_list() {
        let p = BufPool::slab_only();
        let a = p.seg_from_slice(&[1, 2, 3, 4]);
        let part = a.slice(1, 2);
        drop(a);
        assert_eq!(p.slab_stats().returns, 0, "live view pins the slab");
        assert_eq!(part.as_slice(), &[2, 3]);
        drop(part);
        assert_eq!(p.slab_stats().returns, 1);
    }

    #[test]
    fn slab_recycling_never_touches_pinned_accounting() {
        let p = BufPool::new(100);
        let _guard = p.pin(40).expect("fits");
        let seg = p.seg_from_slice(&[5; 64]);
        assert_eq!(p.pinned(), 40);
        assert_eq!(p.available(), 60);
        drop(seg);
        assert_eq!(p.pinned(), 40);
        assert_eq!(p.peak_pinned(), 40);
    }

    #[test]
    fn peak_tracks_high_water() {
        let p = BufPool::new(100);
        let a = p.pin(50).expect("fits");
        let b = p.pin(40).expect("fits");
        drop(a);
        drop(b);
        let _c = p.pin(10).expect("fits");
        assert_eq!(p.peak_pinned(), 90);
    }
}

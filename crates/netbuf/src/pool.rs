//! Pinned-memory pool accounting and segment-slab recycling.
//!
//! The Linux prototype limits the file-system buffer cache *indirectly*:
//! NCache's buffers are allocated in device-driver context, so they are
//! pinned physical memory, and whatever NCache pins is unavailable to the
//! page cache (paper §4.1). [`BufPool`] models that: it has a fixed byte
//! capacity; pinned allocations ([`BufPool::pin`]) succeed until the
//! capacity is exhausted, and the testbed sizes the FS buffer cache from
//! what remains of the machine's RAM. The three accounting words are
//! atomics: pinning, releasing and reading them never take a lock.
//!
//! The pool also recycles fixed-capacity segment buffers ("slabs") through
//! a free list, mirroring the kernel's `skb` slab caches: the data plane
//! builds one segment per packet, and allocating/freeing a `Vec` for each
//! dominates the hot path. [`BufPool::seg_written`], [`BufPool::seg_filled`]
//! and [`BufPool::seg_from_slice`] hand out [`Segment`]s whose storage
//! returns to the free list when the last reference drops. What the list
//! holds is whole stores — the segment's `Arc` handle, its slab, the
//! slab's dirty extent and its home — so a steady state of packets built
//! and dropped costs the host allocator nothing at all.
//!
//! A pool's stores are all one size: a [`SLAB_SIZE`] block
//! ([`BufPool::slab_only`]), or one key stamp ([`BufPool::stamp_only`]).
//! [`BufPool::placeholder`] on a stamp pool builds a whole-block
//! placeholder that stores only its 29-byte stamp — the buffer cache holds
//! keys, and the bytes past the stamp are zeros nobody stores.
//!
//! A recycled slab can never leak a previous packet's bytes, and nobody
//! zeroes a byte that is about to be overwritten. Each slab travels with
//! its *dirty extent*: every byte at or past it is zero. Recycling scrubs
//! nothing; it files `(slab, extent)`. The next constructor overwrites a
//! prefix and zeroes only what the previous owner dirtied beyond that
//! prefix — nothing at all when a whole-block payload follows a
//! whole-block payload, or a key stamp follows a key stamp. Slab recycling
//! is pure host-allocator mechanics: it charges nothing to the copy
//! ledgers and does not count against the pinned-byte capacity.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};

use crate::key::KeyStamp;
use crate::segment::{SegStore, Segment};

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

/// What the pool's clones share. The accounting words guard no memory — a
/// [`Pinned`] is a number, and the chunk it travels with is published by
/// its cache shard's lock — so every access to them is `Relaxed`; each is
/// still one totally ordered location, so the `fetch_update` in
/// [`BufPool::pin`] can never admit past the capacity.
#[derive(Debug)]
struct Shared {
    capacity: AtomicU64,
    pinned: AtomicU64,
    peak: AtomicU64,
    /// Bytes zeroed by constructors so far (a statistic).
    scrubbed_bytes: AtomicU64,
    /// Bytes in every store this pool hands out.
    store_len: usize,
    slabs: Mutex<Slabs>,
}

impl Shared {
    fn slabs(&self) -> MutexGuard<'_, Slabs> {
        let mut g = self.slabs.lock().expect("buf pool poisoned");
        g.lock_trips += 1;
        g
    }
}

/// The free list and its counters, behind the pool's only lock.
#[derive(Default)]
struct Slabs {
    /// Unique stores homed here, each of the pool's store length and zero
    /// at and past its dirty extent.
    free: Vec<Arc<SegStore>>,
    allocs: u64,
    recycles: u64,
    returns: u64,
    lock_trips: u64,
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
    /// Bytes constructors zeroed because a previous owner had dirtied them
    /// and the new one did not overwrite them.
    pub scrubbed_bytes: u64,
    /// Acquisitions of the free-list mutex by takes and recycles.
    pub lock_trips: u64, // test-api: proves pin accounting never takes the free-list lock
}

impl fmt::Debug for Slabs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Slabs")
            .field("free", &self.free.len())
            .field("allocs", &self.allocs)
            .field("recycles", &self.recycles)
            .field("returns", &self.returns)
            .finish()
    }
}

impl Slabs {
    /// Files a unique store, if the list has room.
    fn push(&mut self, store: Arc<SegStore>) -> Result<(), Arc<SegStore>> {
        if self.free.len() >= FREE_LIMIT {
            return Err(store);
        }
        self.file(store);
        self.returns += 1;
        Ok(())
    }

    /// Files a unique store in a list with room.
    fn file(&mut self, store: Arc<SegStore>) {
        if self.free.capacity() == 0 {
            // One allocation for the list's whole life (32 KiB), made by
            // the first store filed — not a regrowth every time the
            // steady state is a little deeper than before.
            self.free.reserve_exact(FREE_LIMIT);
        }
        self.free.push(store);
    }
}

/// Where a pool-backed segment's store goes when its last reference
/// drops: back into the owning pool's free list, as it is. Holds a weak
/// reference so in-flight segments never keep a dropped pool alive.
pub(crate) struct SlabHome {
    shared: Weak<Shared>,
}

impl SlabHome {
    /// Files a unique pooled `store` — handle, slab, extent and home — in
    /// its home's free list; the next taker scrubs what it does not
    /// overwrite. A store that cannot be filed, because its pool is gone
    /// or the list is full, has its home cleared before it drops: its own
    /// drop would otherwise try to file it again, and again.
    pub(crate) fn file(mut store: Arc<SegStore>) {
        let home = store.home.as_ref().expect("only pooled stores are filed");
        if let Some(shared) = home.shared.upgrade() {
            match shared.slabs().push(store) {
                Ok(()) => return,
                Err(back) => store = back,
            }
        }
        Arc::get_mut(&mut store)
            .expect("only unique stores are filed")
            .home = None;
    }

    /// The slab of a store whose last two clones dropped at once (see
    /// `SegStore`'s drop): files it in a new handle, or frees it when
    /// the pool is gone or full.
    pub(crate) fn recycle(self, buf: Box<[u8]>, dirty: usize) {
        let Some(shared) = self.shared.upgrade() else {
            return;
        };
        let mut g = shared.slabs();
        if g.free.len() < FREE_LIMIT {
            let store = Arc::new(SegStore {
                buf,
                home: Some(self),
                dirty,
            });
            let filed = g.push(store).is_ok();
            debug_assert!(filed, "room checked under the lock");
        }
    }
}

/// A write-only cursor over the slab a [`BufPool::seg_written`] segment is
/// being built on. Bytes go in front to back, so what the closure wrote is
/// exactly the prefix before the cursor — the range the pool may leave
/// unscrubbed.
pub struct SlabWriter<'a> {
    buf: &'a mut [u8],
    at: usize,
}

impl SlabWriter<'_> {
    /// Appends `bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` overruns the segment being built.
    #[inline]
    pub fn put(&mut self, bytes: &[u8]) {
        self.buf[self.at..self.at + bytes.len()].copy_from_slice(bytes);
        self.at += bytes.len();
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
    shared: Arc<Shared>,
}

impl BufPool {
    /// A pool that can pin up to `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        BufPool::with_store_len(capacity, SLAB_SIZE)
    }

    fn with_store_len(capacity: u64, store_len: usize) -> Self {
        BufPool {
            shared: Arc::new(Shared {
                capacity: AtomicU64::new(capacity),
                pinned: AtomicU64::new(0),
                peak: AtomicU64::new(0),
                scrubbed_bytes: AtomicU64::new(0),
                store_len,
                slabs: Mutex::default(),
            }),
        }
    }

    /// A pool used only for slab recycling: nothing can be pinned. The
    /// data-plane components (iSCSI target/initiator, server daemons) use
    /// this for per-packet buffer churn, separate from cache-residency
    /// pools.
    pub fn slab_only() -> Self {
        BufPool::new(0)
    }

    /// A pool of placeholder stores, each [`KeyStamp::LEN`] bytes: what
    /// the buffer cache's key-stamped blocks are built on
    /// ([`BufPool::placeholder`]). Nothing can be pinned.
    pub fn stamp_only() -> Self {
        BufPool::with_store_len(0, KeyStamp::LEN)
    }

    /// Bytes in every store this pool hands out: [`SLAB_SIZE`], or
    /// [`KeyStamp::LEN`] for a [`BufPool::stamp_only`] pool.
    fn store_len(&self) -> usize {
        self.shared.store_len
    }

    /// A pooled segment holding a copy of `bytes`. Falls back to a plain
    /// heap segment when `bytes` exceeds the pool's store length. The copy
    /// itself is *not* charged here — callers go through the
    /// ledger-charging [`crate::NetBuf`] operations.
    pub fn seg_from_slice(&self, bytes: &[u8]) -> Segment {
        if bytes.len() > self.store_len() {
            return Segment::from_vec(bytes.to_vec());
        }
        self.seg_written(bytes.len(), |w| w.put(bytes))
    }

    /// A `len`-byte placeholder block: `stamp` at its head, zeros behind
    /// it. On a [`BufPool::stamp_only`] pool the store holds the stamp and
    /// nothing else — the zeros are not stored — so a cached placeholder
    /// costs its key, not a page. Writing the stamp is the only byte work,
    /// and a stamp after a stamp scrubs nothing. Not ledger-charged; see
    /// [`BufPool::seg_from_slice`].
    ///
    /// # Panics
    ///
    /// Panics if `len` is shorter than a stamp.
    pub fn placeholder(&self, stamp: &KeyStamp, len: usize) -> Segment {
        assert!(
            len >= KeyStamp::LEN,
            "a {len}-byte block cannot carry a {}-byte key stamp",
            KeyStamp::LEN
        );
        let mut store = self.take_store();
        let slab = Arc::get_mut(&mut store).expect("a taken store is unique");
        stamp.encode_into(&mut slab.buf);
        self.scrub(&mut slab.buf, KeyStamp::LEN, slab.dirty);
        slab.dirty = KeyStamp::LEN;
        Segment::from_store(store, len)
    }

    /// A pooled segment of `len` bytes whose front `write` appends through
    /// a [`SlabWriter`]; whatever it leaves unwritten reads as zero. The
    /// written prefix is never scrubbed first — a whole-block payload
    /// touches each byte once, a 29-byte key stamp on a block of junk
    /// touches 29 — and the rest is scrubbed only as far as the slab's
    /// previous owner dirtied it. Falls back to a plain heap segment past
    /// the pool's store length. Not ledger-charged; see
    /// [`BufPool::seg_from_slice`].
    pub fn seg_written(&self, len: usize, write: impl FnOnce(&mut SlabWriter<'_>)) -> Segment {
        if len > self.store_len() {
            let mut buf = vec![0u8; len];
            write(&mut SlabWriter {
                buf: &mut buf,
                at: 0,
            });
            return Segment::from_vec(buf);
        }
        let mut store = self.take_store();
        let slab = Arc::get_mut(&mut store).expect("a taken store is unique");
        let mut w = SlabWriter {
            buf: &mut slab.buf[..len],
            at: 0,
        };
        write(&mut w);
        let written = w.at;
        self.scrub(&mut slab.buf, written, slab.dirty);
        slab.dirty = written;
        Segment::from_store(store, len)
    }

    /// A pooled segment of `len` bytes built in place: `fill` receives a
    /// zero-initialized buffer (fresh, or scrubbed over the previous
    /// owner's whole extent) and writes wherever it likes. Falls back to a
    /// plain heap segment past the pool's store length. Not
    /// ledger-charged; see [`BufPool::seg_from_slice`].
    pub fn seg_filled(&self, len: usize, fill: impl FnOnce(&mut [u8])) -> Segment { // test-api: the netbuf property fills pooled segments
        if len > self.store_len() {
            let mut buf = vec![0u8; len];
            fill(&mut buf);
            return Segment::from_vec(buf);
        }
        let mut store = self.take_store();
        let slab = Arc::get_mut(&mut store).expect("a taken store is unique");
        self.scrub(&mut slab.buf, 0, slab.dirty);
        fill(&mut slab.buf[..len]);
        slab.dirty = len;
        Segment::from_store(store, len)
    }

    /// Slab free-list counters.
    pub fn slab_stats(&self) -> SlabStats {
        // Not through `Shared::slabs`: reading the count is not a trip.
        let g = self.shared.slabs.lock().expect("buf pool poisoned");
        SlabStats {
            allocs: g.allocs,
            recycles: g.recycles,
            returns: g.returns,
            free: g.free.len() as u64,
            scrubbed_bytes: self.shared.scrubbed_bytes.load(Ordering::Relaxed),
            lock_trips: g.lock_trips,
        }
    }

    /// A unique store to build a segment on: a filed one, as its last
    /// owner left it, or a fresh zeroed one homed here.
    fn take_store(&self) -> Arc<SegStore> {
        let mut g = self.shared.slabs();
        if let Some(recycled) = g.free.pop() {
            g.recycles += 1;
            recycled
        } else {
            g.allocs += 1;
            drop(g);
            self.fresh_store()
        }
    }

    /// A zeroed store homed here, from the host allocator.
    fn fresh_store(&self) -> Arc<SegStore> {
        Arc::new(SegStore {
            buf: vec![0u8; self.store_len()].into_boxed_slice(),
            home: Some(self.home()),
            dirty: 0,
        })
    }

    /// Makes sure the next `n` takes find filed stores: when fewer are
    /// filed, files fresh ones until `2 * n` are (within the list's
    /// limit). For a taker whose stores come home only after its *next*
    /// take has landed — an NFS client's WRITE slabs, which the server's
    /// cache lets go of when a later write replaces or evicts their chunks
    /// — so that no landing of `n` waits on the host allocator once the
    /// first has stocked the list. Fresh stores count as `allocs`.
    pub fn stock(&self, n: usize) {
        let mut g = self.shared.slabs();
        if g.free.len() >= n {
            return;
        }
        let want = (2 * n).min(FREE_LIMIT);
        while g.free.len() < want {
            g.allocs += 1;
            g.file(self.fresh_store());
        }
    }

    /// Checks the free list: at most its limit of stores, each unique,
    /// homed in this pool, of the pool's store length, and zero at and past
    /// its dirty extent.
    ///
    /// # Errors
    ///
    /// A description of the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Not through `Shared::slabs`: checking is not a trip.
        let g = self.shared.slabs.lock().expect("buf pool poisoned");
        if g.free.len() > FREE_LIMIT {
            return Err(format!(
                "{} filed stores over the limit {FREE_LIMIT}",
                g.free.len()
            ));
        }
        for (i, store) in g.free.iter().enumerate() {
            let homed_here = store
                .home
                .as_ref()
                .is_some_and(|h| std::ptr::eq(h.shared.as_ptr(), Arc::as_ptr(&self.shared)));
            let fault = if Arc::strong_count(store) != 1 || Arc::weak_count(store) != 0 {
                "is shared"
            } else if !homed_here {
                "is not homed in this pool"
            } else if store.buf.len() != self.store_len() {
                "is not a whole store"
            } else if store.buf[store.dirty.min(store.buf.len())..]
                .iter()
                .any(|&b| b != 0)
            {
                "is dirty past its extent"
            } else {
                continue;
            };
            return Err(format!("filed store {i} {fault}"));
        }
        Ok(())
    }

    /// Zeroes `slab[from..dirty]` — the bytes a previous owner dirtied that
    /// the new one did not overwrite — outside the free-list lock.
    fn scrub(&self, slab: &mut [u8], from: usize, dirty: usize) {
        if from < dirty {
            slab[from..dirty].fill(0);
            self.shared
                .scrubbed_bytes
                .fetch_add((dirty - from) as u64, Ordering::Relaxed);
        }
    }

    fn home(&self) -> SlabHome {
        SlabHome {
            shared: Arc::downgrade(&self.shared),
        }
    }

    /// Pins `bytes` of memory, returning a guard that unpins on drop.
    ///
    /// # Errors
    ///
    /// Returns [`PoolExhausted`] when fewer than `bytes` remain free;
    /// nothing is pinned in that case.
    pub fn pin(&self, bytes: u64) -> Result<Pinned, PoolExhausted> {
        let shared = &*self.shared;
        let capacity = self.capacity();
        let grown =
            |pinned: u64| (bytes <= capacity.saturating_sub(pinned)).then(|| pinned + bytes);
        match shared
            .pinned
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, grown)
        {
            Ok(before) => {
                shared.peak.fetch_max(before + bytes, Ordering::Relaxed);
                Ok(Pinned {
                    pool: self.clone(),
                    bytes,
                })
            }
            Err(pinned) => Err(PoolExhausted {
                requested: bytes,
                available: capacity.saturating_sub(pinned),
            }),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.shared.capacity.load(Ordering::Relaxed)
    }

    /// Resizes the pool's capacity. Shrinking below the currently pinned
    /// bytes is allowed — existing pins stay valid and [`BufPool::pin`]
    /// simply sees zero available until enough is released (the adaptive
    /// split controller relies on this lazy-drain semantics: a quota cut
    /// never invalidates in-flight chunks).
    pub fn set_capacity(&self, capacity: u64) {
        self.shared.capacity.store(capacity, Ordering::Relaxed);
    }

    /// Bytes currently pinned.
    pub fn pinned(&self) -> u64 {
        self.shared.pinned.load(Ordering::Relaxed)
    }

    /// High-water mark of pinned bytes.
    pub fn peak_pinned(&self) -> u64 {
        self.shared.peak.load(Ordering::Relaxed)
    }

    fn release(&self, bytes: u64) {
        let before = self.shared.pinned.fetch_sub(bytes, Ordering::Relaxed);
        debug_assert!(before >= bytes, "double release");
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

    /// Bytes the pool can still pin (zero while shrunk below the pinned bytes).
    fn available(p: &BufPool) -> u64 {
        p.capacity().saturating_sub(p.pinned())
    }

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
        assert_eq!(available(&p), 40);
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
        assert_eq!(available(&p), 0);
        let err = p.pin(1).expect_err("over quota");
        assert_eq!(err.available, 0);
        drop(a);
        assert_eq!(available(&p), 50);
        // Growing opens room immediately.
        p.set_capacity(200);
        let _b = p.pin(150).expect("grown");
    }

    #[test]
    fn exact_fit_is_allowed() {
        let p = BufPool::new(100);
        let _a = p.pin(100).expect("exact fit");
        assert_eq!(available(&p), 0);
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
    fn a_short_list_is_stocked_for_two_landings() {
        let p = BufPool::slab_only();
        let take = |p: &BufPool, n: usize| -> Vec<Segment> {
            (0..n).map(|_| p.seg_from_slice(&[1; 10])).collect()
        };
        p.stock(3);
        let s = p.slab_stats();
        assert_eq!((s.allocs, s.free, s.returns), (6, 6, 0), "stocking is not a return");
        let first = take(&p, 3);
        p.stock(3);
        assert_eq!(p.slab_stats().allocs, 6, "three still filed: nothing to do");
        let second = take(&p, 3);
        assert_eq!(p.slab_stats().recycles, 6, "both landings rode filed stores");
        p.stock(3);
        let s = p.slab_stats();
        assert_eq!((s.allocs, s.free), (12, 6));
        drop((first, second));
        assert_eq!(p.slab_stats().returns, 6);
        assert_eq!(p.check_invariants(), Ok(()));
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
    fn constructors_scrub_only_what_the_previous_owner_dirtied_and_they_leave() {
        use crate::key::{KeyStamp, Lbn};
        let stamp = KeyStamp::new().with_lbn(Lbn(7)).encode();
        let block = [0xEEu8; SLAB_SIZE];
        let p = BufPool::slab_only();
        let scrubbed = |p: &BufPool| p.slab_stats().scrubbed_bytes;
        let placeholder = |p: &BufPool| p.seg_written(SLAB_SIZE, |w| w.put(&stamp));
        let is_placeholder = |s: &Segment| {
            s.len() == SLAB_SIZE
                && s.as_slice()[..KeyStamp::LEN] == stamp
                && s.as_slice()[KeyStamp::LEN..].iter().all(|&b| b == 0)
        };

        // Placeholder after placeholder: the stamp overwrites the stamp.
        drop(placeholder(&p));
        let s = placeholder(&p);
        assert!(is_placeholder(&s));
        assert_eq!(scrubbed(&p), 0);
        drop(s);
        // A recycled placeholder slab is dirty for exactly one stamp: a
        // zero-initialised build on it scrubs KeyStamp::LEN bytes, not 4096.
        let z = p.seg_filled(SLAB_SIZE, |_| {});
        assert!(z.as_slice().iter().all(|&b| b == 0));
        assert_eq!(scrubbed(&p), KeyStamp::LEN as u64);
        drop(z);

        // Data-In after Data-In (through either whole-block constructor)
        // and Data-In after a placeholder scrub nothing...
        let p = BufPool::slab_only();
        drop(placeholder(&p));
        drop(p.seg_from_slice(&block));
        let d = p.seg_written(SLAB_SIZE, |w| w.put(&block));
        assert_eq!(d.as_slice(), &block);
        assert_eq!(scrubbed(&p), 0);
        drop(d);
        // ...and a placeholder after Data-In scrubs the block's tail.
        let s = placeholder(&p);
        assert!(is_placeholder(&s));
        assert_eq!(scrubbed(&p), (SLAB_SIZE - KeyStamp::LEN) as u64);
        // One slab served all of it.
        assert_eq!(p.slab_stats().allocs, 1);
    }

    #[test]
    fn short_writes_scrub_down_to_what_they_wrote() {
        let p = BufPool::slab_only();
        drop(p.seg_from_slice(&[0xFF; 100]));
        // The view is longer than the write and shorter than the dirt.
        let s = p.seg_written(60, |w| w.put(&[1; 10]));
        assert_eq!(s.as_slice()[..10], [1; 10]);
        assert!(s.as_slice()[10..].iter().all(|&b| b == 0));
        assert_eq!(p.slab_stats().scrubbed_bytes, 90);
        drop(s);
        // The slab came home dirty for 10 bytes, not 60 and not 100.
        let z = p.seg_filled(SLAB_SIZE, |_| {});
        assert!(z.as_slice().iter().all(|&b| b == 0));
        assert_eq!(p.slab_stats().scrubbed_bytes, 100);
    }

    #[test]
    fn stamp_pools_store_keys_not_pages() {
        use crate::key::{Fho, FileHandle, Lbn};
        let p = BufPool::stamp_only();
        assert_eq!(p.store_len(), KeyStamp::LEN);
        let stamp = KeyStamp::new().with_lbn(Lbn(3));
        let ph = p.placeholder(&stamp, SLAB_SIZE);
        assert!(ph.is_pooled());
        assert_eq!((ph.len(), ph.stored_len(), ph.stamp()), (SLAB_SIZE, KeyStamp::LEN, Some(stamp)));
        let mut block = vec![0u8; SLAB_SIZE];
        stamp.encode_into(&mut block);
        assert_eq!(ph.to_vec(), block, "the stamp, then zeros nobody stores");
        drop(ph);
        // The store comes home and serves the next stamp, which overwrites
        // all of it: nothing to scrub.
        let other = KeyStamp::new().with_fho(Fho::new(FileHandle(7), 4096)).with_lbn(Lbn(8));
        let again = p.placeholder(&other, SLAB_SIZE);
        assert_eq!(again.stamp(), Some(other));
        let s = p.slab_stats();
        assert_eq!((s.allocs, s.recycles, s.returns, s.scrubbed_bytes), (1, 1, 1, 0));
        drop(again);
        assert_eq!(p.check_invariants(), Ok(()));
        // Payload past a store's length falls back to the heap.
        assert!(!p.seg_from_slice(&[1; KeyStamp::LEN + 1]).is_pooled());
    }

    #[test]
    fn a_placeholder_on_a_slab_pool_is_the_old_whole_block() {
        let stamp = KeyStamp::new().with_lbn(crate::key::Lbn(5));
        let p = BufPool::slab_only();
        drop(p.seg_from_slice(&[0xEE; SLAB_SIZE]));
        let ph = p.placeholder(&stamp, SLAB_SIZE);
        assert_eq!(ph.stored_len(), SLAB_SIZE, "stored whole");
        assert_eq!(ph, BufPool::stamp_only().placeholder(&stamp, SLAB_SIZE), "the same bytes");
        assert_eq!(p.slab_stats().scrubbed_bytes, (SLAB_SIZE - KeyStamp::LEN) as u64);
    }

    #[test]
    #[should_panic(expected = "cannot carry")]
    fn a_placeholder_shorter_than_its_stamp_panics() {
        BufPool::stamp_only().placeholder(&KeyStamp::new(), KeyStamp::LEN - 1);
    }

    #[test]
    #[should_panic]
    fn writing_past_the_segment_panics() {
        BufPool::slab_only().seg_written(8, |w| w.put(&[0; 9]));
    }

    #[test]
    fn pin_accounting_never_takes_the_free_list_lock() {
        let p = BufPool::new(100);
        // Holding the free-list mutex would deadlock any accounting call
        // that took it; the trip counter proves none tried.
        let held = p.shared.slabs.lock().expect("unpoisoned");
        let a = p.pin(60).expect("fits");
        assert!(p.pin(50).is_err());
        assert_eq!((p.pinned(), available(&p), p.capacity()), (60, 40, 100));
        p.set_capacity(80);
        drop(a);
        assert_eq!((p.pinned(), p.peak_pinned()), (0, 60));
        assert_eq!(held.lock_trips, 0);
        drop(held);
        // The slab path takes it exactly once per take and once per
        // recycle.
        let seg = p.seg_from_slice(&[1, 2, 3]);
        assert_eq!(p.slab_stats().lock_trips, 1);
        drop(seg);
        assert_eq!(p.slab_stats().lock_trips, 2);
        assert_eq!(p.slab_stats().lock_trips, 2, "reading is not a trip");
    }

    #[test]
    fn racing_pins_never_overshoot_the_capacity() {
        let p = BufPool::new(1000);
        let start = std::sync::Barrier::new(4);
        let held: Vec<Vec<Pinned>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        (0..200).filter_map(|_| p.pin(3).ok()).collect()
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("pinner panicked"))
                .collect()
        });
        // 800 attempts at 3 bytes against 1000: exactly 333 fit.
        assert_eq!(held.iter().map(Vec::len).sum::<usize>(), 333);
        assert_eq!((p.pinned(), p.peak_pinned()), (999, 999));
        drop(held);
        assert_eq!(p.pinned(), 0);
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
        assert_eq!(available(&p), 60);
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

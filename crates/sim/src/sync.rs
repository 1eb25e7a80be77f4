//! Shared mutable handles for the concurrent data plane.
//!
//! The rigs historically wired their components together with
//! `Rc<RefCell<T>>`: cheap, single-threaded, and deliberately not `Send`.
//! The lane-parallel session engine runs functional executions on real
//! threads, so every cross-component handle must be sharable. [`Shared`]
//! is the drop-in replacement: an `Arc<Mutex<T>>` that keeps the
//! `borrow()` / `borrow_mut()` call-site vocabulary of `RefCell`, so the
//! servers and rigs read the same while becoming `Send + Sync`.
//!
//! The mutex is uncontended on every sequential path (one thread, short
//! critical sections), so the byte-determinism of the sequential engines
//! is unaffected; under the parallel engine it serializes per-component
//! access exactly where `RefCell` would have panicked.
//!
//! Unlike `RefCell`, the lock is **not** re-entrant: holding a borrow
//! while taking another borrow of the *same* handle on the same thread
//! deadlocks rather than panics. Keep guards short-lived and never nest
//! borrows of one handle — the same discipline the `RefCell` rigs already
//! followed for `borrow_mut`.
//!
//! Two more pieces make the lane-parallel data plane *scale* rather than
//! merely run (DESIGN.md §14):
//!
//! * [`LaneCounters`] — event counters striped lane-major: every thread
//!   adds to the cache-line-padded stripe its `lane_slot` selects, so a
//!   hot-path count never writes a line another lane writes; readers sum
//!   the stripes. Sums are exact whenever no thread is mid-update — the
//!   quiescent points at which counters are compared anyway.
//! * [`LaneLock`] — the reader-writer lock in front of the rig core and
//!   of every cache shard: a bounded `try_` spin, then `yield_now`, then
//!   the blocking acquire of the `std` lock underneath. The exclusive
//!   sections it guards last a few microseconds, longer than `std`'s own
//!   spin, so without the outer spin every write parks both lanes in the
//!   kernel and pays a wake-up.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};

/// A sharable, internally-locked handle: `Arc<Mutex<T>>` with `RefCell`
/// vocabulary. Clones share the same underlying value.
#[derive(Debug, Default)]
pub struct Shared<T>(Arc<Mutex<Counted<T>>>);

/// The value plus the number of borrows taken so far. The count lives
/// under the mutex it counts, so keeping it costs a plain add.
#[derive(Debug, Default)]
struct Counted<T> {
    value: T,
    borrows: u64,
}

/// The guard [`Shared::borrow`] and [`Shared::borrow_mut`] return;
/// dereferences to the shared value.
#[derive(Debug)]
pub struct SharedGuard<'a, T>(MutexGuard<'a, Counted<T>>);

impl<T> std::ops::Deref for SharedGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0.value
    }
}

impl<T> std::ops::DerefMut for SharedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0.value
    }
}

impl<T> Shared<T> {
    /// Wraps `value` in a fresh shared handle.
    pub fn new(value: T) -> Self {
        Shared(Arc::new(Mutex::new(Counted { value, borrows: 0 })))
    }

    /// Locks the value for shared-by-convention access. The returned
    /// guard is exclusive (it is a mutex), but the name keeps read-only
    /// call sites (`handle.borrow().stats()`) unchanged.
    ///
    /// # Panics
    ///
    /// Panics if a previous holder panicked while holding the lock.
    pub fn borrow(&self) -> SharedGuard<'_, T> {
        self.borrow_mut()
    }

    /// Locks the value for mutation.
    ///
    /// # Panics
    ///
    /// Panics if a previous holder panicked while holding the lock.
    pub fn borrow_mut(&self) -> SharedGuard<'_, T> {
        let mut guard = self.0.lock().expect("Shared value poisoned");
        guard.borrows += 1;
        SharedGuard(guard)
    }

    /// Borrows taken through any clone of this handle so far (this call
    /// not included) — how tests prove a path never takes the mutex.
    ///
    /// # Panics
    ///
    /// Panics if a previous holder panicked while holding the lock.
    pub fn borrows(&self) -> u64 {
        self.0.lock().expect("Shared value poisoned").borrows
    }

    /// Whether two handles share the same underlying value.
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared(Arc::clone(&self.0))
    }
}

// ---------------------------------------------------------------------------
// Lane slots and lane-private counters
// ---------------------------------------------------------------------------

/// Exclusively owned counter stripes per [`LaneCounters`]: up to this many
/// live threads each count on a stripe no other thread writes. Threads
/// beyond that share one more stripe, `OVERFLOW` (still exact: its adds
/// are atomic read-modify-writes), so this bounds memory, not threads.
pub const LANE_SLOTS: usize = 8;

/// The stripe shared by every thread that found all [`LANE_SLOTS`] taken.
const OVERFLOW: usize = LANE_SLOTS;

/// Bit `i` set: exclusive slot `i` belongs to a live thread.
static SLOTS_TAKEN: AtomicUsize = AtomicUsize::new(0);

/// Stripes any thread may have written — the highest slot ever handed out,
/// plus one. Readers sum only these, so a process that never left its
/// first thread reads one stripe: the loads plain atomics would cost.
static STRIPES_LIVE: AtomicUsize = AtomicUsize::new(1);

/// A thread's claim on a stripe index, released when the thread exits.
struct LaneSlot(usize);

impl LaneSlot {
    fn acquire() -> Self {
        let mut taken = SLOTS_TAKEN.load(Ordering::Relaxed);
        let slot = loop {
            let free = (!taken).trailing_zeros() as usize;
            if free >= LANE_SLOTS {
                break OVERFLOW;
            }
            // Acquire pairs with the Release in `drop`: the new owner of a
            // recycled slot sees every count its previous owner stored.
            match SLOTS_TAKEN.compare_exchange_weak(
                taken,
                taken | 1 << free,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => break free,
                Err(now) => taken = now,
            }
        };
        STRIPES_LIVE.fetch_max(slot + 1, Ordering::Relaxed);
        LaneSlot(slot)
    }
}

impl Drop for LaneSlot {
    fn drop(&mut self) {
        if self.0 != OVERFLOW {
            SLOTS_TAKEN.fetch_and(!(1 << self.0), Ordering::Release);
        }
    }
}

thread_local! {
    static LANE: LaneSlot = LaneSlot::acquire();
}

/// This thread's counter stripe: an exclusive slot in `0..LANE_SLOTS`
/// claimed on first use and held until the thread exits, or [`OVERFLOW`]
/// when every slot is taken (or the thread is already tearing down its
/// thread-locals).
#[inline]
fn lane_slot() -> usize {
    LANE.try_with(|lane| lane.0).unwrap_or_else(|_| {
        STRIPES_LIVE.fetch_max(OVERFLOW + 1, Ordering::Relaxed);
        OVERFLOW
    })
}

/// One lane's counters, padded to its own pair of cache lines (128 bytes
/// covers the adjacent-line prefetcher).
#[derive(Debug)]
#[repr(align(128))]
struct Stripe<const N: usize>([AtomicU64; N]);

/// `N` monotone event counters, striped lane-major: [`LaneCounters::lane`]
/// hands the calling thread *its* stripe (all `N` counters on that
/// thread's own lines), [`LaneCounters::totals`] sums the stripes.
/// All operations are relaxed: each counter is an independent commutative
/// sum that publishes no other data.
#[derive(Debug)]
pub struct LaneCounters<const N: usize> {
    stripes: [Stripe<N>; LANE_SLOTS + 1],
}

/// The calling thread's stripe of a [`LaneCounters`]. Not `Send`: the
/// plain-store add is exact only on the thread that owns the stripe.
#[derive(Clone, Copy, Debug)]
pub struct Lane<'a, const N: usize> {
    cells: &'a [AtomicU64; N],
    /// Other threads add to this stripe too (it is [`OVERFLOW`]).
    shared: bool,
    _owner_thread_only: std::marker::PhantomData<*const ()>,
}

impl<const N: usize> Lane<'_, N> {
    /// Adds `n` to counter `i`. On an exclusively owned stripe this is a
    /// plain load and store — only the owner ever writes it — so a count
    /// costs no locked instruction and touches no line another thread
    /// writes.
    #[inline]
    pub fn add(&self, i: usize, n: u64) {
        let cell = &self.cells[i];
        if self.shared {
            cell.fetch_add(n, Ordering::Relaxed);
        } else {
            cell.store(
                cell.load(Ordering::Relaxed).wrapping_add(n),
                Ordering::Relaxed,
            );
        }
    }
}

impl<const N: usize> Default for LaneCounters<N> {
    fn default() -> Self {
        LaneCounters {
            stripes: std::array::from_fn(|_| Stripe(std::array::from_fn(|_| AtomicU64::new(0)))),
        }
    }
}

impl<const N: usize> LaneCounters<N> {
    /// The calling thread's stripe; fetch it once to add to several
    /// counters.
    #[inline]
    pub fn lane(&self) -> Lane<'_, N> {
        let slot = lane_slot();
        Lane {
            cells: &self.stripes[slot].0,
            shared: slot == OVERFLOW,
            _owner_thread_only: std::marker::PhantomData,
        }
    }

    /// Adds `n` to counter `i` on the calling thread's stripe.
    #[inline]
    pub fn add(&self, i: usize, n: u64) {
        self.lane().add(i, n);
    }

    /// Every counter summed across lanes. Exact at quiescent points (no
    /// thread mid-update, every counting thread joined or otherwise
    /// synchronized with); a racing reader sees each counter at some
    /// value it held during the call.
    pub fn totals(&self) -> [u64; N] {
        let mut out = [0u64; N];
        for stripe in &self.stripes[..STRIPES_LIVE.load(Ordering::Relaxed)] {
            for (sum, cell) in out.iter_mut().zip(&stripe.0) {
                *sum += cell.load(Ordering::Relaxed);
            }
        }
        out
    }

    /// Zeroes every counter. Like [`LaneCounters::totals`], meaningful
    /// only while no thread is counting.
    pub fn reset(&self) {
        for cell in self.stripes.iter().flat_map(|s| &s.0) {
            cell.store(0, Ordering::Relaxed);
        }
    }
}

impl<const N: usize> Clone for LaneCounters<N> {
    /// A detached copy holding the same totals (on the caller's stripe).
    fn clone(&self) -> Self {
        let copy = LaneCounters::default();
        let lane = copy.lane();
        for (i, total) in self.totals().into_iter().enumerate() {
            lane.add(i, total);
        }
        copy
    }
}

// ---------------------------------------------------------------------------
// The spin-then-block reader-writer lock
// ---------------------------------------------------------------------------

/// `try_` attempts separated by a CPU pause before the acquire starts
/// yielding. Sized to outlast the longest exclusive section the data
/// plane holds (a ~10 us NFS WRITE) on a host where the holder is
/// running on another core.
const SPIN_TRIES: u32 = 1 << 12;

/// `try_` attempts separated by `yield_now` before the acquire blocks:
/// on an oversubscribed host the holder is more likely descheduled than
/// slow, and yielding lets it run.
const YIELD_TRIES: u32 = 16;

/// Shared guard of a [`LaneLock`].
pub type LaneReadGuard<'a, T> = RwLockReadGuard<'a, T>;

/// Exclusive guard of a [`LaneLock`].
pub type LaneWriteGuard<'a, T> = RwLockWriteGuard<'a, T>;

/// Acquisition counts of one [`LaneLock`], for tests and diagnostics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LockCounters {
    /// Shared acquisitions.
    pub reads: u64,
    /// Shared acquisitions whose first attempt found the lock taken.
    pub reads_waited: u64, // test-api: the lane-lock stress bound on contended reads
    /// Exclusive acquisitions.
    pub writes: u64,
    /// Exclusive acquisitions whose first attempt found the lock taken.
    pub writes_waited: u64, // test-api: the lane-lock stress bound on contended writes
}

const READS: usize = 0;
const READS_WAITED: usize = 1;
const WRITES: usize = 2;
const WRITES_WAITED: usize = 3;

/// A reader-writer lock for microsecond-scale critical sections: spin on
/// `try_read`/`try_write`, then yield, then fall into the blocking
/// acquire of the [`RwLock`] underneath. The spin is bounded, so a
/// single-CPU host still makes progress, and a starved writer ends up in
/// the blocking `write()`, where `std`'s writer preference holds new
/// readers back.
///
/// Acquisitions are counted ([`LaneLock::counters`]) on lane-private
/// lines, off the lock word's own.
#[derive(Debug, Default)]
pub struct LaneLock<T> {
    inner: RwLock<T>,
    counts: LaneCounters<4>,
}

impl<T> LaneLock<T> {
    /// Wraps `value` in an unlocked lock.
    pub fn new(value: T) -> Self {
        LaneLock {
            inner: RwLock::new(value),
            counts: LaneCounters::default(),
        }
    }

    /// Runs `attempt` until it yields a guard: spinning, then yielding;
    /// `None` means the caller should block.
    fn spin<G>(
        &self,
        waited: usize,
        mut attempt: impl FnMut() -> Result<G, TryLockError<G>>,
    ) -> Option<G> {
        for tries in 0..SPIN_TRIES + YIELD_TRIES {
            match attempt() {
                Ok(guard) => return Some(guard),
                Err(TryLockError::Poisoned(_)) => panic!("LaneLock value poisoned"),
                Err(TryLockError::WouldBlock) => {}
            }
            if tries == 0 {
                self.counts.add(waited, 1);
            }
            if tries < SPIN_TRIES {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        None
    }

    /// Locks the value for shared access.
    ///
    /// # Panics
    ///
    /// Panics if a previous holder panicked while holding the lock
    /// exclusively.
    pub fn read(&self) -> LaneReadGuard<'_, T> {
        self.counts.add(READS, 1);
        self.spin(READS_WAITED, || self.inner.try_read())
            .unwrap_or_else(|| self.inner.read().expect("LaneLock value poisoned"))
    }

    /// Locks the value for exclusive access.
    ///
    /// # Panics
    ///
    /// Panics if a previous holder panicked while holding the lock
    /// exclusively.
    pub fn write(&self) -> LaneWriteGuard<'_, T> {
        self.counts.add(WRITES, 1);
        self.spin(WRITES_WAITED, || self.inner.try_write())
            .unwrap_or_else(|| self.inner.write().expect("LaneLock value poisoned"))
    }

    /// Consumes the lock, returning the value.
    ///
    /// # Panics
    ///
    /// Panics if a previous holder panicked while holding the lock
    /// exclusively.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().expect("LaneLock value poisoned")
    }

    /// Acquisition counts so far.
    pub fn counters(&self) -> LockCounters {
        let [reads, reads_waited, writes, writes_waited] = self.counts.totals();
        LockCounters {
            reads,
            reads_waited,
            writes,
            writes_waited,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn shared_is_send_and_sync() {
        // The point of the type: a rig component behind `Shared` can be
        // reached from lane worker threads.
        assert_send_sync::<Shared<u64>>();
        assert_send_sync::<Shared<Vec<u8>>>();
    }

    #[test]
    fn clones_alias_one_value() {
        let a = Shared::new(1u32);
        let b = a.clone();
        *b.borrow_mut() += 41;
        assert_eq!(*a.borrow(), 42);
        assert!(Shared::ptr_eq(&a, &b));
        assert!(!Shared::ptr_eq(&a, &Shared::new(42)));
    }

    #[test]
    fn cross_thread_mutation_lands() {
        let v = Shared::new(0u64);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let v = v.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        *v.borrow_mut() += 1;
                    }
                });
            }
        });
        assert_eq!(*v.borrow(), 4000);
    }

    #[test]
    fn borrows_are_counted_under_the_mutex() {
        let v = Shared::new(0u8);
        assert_eq!(v.borrows(), 0);
        *v.borrow_mut() += 1;
        let _ = *v.clone().borrow();
        assert_eq!(v.borrows(), 2, "reading the count is not a borrow");
    }

    #[test]
    fn lane_counters_sum_exactly_across_more_threads_than_slots() {
        // Twice as many concurrent threads as exclusive slots, re-created
        // over several rounds: some count on owned stripes (plain stores),
        // the rest on the shared overflow stripe, slots change hands
        // between rounds — and nothing is lost.
        let counters = LaneCounters::<3>::default();
        let threads = 2 * LANE_SLOTS as u64;
        for _round in 0..4 {
            let start = std::sync::Barrier::new(threads as usize);
            std::thread::scope(|s| {
                for t in 0..threads {
                    let (counters, start) = (&counters, &start);
                    s.spawn(move || {
                        // Every thread holds its slot before any counts,
                        // so the overflow stripe really is shared.
                        let lane = counters.lane();
                        start.wait();
                        for _ in 0..1000 {
                            lane.add(0, 1);
                            counters.add(1, t);
                        }
                    });
                }
            });
        }
        let rounds_threads = 4 * threads;
        assert_eq!(
            counters.totals(),
            [
                rounds_threads * 1000,
                4 * 1000 * (threads * (threads - 1) / 2),
                0
            ]
        );
        let copy = counters.clone();
        assert_eq!(copy.totals(), counters.totals());
        counters.reset();
        assert_eq!(counters.totals(), [0; 3]);
        assert_eq!(
            copy.totals()[0],
            rounds_threads * 1000,
            "a clone is detached"
        );
    }

    #[test]
    fn lane_lock_counts_acquisitions_and_waits() {
        let lock = LaneLock::new(5u32);
        assert_eq!(*lock.read(), 5);
        *lock.write() += 1;
        let free = lock.counters();
        assert_eq!((free.reads, free.writes), (1, 1));
        assert_eq!((free.reads_waited, free.writes_waited), (0, 0));
        // A reader arriving while a writer holds the lock waits — spins,
        // yields, then blocks — and gets in once the writer leaves.
        let held = lock.write();
        std::thread::scope(|s| {
            let reader = s.spawn(|| *lock.read());
            while lock.counters().reads_waited == 0 {
                std::thread::yield_now();
            }
            drop(held);
            assert_eq!(reader.join().expect("reader panicked"), 6);
        });
        let c = lock.counters();
        assert_eq!(
            (c.reads, c.reads_waited, c.writes, c.writes_waited),
            (2, 1, 2, 0)
        );
        assert_eq!(lock.into_inner(), 6);
    }

    #[test]
    fn lane_lock_is_send_and_sync() {
        assert_send_sync::<LaneLock<Vec<u8>>>();
        assert_send_sync::<LaneCounters<4>>();
    }
}

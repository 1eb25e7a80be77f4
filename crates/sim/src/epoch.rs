//! Epoch recency stamps for the lane-parallel data plane.
//!
//! The sequential cache orders chunks by a single monotone counter: each
//! access takes the next integer, so "least recently used" is simply the
//! smallest stamp. Under the parallel engine, lanes race for that counter
//! and the resulting order would depend on thread interleaving. Epoch
//! windows remove the race from the *order* while keeping the counter's
//! byte-exact sequential behaviour:
//!
//! * the engine partitions a run into **epochs** (one per op round) and
//!   gives each lane a seeded **tie rank** ([`tie_ranks`]) inside the
//!   epoch;
//! * before serving an op, the lane's worker thread enters a window
//!   ([`enter_window`]) whose base stamp packs `(epoch, tie)` into the
//!   high bits; every recency stamp the cache draws inside the window is
//!   `base + k` for a per-window cursor `k` — a pure function of the
//!   lane's program order, not of thread scheduling;
//! * a chunk touched by several lanes keeps the **maximum** stamp over its
//!   accesses (the cache promotes via max), so its final LRU position is a
//!   function of the *multiset* of accesses — order-independent;
//! * outside any window the source falls back to its atomic fetch-add,
//!   which is byte-identical to the old `Cell` counter on one thread.
//!
//! Epoch stamps start at `1 << 32`, far above anything the global
//! fetch-add clock reaches in a run, so windowed and plain stamps never
//! collide; after a parallel phase the engine advances the global clock
//! past the largest issued stamp (`NcacheModule::advance_clock_past`,
//! `Filesystem::advance_cache_seq_past`) so subsequent sequential accesses
//! still sort as most recent.
//!
//! The module also keeps a thread-local **ops tally** ([`OpTally`]), one
//! counter per cache: NCache bumps its own once per counted management
//! operation (lookup, insertion, remap), the file-system buffer cache its
//! own once per counted access or insertion. A lane thus measures exactly
//! the operations *it* performed — including substitution work done
//! outside the rig lock — without reading the globally shared counters
//! that other lanes are mutating concurrently.

use std::cell::Cell;

/// Stamps issued inside epoch windows live at or above this base, so they
/// always sort after plain fetch-add stamps from the sequential clock.
pub const EPOCH_BASE: u64 = 1 << 32;

/// Maximum recency stamps a single window may issue (cursor width).
pub const WINDOW_CAPACITY: u64 = 1 << 16;

/// The window's 16-bit cursor space is split in two: NCache stamps climb
/// from 0, FS-cache stamps climb from this offset. The two caches never
/// compare stamps against each other, so each half only has to be
/// internally ordered — and both are pure functions of the lane's program
/// order.
pub const FS_CURSOR_BASE: u64 = 1 << 15;

thread_local! {
    static WINDOW: Cell<Option<u64>> = const { Cell::new(None) };
    static CURSOR: Cell<u64> = const { Cell::new(0) };
    static FS_CURSOR: Cell<u64> = const { Cell::new(0) };
    static TALLY: Cell<OpTally> = const { Cell::new(OpTally { ncache: 0, fs: 0 }) };
}

/// One thread's counted cache operations since its last [`take_tally`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpTally {
    /// NCache management operations (lookups, insertions, remaps).
    pub ncache: u64,
    /// File-system buffer-cache operations (hits, misses, insertions).
    pub fs: u64,
}

/// Packs an `(epoch, tie)` pair into a window base stamp: epoch in the
/// high bits, the lane's tie rank in bits 16..32, and a zeroed cursor.
/// Stamps from `(e, t)` sort before stamps from `(e', t')` whenever
/// `(e, t) < (e', t')` lexicographically — the deterministic merge order
/// of the parallel engine.
pub fn stamp_base(epoch: u64, tie: u64) -> u64 {
    assert!(tie < WINDOW_CAPACITY, "tie rank {tie} exceeds 16 bits");
    ((epoch + 1) << 32) | (tie << 16)
}

/// Seeded tie ranks for `lanes` lanes: lane `i`'s rank in the permutation
/// obtained by sorting lanes on `mix64(seed ^ lane)`. Deterministic for a
/// given `(seed, lanes)`, uniform-ish across seeds — the "seeded
/// tie-breaking" knob that makes parallel results reproducible at any
/// thread count while still letting the schedule-exploration property
/// shuffle which lane wins ties.
pub fn tie_ranks(seed: u64, lanes: usize) -> Vec<u64> {
    let mut order: Vec<usize> = (0..lanes).collect();
    order.sort_unstable_by_key(|&lane| (crate::mix64(seed ^ lane as u64), lane));
    let mut ranks = vec![0u64; lanes];
    for (rank, lane) in order.into_iter().enumerate() {
        ranks[lane] = rank as u64;
    }
    ranks
}

/// RAII guard for an epoch window: restores the previous window (usually
/// none) and cursor on drop, so windows nest safely and a panicking lane
/// cannot leak a window into unrelated code.
#[derive(Debug)]
pub struct WindowGuard {
    prev_window: Option<u64>,
    prev_cursor: u64,
    prev_fs_cursor: u64,
}

/// Enters an epoch window on the current thread: until the returned guard
/// drops, every recency stamp the cache draws on this thread is
/// `base + k` for a fresh cursor `k` starting at 0.
pub fn enter_window(base: u64) -> WindowGuard {
    let prev_window = WINDOW.with(|w| w.replace(Some(base)));
    let prev_cursor = CURSOR.with(|c| c.replace(0));
    let prev_fs_cursor = FS_CURSOR.with(|c| c.replace(0));
    WindowGuard {
        prev_window,
        prev_cursor,
        prev_fs_cursor,
    }
}

impl Drop for WindowGuard {
    fn drop(&mut self) {
        WINDOW.with(|w| w.set(self.prev_window));
        CURSOR.with(|c| c.set(self.prev_cursor));
        FS_CURSOR.with(|c| c.set(self.prev_fs_cursor));
    }
}

/// Reserves the next `n` consecutive stamps of the current thread's epoch
/// window and returns the first, or `None` when no window is active (the
/// sequential case).
#[inline]
pub fn window_stamps(n: u64) -> Option<u64> {
    reserve(&CURSOR, n).map(|(base, k)| base + k)
}

/// The next `n` consecutive stamps of the FS-cache half of the current
/// thread's epoch window (the first is returned), or `None` when no
/// window is active. Draws
/// from a separate cursor starting at [`FS_CURSOR_BASE`], so FS recency
/// stamps inside a lane window are schedule-invariant too — without
/// perturbing the NCache cursor or the ops tally the parallel engine
/// reconciles against sequential counts.
#[inline]
pub fn window_fs_stamps(n: u64) -> Option<u64> {
    reserve(&FS_CURSOR, n).map(|(base, k)| base + FS_CURSOR_BASE + k)
}

/// Advances `cursor` by `n` inside the active window: `(window base, the
/// cursor's old value)`.
#[inline]
fn reserve(cursor: &'static std::thread::LocalKey<Cell<u64>>, n: u64) -> Option<(u64, u64)> {
    WINDOW.with(Cell::get).map(|base| {
        let k = cursor.with(|c| c.replace(c.get() + n));
        assert!(k + n <= FS_CURSOR_BASE, "epoch window issued > 2^15 stamps");
        (base, k)
    })
}

/// Counts one NCache management operation on the current thread's tally.
#[inline]
pub fn bump_ncache_tally() {
    TALLY.with(|t| {
        let mut tally = t.get();
        tally.ncache += 1;
        t.set(tally);
    });
}

/// Counts `n` buffer-cache operations on the current thread's tally.
#[inline]
pub fn bump_fs_tally(n: u64) {
    TALLY.with(|t| {
        let mut tally = t.get();
        tally.fs += n;
        t.set(tally);
    });
}

/// Drains the current thread's ops tally: returns the operations counted
/// since the last take and resets both counters to zero.
#[inline]
pub fn take_tally() -> OpTally {
    TALLY.with(|t| t.replace(OpTally::default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_base_orders_epoch_major_then_tie() {
        assert!(stamp_base(0, 0) < stamp_base(0, 1));
        assert!(stamp_base(0, 65535) < stamp_base(1, 0));
        assert!(stamp_base(3, 2) < stamp_base(4, 0));
        // All window stamps clear the sequential clock's range.
        assert!(stamp_base(0, 0) >= EPOCH_BASE);
    }

    #[test]
    fn tie_ranks_are_a_permutation_and_seed_sensitive() {
        for seed in [0u64, 7, 0xDEAD_BEEF] {
            let ranks = tie_ranks(seed, 16);
            let mut sorted = ranks.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..16).collect::<Vec<u64>>(), "permutation");
            assert_eq!(ranks, tie_ranks(seed, 16), "deterministic");
        }
        assert_ne!(tie_ranks(1, 16), tie_ranks(2, 16), "seeds shuffle ties");
    }

    #[test]
    fn windows_issue_consecutive_stamps_and_restore_on_drop() {
        assert_eq!(window_stamps(1), None, "no window outside a guard");
        let base = stamp_base(5, 3);
        {
            let _g = enter_window(base);
            assert_eq!(window_stamps(1), Some(base));
            assert_eq!(window_stamps(1), Some(base + 1));
            {
                let inner = stamp_base(6, 0);
                let _g2 = enter_window(inner);
                assert_eq!(window_stamps(1), Some(inner));
            }
            // The outer window resumes exactly where it left off.
            assert_eq!(window_stamps(1), Some(base + 2));
        }
        assert_eq!(window_stamps(1), None);
    }

    #[test]
    fn fs_stamps_draw_from_their_own_half_of_the_window() {
        assert_eq!(window_fs_stamps(1), None, "no window outside a guard");
        let base = stamp_base(2, 1);
        let _g = enter_window(base);
        // Interleaved draws: each cache's half advances independently.
        assert_eq!(window_stamps(1), Some(base));
        assert_eq!(window_fs_stamps(1), Some(base + FS_CURSOR_BASE));
        assert_eq!(window_stamps(1), Some(base + 1));
        assert_eq!(window_fs_stamps(1), Some(base + FS_CURSOR_BASE + 1));
        // Both halves stay inside the window's 16-bit cursor space.
        assert!(base + FS_CURSOR_BASE + 1 < base + WINDOW_CAPACITY);
    }

    #[test]
    fn tally_counts_and_drains_per_thread() {
        take_tally();
        bump_ncache_tally();
        bump_ncache_tally();
        bump_fs_tally(3);
        assert_eq!(take_tally(), OpTally { ncache: 2, fs: 3 });
        assert_eq!(take_tally(), OpTally::default(), "drained");
        // Another thread's tally is independent.
        bump_ncache_tally();
        let other = std::thread::spawn(take_tally).join().expect("join");
        assert_eq!(other, OpTally::default());
        assert_eq!(take_tally().ncache, 1);
    }
}

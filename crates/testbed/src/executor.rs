//! The deterministic parallel experiment executor.
//!
//! Every figure and table of the evaluation decomposes into independent
//! **cells** — one `(server mode, sweep point)` combination each. A cell
//! builds its own rig inside the worker, draws any randomness from a
//! seed derived solely from its cell index, and records into its own
//! `obs::Recorder`. (The lane-parallel sessions engine reuses the same
//! worker loop with *session lanes* as the cells — see
//! `sessions::run_nfs_sessions_parallel_timed`.) Workers pull cells from a
//! shared cursor;
//! results land in per-cell slots and are merged **in cell order**, so the
//! output — tables, metrics, trace bytes — is identical at any thread
//! count, including one.
//!
//! Thread-count resolution (first match wins): an explicit request (the
//! `--threads` flag), the `NCACHE_THREADS` environment variable, then
//! [`std::thread::available_parallelism`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the worker count.
pub const THREADS_ENV: &str = "NCACHE_THREADS";

/// Resolves the worker count: `explicit` beats [`THREADS_ENV`] beats the
/// machine's available parallelism. Always at least 1.
pub fn thread_count(explicit: Option<usize>) -> usize {
    explicit
        .or_else(|| {
            std::env::var(THREADS_ENV)
                .ok()
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, usize::from)
        })
        .max(1)
}

/// Derives a cell's root-independent seed: SplitMix64 over `root + cell`,
/// so cells are decorrelated yet depend only on their index — never on
/// which worker runs them or in what order.
pub fn derive_seed(root: u64, cell: u64) -> u64 {
    sim::mix64(root.wrapping_add(cell.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

/// Runs `cells` independent cells on up to `threads` scoped workers and
/// returns their results **indexed by cell**, i.e. in the same order a
/// sequential `(0..cells).map(f)` would produce. `f` must treat the cell
/// index as its only input; workers steal indices from a shared cursor,
/// so execution order is nondeterministic but the result order is not.
///
/// With `threads == 1` (or one cell) the cells run inline on the calling
/// thread — byte-identical to the parallel path by construction, and free
/// of any thread-spawn overhead for the degenerate case.
///
/// # Panics
///
/// Propagates a panic from any cell (the scope joins all workers first).
pub fn run_cells<T, F>(threads: usize, cells: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.max(1).min(cells);
    if workers <= 1 {
        return (0..cells).map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..cells).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= cells {
                    break;
                }
                let result = f(i);
                *slots[i].lock().expect("cell slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("cell slot poisoned")
                .expect("every cell ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_cell_order_at_any_thread_count() {
        let f = |i: usize| i * i;
        let expected: Vec<usize> = (0..37).map(f).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(run_cells(threads, 37, f), expected, "threads {threads}");
        }
    }

    #[test]
    fn zero_cells_is_fine() {
        let out: Vec<u32> = run_cells(4, 0, |_| unreachable!("no cells"));
        assert!(out.is_empty());
    }

    #[test]
    fn every_cell_runs_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        run_cells(7, 100, |i| hits[i].fetch_add(1, Ordering::Relaxed));
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn derived_seeds_depend_only_on_the_index() {
        assert_eq!(derive_seed(42, 3), derive_seed(42, 3));
        assert_ne!(derive_seed(42, 3), derive_seed(42, 4));
        assert_ne!(derive_seed(42, 3), derive_seed(43, 3));
    }

    #[test]
    fn explicit_thread_count_wins() {
        assert_eq!(thread_count(Some(3)), 3);
        assert!(thread_count(None) >= 1);
        assert_eq!(thread_count(Some(0)), 1, "zero clamps to one worker");
    }
}

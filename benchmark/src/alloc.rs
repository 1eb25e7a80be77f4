//! A counting `#[global_allocator]`: every heap allocation and
//! reallocation the process makes bumps two relaxed atomics. The run is
//! deterministic, so on a single thread the counts repeat exactly and can
//! be compared without a noise margin (ROADMAP item 1(b)).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator with call and byte counters in front of it.
pub struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics
// (Relaxed: they publish no other data).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's layout obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` is the
        // caller's obligation and passes through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocator counters at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCount {
    /// `alloc` + `alloc_zeroed` + `realloc` calls.
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

impl AllocCount {
    /// The counters right now.
    pub fn now() -> Self {
        AllocCount {
            calls: CALLS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// What was allocated since `earlier`.
    pub fn since(self, earlier: AllocCount) -> AllocCount {
        AllocCount {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary installs the allocator too (see main.rs), so the
    // counters move; other tests allocate concurrently, so only lower
    // bounds are exact.
    #[test]
    fn counts_allocations_and_reallocations() {
        let before = AllocCount::now();
        let mut v: Vec<u8> = Vec::with_capacity(100);
        v.extend(std::iter::repeat_n(7u8, 100));
        v.reserve_exact(10_000);
        std::hint::black_box(&v);
        let d = AllocCount::now().since(before);
        assert!(d.calls >= 2, "one alloc and one realloc, got {}", d.calls);
        assert!(d.bytes >= 100 + 10_000, "bytes requested, got {}", d.bytes);
    }

    #[test]
    fn since_subtracts_fieldwise() {
        let a = AllocCount {
            calls: 10,
            bytes: 400,
        };
        let b = AllocCount {
            calls: 3,
            bytes: 100,
        };
        assert_eq!(
            a.since(b),
            AllocCount {
                calls: 7,
                bytes: 300
            }
        );
    }
}

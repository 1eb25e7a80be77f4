//! Bitmap allocator for blocks and inodes.
//!
//! The bitmap lives in metadata blocks on the volume; the [`Filesystem`]
//! loads it at mount and writes back the dirtied bitmap blocks through the
//! buffer cache, so allocation activity generates real metadata I/O (which
//! is traffic NCache does *not* accelerate — part of why Figure 7's gains
//! shrink as metadata operations dominate).
//!
//! [`Filesystem`]: crate::fs::Filesystem

use crate::error::FsError;
use crate::BLOCK_SIZE;

/// Bits per bitmap block.
pub const BITS_PER_BLOCK: u64 = (BLOCK_SIZE * 8) as u64;

/// An in-memory allocation bitmap with dirty-block tracking.
///
/// # Examples
///
/// ```
/// use simfs::alloc::Bitmap;
/// let mut bm = Bitmap::new(100);
/// let a = bm.alloc(0)?;
/// let b = bm.alloc(0)?;
/// assert_ne!(a, b);
/// bm.free(a);
/// assert!(!bm.is_set(a));
/// # Ok::<(), simfs::FsError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bitmap {
    bits: Vec<u8>,
    capacity: u64,
    free: u64,
    dirty_blocks: Vec<bool>,
}

impl Bitmap {
    /// An all-free bitmap tracking `capacity` objects.
    pub fn new(capacity: u64) -> Self {
        let blocks = capacity.div_ceil(BITS_PER_BLOCK).max(1) as usize;
        Bitmap {
            bits: vec![0u8; blocks * BLOCK_SIZE],
            capacity,
            free: capacity,
            dirty_blocks: vec![false; blocks],
        }
    }

    /// Objects currently free.
    pub fn free_count(&self) -> u64 {
        self.free
    }

    /// Number of bitmap blocks backing this map.
    pub fn block_count(&self) -> usize {
        self.dirty_blocks.len()
    }

    /// Whether object `idx` is allocated.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn is_set(&self, idx: u64) -> bool {
        assert!(idx < self.capacity, "bitmap index out of range");
        self.bits[(idx / 8) as usize] & (1 << (idx % 8)) != 0
    }

    /// Allocates the first free object at or after `hint` (wrapping), marks
    /// it used, and returns its index.
    ///
    /// # Errors
    ///
    /// [`FsError::NoSpace`] when nothing is free.
    pub fn alloc(&mut self, hint: u64) -> Result<u64, FsError> {
        if self.free == 0 {
            return Err(FsError::NoSpace);
        }
        let start = if self.capacity == 0 { 0 } else { hint % self.capacity };
        for probe in 0..self.capacity {
            let idx = (start + probe) % self.capacity;
            if !self.is_set(idx) {
                self.set(idx);
                return Ok(idx);
            }
        }
        Err(FsError::NoSpace)
    }

    /// Marks object `idx` used.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or already set.
    pub fn set(&mut self, idx: u64) {
        assert!(!self.is_set(idx), "double allocation of index {idx}");
        self.bits[(idx / 8) as usize] |= 1 << (idx % 8);
        self.free -= 1;
        self.dirty_blocks[(idx / BITS_PER_BLOCK) as usize] = true;
    }

    /// Frees object `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or already free.
    pub fn free(&mut self, idx: u64) {
        assert!(self.is_set(idx), "double free of index {idx}");
        self.bits[(idx / 8) as usize] &= !(1 << (idx % 8));
        self.free += 1;
        self.dirty_blocks[(idx / BITS_PER_BLOCK) as usize] = true;
    }

    /// The raw bytes of bitmap block `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn block_bytes(&self, i: usize) -> &[u8] {
        &self.bits[i * BLOCK_SIZE..(i + 1) * BLOCK_SIZE]
    }

    /// Drains the indices of bitmap blocks dirtied since the last call.
    pub fn take_dirty_blocks(&mut self) -> Vec<usize> {
        let mut out = Vec::new();
        for (i, d) in self.dirty_blocks.iter_mut().enumerate() {
            if *d {
                out.push(i);
                *d = false;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use check::gen::*;
    use check::{prop_assert, prop_assert_eq, property};

    #[test]
    fn alloc_until_full_then_no_space() {
        let mut bm = Bitmap::new(10);
        let mut got = Vec::new();
        for _ in 0..10 {
            got.push(bm.alloc(0).expect("free space"));
        }
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert_eq!(bm.alloc(0), Err(FsError::NoSpace));
        assert_eq!(bm.free_count(), 0);
    }

    #[test]
    fn hint_steers_allocation() {
        let mut bm = Bitmap::new(100);
        assert_eq!(bm.alloc(40).expect("free"), 40);
        assert_eq!(bm.alloc(40).expect("free"), 41);
        // Wrapping search.
        let mut bm2 = Bitmap::new(4);
        bm2.set(3);
        assert_eq!(bm2.alloc(3).expect("free"), 0);
    }

    #[test]
    fn free_makes_reusable() {
        let mut bm = Bitmap::new(3);
        let a = bm.alloc(0).expect("free");
        bm.free(a);
        assert_eq!(bm.free_count(), 3);
        assert!(!bm.is_set(a));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut bm = Bitmap::new(3);
        bm.free(1);
    }

    #[test]
    #[should_panic(expected = "double allocation")]
    fn double_set_panics() {
        let mut bm = Bitmap::new(3);
        bm.set(1);
        bm.set(1);
    }

    #[test]
    fn dirty_block_tracking() {
        let mut bm = Bitmap::new(BITS_PER_BLOCK * 2 + 5);
        assert_eq!(bm.block_count(), 3);
        assert!(bm.take_dirty_blocks().is_empty());
        bm.set(0);
        bm.set(BITS_PER_BLOCK + 1);
        assert_eq!(bm.take_dirty_blocks(), vec![0, 1]);
        assert!(bm.take_dirty_blocks().is_empty(), "drained");
    }

    property! {
        fn prop_alloc_never_returns_duplicates(
            capacity in ints(1u64..500),
            hints in vec_of(any_u64(), 0..100),
        ) {
            let mut bm = Bitmap::new(capacity);
            let mut seen = std::collections::HashSet::new();
            for h in hints {
                match bm.alloc(h) {
                    Ok(idx) => {
                        prop_assert!(idx < capacity);
                        prop_assert!(seen.insert(idx), "duplicate allocation");
                    }
                    Err(FsError::NoSpace) => prop_assert_eq!(seen.len() as u64, capacity),
                    Err(e) => prop_assert!(false, "unexpected error {e:?}"),
                }
            }
            prop_assert_eq!(bm.free_count(), capacity - seen.len() as u64);
        }

        fn prop_model_based_set_free(
            capacity in ints(1u64..300),
            ops in vec_of((any_u64(), any_bool()), 0..200),
        ) {
            let mut bm = Bitmap::new(capacity);
            let mut model = std::collections::HashSet::new();
            for (idx, set) in ops {
                let idx = idx % capacity;
                if set {
                    if !model.contains(&idx) {
                        bm.set(idx);
                        model.insert(idx);
                    }
                } else if model.contains(&idx) {
                    bm.free(idx);
                    model.remove(&idx);
                }
            }
            for i in 0..capacity {
                prop_assert_eq!(bm.is_set(i), model.contains(&i));
            }
            prop_assert_eq!(bm.free_count(), capacity - model.len() as u64);
        }
    }
}

//! The block-device boundary under the file system.
//!
//! In the paper's testbed this boundary is the iSCSI initiator: every cache
//! miss or dirty-buffer flush becomes an iSCSI command to the storage
//! server. The `servers` crate provides that implementation; tests here use
//! [`MemStore`]. Each operation carries a [`BlockClass`] — the inode-type
//! context that iSCSI headers alone cannot convey but NCache's classifier
//! needs (§3.3: "the page data structure associated with iSCSI requests
//! contains the inode type information").

use std::sync::{Arc, Mutex};

use netbuf::Segment;
use sim::MixMap;

use crate::BLOCK_SIZE;

/// Whether a block belongs to file-system structure or to a regular file's
/// contents.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BlockClass {
    /// Superblock, bitmaps, inode table, directory and indirect blocks —
    /// physically copied in every configuration.
    Meta,
    /// Regular-file contents — the traffic NCache caches and substitutes.
    Data,
}

/// A 4 KiB-block random-access device.
///
/// Blocks travel as shareable [`Segment`]s so that a zero-copy
/// implementation (the NCache iSCSI initiator) can hand back placeholder
/// blocks without materializing bytes.
pub trait BlockStore {
    /// Reads block `lbn`.
    fn read_block(&mut self, lbn: u64, class: BlockClass) -> Segment;

    /// Writes block `lbn`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `data` is not exactly one block.
    fn write_block(&mut self, lbn: u64, class: BlockClass, data: &Segment);

    /// Number of addressable blocks.
    fn block_count(&self) -> u64;
}

/// Deterministic content for a never-written block: a pattern derived from
/// the LBN, so multi-gigabyte volumes need no backing memory and
/// end-to-end integrity checks can recompute expected bytes.
pub fn synthetic_block(lbn: u64) -> Vec<u8> {
    let mut b = vec![0u8; BLOCK_SIZE];
    synthetic_block_into(lbn, &mut b);
    b
}

/// Writes [`synthetic_block`] contents directly into `out` (one whole
/// block), letting pooled-buffer call sites skip the intermediate vector.
///
/// # Panics
///
/// Panics if `out` is not exactly [`BLOCK_SIZE`] bytes.
pub fn synthetic_block_into(lbn: u64, out: &mut [u8]) {
    assert_eq!(out.len(), BLOCK_SIZE, "synthetic blocks are whole blocks");
    for (chunk, word) in out.chunks_exact_mut(8).zip(synthetic_words(lbn)) {
        chunk.copy_from_slice(&word);
    }
}

/// The [`BLOCK_SIZE`]` / 8` little-endian words of [`synthetic_block`], in
/// order: an xorshift chain seeded by the LBN. Producers that append into
/// a write cursor take the stream instead of a scratch block.
pub fn synthetic_words(lbn: u64) -> impl Iterator<Item = [u8; 8]> {
    let mut x = lbn.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    (0..BLOCK_SIZE / 8).map(move |_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x.to_le_bytes()
    })
}

/// An in-memory, sparse block store: written blocks are kept; unwritten
/// blocks read as [`synthetic_block`] contents.
///
/// # Examples
///
/// ```
/// use simfs::{BlockClass, BlockStore, MemStore};
/// let mut s = MemStore::new(1024);
/// use netbuf::Segment;
/// let before = s.read_block(7, BlockClass::Data);
/// s.write_block(7, BlockClass::Data, &Segment::from_vec(vec![0xAA; 4096]));
/// assert_ne!(s.read_block(7, BlockClass::Data), before);
/// ```
#[derive(Clone, Debug)]
pub struct MemStore { // test-api: the in-memory store every file-system test mounts on
    blocks: Arc<Mutex<MixMap<u64, Vec<u8>>>>,
    count: u64,
}

impl MemStore {
    /// A store of `count` blocks, all initially synthetic.
    pub fn new(count: u64) -> Self { // test-api: the in-memory store every file-system test mounts on
        MemStore {
            blocks: Arc::default(),
            count,
        }
    }
}

impl BlockStore for MemStore {
    fn read_block(&mut self, lbn: u64, _class: BlockClass) -> Segment {
        assert!(lbn < self.count, "lbn {lbn} out of range");
        Segment::from_vec(
            self.blocks
                .lock()
                .expect("store poisoned")
                .get(&lbn)
                .cloned()
                .unwrap_or_else(|| synthetic_block(lbn)),
        )
    }

    fn write_block(&mut self, lbn: u64, _class: BlockClass, data: &Segment) {
        assert!(lbn < self.count, "lbn {lbn} out of range");
        assert_eq!(data.len(), BLOCK_SIZE, "writes must be whole blocks");
        self.blocks
            .lock()
            .expect("store poisoned")
            .insert(lbn, data.to_vec());
    }

    fn block_count(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_blocks_are_deterministic_and_distinct() {
        assert_eq!(synthetic_block(5), synthetic_block(5));
        assert_ne!(synthetic_block(5), synthetic_block(6));
        assert_eq!(synthetic_block(0).len(), BLOCK_SIZE);
    }

    #[test]
    fn mem_store_read_write() {
        let mut s = MemStore::new(16);
        assert_eq!(s.block_count(), 16);
        assert_eq!(s.read_block(3, BlockClass::Data).as_slice(), &synthetic_block(3)[..]);
        let data = Segment::from_vec(vec![7u8; BLOCK_SIZE]);
        s.write_block(3, BlockClass::Data, &data);
        assert_eq!(s.read_block(3, BlockClass::Data), data);
        assert_eq!(s.blocks.lock().expect("store poisoned").len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn mem_store_bounds_checked() {
        MemStore::new(4).read_block(4, BlockClass::Meta);
    }

    #[test]
    #[should_panic(expected = "whole blocks")]
    fn mem_store_rejects_partial_writes() {
        MemStore::new(4).write_block(0, BlockClass::Data, &Segment::from_vec(vec![1, 2, 3]));
    }
}

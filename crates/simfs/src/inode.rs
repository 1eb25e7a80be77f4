//! Inodes: on-disk encoding and block-map geometry.
//!
//! Each inode maps file block indices to volume LBNs through 16 direct
//! pointers, one single-indirect block, and two double-indirect blocks —
//! enough for files slightly over 2 GiB, covering the paper's 2 GB
//! sequential-read workload (§5.3).

use crate::error::FsError;
use crate::BLOCK_SIZE;

/// An inode number.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ino(pub u32);

impl std::fmt::Display for Ino {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ino:{}", self.0)
    }
}

/// Object type stored in an inode.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum FileType {
    /// Regular file: contents are *regular data* to NCache.
    #[default]
    Regular,
    /// Directory: contents are metadata.
    Directory,
}

/// Direct pointers per inode.
pub const NDIRECT: usize = 16;
/// Pointers per indirect block.
pub const PTRS_PER_BLOCK: usize = BLOCK_SIZE / 8;
/// Double-indirect pointers per inode.
pub const NDOUBLE: usize = 2;
/// Encoded inode size; 16 inodes fit in one block.
pub const INODE_SIZE: usize = 256;
/// Inodes per block.
pub const INODES_PER_BLOCK: usize = BLOCK_SIZE / INODE_SIZE;

/// LBN value meaning "no block mapped".
pub const NO_BLOCK: u64 = 0;

/// Where a file block index falls in the inode's block map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockPath {
    /// `direct[slot]`.
    Direct {
        /// Index into the direct array.
        slot: usize,
    },
    /// `single → [slot]`.
    Single {
        /// Index within the single-indirect block.
        slot: usize,
    },
    /// `double[which] → [outer] → [inner]`.
    Double {
        /// Which double-indirect root.
        which: usize,
        /// Slot in the first-level block.
        outer: usize,
        /// Slot in the second-level block.
        inner: usize,
    },
}

/// Resolves a file block index to its place in the map.
///
/// # Errors
///
/// [`FsError::InvalidRange`] beyond the double-indirect range.
pub fn block_path(index: u64) -> Result<BlockPath, FsError> {
    let p = PTRS_PER_BLOCK as u64;
    if index < NDIRECT as u64 {
        return Ok(BlockPath::Direct {
            slot: index as usize,
        });
    }
    let index = index - NDIRECT as u64;
    if index < p {
        return Ok(BlockPath::Single {
            slot: index as usize,
        });
    }
    let index = index - p;
    let per_double = p * p;
    let which = index / per_double;
    if which >= NDOUBLE as u64 {
        return Err(FsError::InvalidRange);
    }
    let rem = index % per_double;
    Ok(BlockPath::Double {
        which: which as usize,
        outer: (rem / p) as usize,
        inner: (rem % p) as usize,
    })
}

/// An in-memory inode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inode {
    /// Object type.
    pub ftype: FileType,
    /// Size in bytes.
    pub size: u64,
    /// Modification counter (advances on every write).
    pub mtime: u32,
    /// Direct block pointers ([`NO_BLOCK`] = unmapped).
    pub direct: [u64; NDIRECT],
    /// Single-indirect block pointer.
    pub single: u64,
    /// Double-indirect block pointers.
    pub double: [u64; NDOUBLE],
}

impl Inode {
    /// A fresh, empty inode of the given type.
    pub fn new(ftype: FileType) -> Self {
        Inode {
            ftype,
            size: 0,
            mtime: 0,
            direct: [NO_BLOCK; NDIRECT],
            single: NO_BLOCK,
            double: [NO_BLOCK; NDOUBLE],
        }
    }

    /// Size in whole-or-partial blocks.
    pub fn size_blocks(&self) -> u64 {
        (self.size).div_ceil(BLOCK_SIZE as u64)
    }

    /// Encodes into `out` (exactly [`INODE_SIZE`] bytes are written).
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than [`INODE_SIZE`].
    pub fn encode_into(&self, out: &mut [u8]) {
        assert!(out.len() >= INODE_SIZE, "inode buffer too small");
        out[..INODE_SIZE].fill(0);
        out[0] = match self.ftype {
            FileType::Regular => 1,
            FileType::Directory => 2,
        };
        out[8..16].copy_from_slice(&self.size.to_le_bytes());
        out[16..20].copy_from_slice(&self.mtime.to_le_bytes());
        let mut at = 24;
        for d in self.direct {
            out[at..at + 8].copy_from_slice(&d.to_le_bytes());
            at += 8;
        }
        out[at..at + 8].copy_from_slice(&self.single.to_le_bytes());
        at += 8;
        for d in self.double {
            out[at..at + 8].copy_from_slice(&d.to_le_bytes());
            at += 8;
        }
    }

    /// Decodes from `raw`.
    ///
    /// # Errors
    ///
    /// [`FsError::Corrupt`] if the type byte is invalid (including zero,
    /// which marks a free inode slot).
    pub fn decode(raw: &[u8]) -> Result<Inode, FsError> {
        if raw.len() < INODE_SIZE {
            return Err(FsError::Corrupt("short inode"));
        }
        let ftype = match raw[0] {
            1 => FileType::Regular,
            2 => FileType::Directory,
            _ => return Err(FsError::Corrupt("inode type")),
        };
        let get = |at: usize| u64::from_le_bytes(raw[at..at + 8].try_into().expect("8 bytes"));
        let mut direct = [NO_BLOCK; NDIRECT];
        let mut at = 24;
        for d in &mut direct {
            *d = get(at);
            at += 8;
        }
        let single = get(at);
        at += 8;
        let mut double = [NO_BLOCK; NDOUBLE];
        for d in &mut double {
            *d = get(at);
            at += 8;
        }
        Ok(Inode {
            ftype,
            size: get(8),
            mtime: u32::from_le_bytes(raw[16..20].try_into().expect("4 bytes")),
            direct,
            single,
            double,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use check::gen::*;
    use check::{prop_assert_eq, property};

    /// Maximum file size in blocks.
    const MAX_FILE_BLOCKS: u64 =
        NDIRECT as u64 + PTRS_PER_BLOCK as u64 + (NDOUBLE * PTRS_PER_BLOCK * PTRS_PER_BLOCK) as u64;

    #[test]
    fn geometry_covers_two_gigabytes() {
        assert_eq!(PTRS_PER_BLOCK, 512);
        assert_eq!(MAX_FILE_BLOCKS, 16 + 512 + 2 * 512 * 512);
        let max_bytes = MAX_FILE_BLOCKS * BLOCK_SIZE as u64;
        assert!(max_bytes > 2 * 1024 * 1024 * 1024, "max = {max_bytes}");
        assert_eq!(INODES_PER_BLOCK, 16);
    }

    #[test]
    fn block_path_boundaries() {
        assert_eq!(block_path(0), Ok(BlockPath::Direct { slot: 0 }));
        assert_eq!(block_path(15), Ok(BlockPath::Direct { slot: 15 }));
        assert_eq!(block_path(16), Ok(BlockPath::Single { slot: 0 }));
        assert_eq!(block_path(16 + 511), Ok(BlockPath::Single { slot: 511 }));
        assert_eq!(
            block_path(16 + 512),
            Ok(BlockPath::Double {
                which: 0,
                outer: 0,
                inner: 0
            })
        );
        assert_eq!(
            block_path(16 + 512 + 512 * 512),
            Ok(BlockPath::Double {
                which: 1,
                outer: 0,
                inner: 0
            })
        );
        assert_eq!(
            block_path(MAX_FILE_BLOCKS - 1),
            Ok(BlockPath::Double {
                which: 1,
                outer: 511,
                inner: 511
            })
        );
        assert_eq!(block_path(MAX_FILE_BLOCKS), Err(FsError::InvalidRange));
    }

    #[test]
    fn inode_round_trip() {
        let mut ino = Inode::new(FileType::Regular);
        ino.size = 123_456_789;
        ino.mtime = 42;
        ino.direct[0] = 100;
        ino.direct[15] = 200;
        ino.single = 300;
        ino.double[1] = 400;
        let mut buf = [0u8; INODE_SIZE];
        ino.encode_into(&mut buf);
        assert_eq!(Inode::decode(&buf), Ok(ino));
    }

    #[test]
    fn directory_round_trip() {
        let ino = Inode::new(FileType::Directory);
        let mut buf = [0u8; INODE_SIZE];
        ino.encode_into(&mut buf);
        assert_eq!(Inode::decode(&buf).expect("valid").ftype, FileType::Directory);
    }

    #[test]
    fn free_slot_decodes_as_corrupt() {
        // All-zero slots mark free inodes; decode refuses them.
        assert_eq!(Inode::decode(&[0u8; INODE_SIZE]), Err(FsError::Corrupt("inode type")));
        assert_eq!(Inode::decode(&[1u8; 10]), Err(FsError::Corrupt("short inode")));
    }

    #[test]
    fn size_blocks_rounds_up() {
        let mut ino = Inode::new(FileType::Regular);
        assert_eq!(ino.size_blocks(), 0);
        ino.size = 1;
        assert_eq!(ino.size_blocks(), 1);
        ino.size = BLOCK_SIZE as u64;
        assert_eq!(ino.size_blocks(), 1);
        ino.size = BLOCK_SIZE as u64 + 1;
        assert_eq!(ino.size_blocks(), 2);
    }

    property! {
        fn prop_inode_round_trip(
            size in any_u64(),
            mtime in any_u32(),
            d0 in any_u64(),
            single in any_u64(),
        ) {
            let mut ino = Inode::new(FileType::Regular);
            ino.size = size;
            ino.mtime = mtime;
            ino.direct[7] = d0;
            ino.single = single;
            let mut buf = [0u8; INODE_SIZE];
            ino.encode_into(&mut buf);
            prop_assert_eq!(Inode::decode(&buf), Ok(ino));
        }

        fn prop_block_path_total_order(idx in ints(0u64..MAX_FILE_BLOCKS)) {
            // Every in-range index resolves, and the mapping is injective:
            // re-deriving the index from the path returns `idx`.
            let p = PTRS_PER_BLOCK as u64;
            let back = match block_path(idx).expect("in range") {
                BlockPath::Direct { slot } => slot as u64,
                BlockPath::Single { slot } => NDIRECT as u64 + slot as u64,
                BlockPath::Double { which, outer, inner } => {
                    NDIRECT as u64 + p + which as u64 * p * p + outer as u64 * p + inner as u64
                }
            };
            prop_assert_eq!(back, idx);
        }
    }
}

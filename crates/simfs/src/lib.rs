#![warn(missing_docs)]
//! A small inode file system with a size-limited buffer cache — the local
//! file system the pass-through NFS server and kHTTPd run on.
//!
//! The paper's servers sit on an ordinary Linux FS whose page/buffer cache
//! holds 4 KiB blocks; NCache leaves "the file system and file system cache
//! abstractions intact" (§2) and only changes the *interfaces* the server
//! daemon uses to move data in and out of the cache. This crate mirrors
//! that split:
//!
//! * [`fs::Filesystem`] is a classic Unix-style FS: superblock, inode table
//!   (direct + single- + double-indirect block maps), bitmap allocator,
//!   single-level directories — all stored in real blocks behind a
//!   [`store::BlockStore`].
//! * [`cache::BufferCache`] is the page/buffer cache: bounded capacity, LRU,
//!   with the eviction policy of §3.4 ("first clean buffers are reclaimed
//!   and then dirty buffers are flushed and reclaimed").
//! * The FS exposes **both** data-movement interfaces: the conventional
//!   copying reads/writes ([`fs::Filesystem::read`], [`fs::Filesystem::write`]),
//!   and the key-moving logical interfaces
//!   ([`fs::Filesystem::read_logical`], [`fs::Filesystem::write_logical`])
//!   that the NCache configuration uses — blocks then hold a
//!   [`netbuf::key::KeyStamp`] plus junk instead of payload. The FS walks
//!   a range once per direction: every read (and
//!   [`fs::Filesystem::sendfile_into`]) is one walk — the resident walk
//!   on an all-hit range, [`fs::Filesystem::walk_per_block`] otherwise —
//!   and every write (and [`fs::Filesystem::allocate`]) one allocating
//!   walk. The interfaces differ only in the per-block step: a block's
//!   payload copied, or its key moved.
//!
//! Every block the FS touches is classified metadata vs regular data
//! ([`store::BlockClass`]), which is the inode-type context the iSCSI
//! initiator attaches to requests so the NCache module can classify
//! storage traffic (§3.3).

pub mod alloc;
pub mod cache;
pub mod dir;
pub mod error;
pub mod fs;
pub mod inode;
pub mod store;

pub use cache::BufferCache;
pub use error::FsError;
pub use fs::{Filesystem, FsParams};
pub use inode::{FileType, Ino};
pub use store::{BlockClass, BlockStore, MemStore};

/// File system block size in bytes (also the iSCSI block and NCache chunk
/// payload unit).
pub const BLOCK_SIZE: usize = 4096;

#![warn(missing_docs)]
//! Disk and RAID-0 array timing models — the storage substrate behind the
//! iSCSI target.
//!
//! The paper's storage server used four IBM DTLA-307075 IDE disks behind
//! two Promise controllers, configured as RAID-0 (§5.2). This crate models
//! that array's *timing*: each [`disk::Disk`] is a FIFO device with
//! seek/rotation/transfer service times (sequential access skips the
//! positioning cost, which is why the 2 GB sequential-read workload of
//! Figure 4 streams at media rate), and [`raid::Raid0`] stripes requests
//! across disks, completing when the slowest stripe finishes.
//!
//! The actual block *contents* live in the iSCSI target (`servers` crate);
//! this crate only answers "when is this I/O done?".

pub mod disk;
pub mod raid;
pub mod tier;
pub mod transient;

pub use disk::{Disk, DiskModel};
pub use raid::Raid0;
pub use tier::{TierConfig, TierOutcome, TierStats, TieredArray};
pub use transient::TransientFaults;

/// Block size used throughout the storage stack (one FS block, one iSCSI
/// block, one cacheable unit).
pub const BLOCK_SIZE: u64 = 4096;

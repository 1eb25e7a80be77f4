#![warn(missing_docs)]
//! NCache: the network-centric buffer cache — the paper's primary
//! contribution.
//!
//! A pass-through server (an NFS server backed by iSCSI storage, an
//! in-kernel static web server) mostly relays payload bytes it never
//! interprets. NCache exploits that: payload packets are parked in a
//! *network-ready* cache the moment they arrive, the layers above exchange
//! only small keys ("logical copying"), and when a reply is about to hit
//! the wire the module sitting between the network stack and the device
//! driver **substitutes** the cached payload for the key-carrying
//! placeholder. Physical copying of regular data disappears from the
//! server's fast paths.
//!
//! The pieces, mapped to the paper:
//!
//! * [`chunk::Chunk`] — "fixed-sized data chunks, each of which consists of
//!   a list of network buffers" (§3.4), pinned in device-driver memory
//!   through a [`netbuf::BufPool`].
//! * [`cache::NetCache`] — the two-part cache: an **LBN cache** for data
//!   arriving from the iSCSI target and an **FHO cache** for data arriving
//!   in NFS write requests, chained on one LRU list; clean chunks free
//!   silently, dirty chunks write back to the storage server first (§3.4).
//! * [`cache::NetCache::remap`] — converting a dirty FHO entry to an LBN
//!   entry when the file system flushes the corresponding buffer (§3.4,
//!   Figure 3).
//! * [`cache::NetCache::resolve`] — FHO-before-LBN lookup so "NFS clients
//!   always receive the most up-to-date data" (§3.4).
//! * [`substitute`] — packet substitution at the driver boundary (§3.2
//!   step 6) driven by the [`netbuf::key::KeyStamp`] planted in
//!   placeholder blocks.
//! * [`tracker::HttpTxTracker`] — the HTTP stream tracker that splits
//!   kHTTPd responses at the `\r\n\r\n` boundary and substitutes only body
//!   packets (§3.5, §4.3).
//! * [`module::NcacheModule`] — the loadable-module facade the server
//!   hook points call; owns the cache, the configuration, and the
//!   operation counters the CPU model charges.
//!
//! # Examples
//!
//! ```
//! use ncache::{NcacheConfig, NcacheModule};
//! use netbuf::{CopyLedger, Segment};
//! use netbuf::key::Lbn;
//!
//! let ledger = CopyLedger::new();
//! let mut module = NcacheModule::new(NcacheConfig::with_capacity(1 << 20), &ledger);
//! // An iSCSI read response arrives: cache it and get a placeholder for
//! // the file system.
//! let payload = Segment::from_vec(vec![42u8; 4096]);
//! let placeholder = module.on_data_in(Lbn(7), vec![payload], 4096)?;
//! // Later, an NFS read reply carrying that placeholder is substituted.
//! assert!(module.cache_handle().contains(Lbn(7).into()));
//! # Ok::<(), ncache::CacheFull>(())
//! ```

pub mod adaptive;
pub mod cache;
pub mod chunk;
pub mod module;
pub mod shards;
pub mod substitute;
pub mod tracker;

pub use adaptive::{
    Resize, ResizeDir, SplitConfig, SplitController, SplitSample, SplitStats,
};
pub use cache::{CacheFull, NetCache, NetCacheStats, WritebackChunk};
pub use chunk::Chunk;
pub use module::{placeholder_block, NcacheConfig, NcacheModule};
pub use shards::{shard_of, NetCacheShards};
pub use substitute::{resolve_reply, substitute_payload, Resolved, SubstitutionReport};
pub use tracker::{HttpTxTracker, TxDisposition};

/// Payload bytes per cache chunk: one file-system block.
pub const CHUNK_PAYLOAD: usize = 4096;

/// Descriptor bytes pinned per chunk beside its payload: they shrink the
/// effective cache (Figure 6(a)).
pub const CHUNK_OVERHEAD: u64 = 128;

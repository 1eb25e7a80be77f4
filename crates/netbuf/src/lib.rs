#![warn(missing_docs)]
//! Network buffers with copy accounting — the data plane of the NCache
//! reproduction.
//!
//! The paper's central claim is about *how many times payload bytes are
//! physically copied* inside a pass-through server (Table 2), and how
//! replacing those physical copies with **logical copies** (moving a small
//! key instead of the payload) changes CPU load and throughput. To keep the
//! reproduction honest, this crate implements the kernel network-buffer
//! machinery as real data structures moving real bytes:
//!
//! * [`segment::Segment`] — a reference-counted byte region, the analogue of
//!   an `sk_buff` data area / page fragment. Cloning a segment is pointer
//!   manipulation (a *logical copy*); extracting its bytes is a physical
//!   copy and is charged to the ledger.
//! * [`buf::NetBuf`] — a chain of segments plus protocol header area, the
//!   analogue of a full `sk_buff` with its frag list. This is the unit that
//!   NCache caches and substitutes. Its chain, a [`chain::SegChain`],
//!   keeps the first segment inline, so a one-segment packet allocates
//!   no list.
//! * [`accounting::CopyLedger`] — counts every physical copy, logical copy,
//!   checksum pass, and header-byte movement. The simulated CPU charges
//!   time *per counted operation*, so Figures 4-7 follow from Table 2.
//! * [`pool::BufPool`] — allocation arena with pinned-memory accounting:
//!   NCache buffers are pinned device-driver memory, which is exactly how
//!   the Linux prototype limits the file-system buffer cache size (§4.1).
//! * [`key`] — the logical-copy key types: logical block numbers
//!   ([`key::Lbn`]) and file-handle/offset pairs ([`key::Fho`]).
//!
//! # Examples
//!
//! ```
//! use netbuf::{CopyLedger, NetBuf, Segment};
//!
//! let ledger = CopyLedger::new();
//! let payload = Segment::from_vec(vec![7u8; 4096]);
//! let mut pkt = NetBuf::new(&ledger);
//! pkt.append_segment(payload.clone());      // logical: no bytes move
//! let twin = pkt.share();                   // logical copy of the chain
//! assert_eq!(ledger.snapshot().payload_bytes_copied, 0);
//!
//! let mut out = vec![0u8; 4096];
//! twin.copy_payload_into(&mut out);         // physical copy, charged
//! assert_eq!(ledger.snapshot().payload_bytes_copied, 4096);
//! assert_eq!(out, vec![7u8; 4096]);
//! ```

pub mod accounting;
pub mod buf;
pub mod chain;
pub mod key;
pub mod mbuf;
pub mod pool;
pub mod segment;

pub use accounting::{CopyLedger, LedgerSnapshot};
pub use buf::NetBuf;
pub use chain::SegChain;
pub use mbuf::MbufChain;
pub use key::{CacheKey, FileHandle, Fho, Lbn};
pub use pool::{BufPool, SlabStats, SlabWriter, SLAB_SIZE};
pub use segment::{Runs, Segment};

#![warn(missing_docs)]
//! The pass-through servers: iSCSI target and initiator, the three NFS
//! server configurations, and the three kHTTPd configurations.
//!
//! The paper evaluates each server in three builds (§5.1):
//!
//! * **original** — the stock copying data path;
//! * **NCache** — the network-centric cache module inserted at the driver
//!   boundary, logical copying everywhere above it;
//! * **baseline** — the "ideal" zero-copy bound: regular-data copies simply
//!   removed, so replies carry junk payload ("the packets that are actually
//!   sent back to clients contain only random bits"), which is harmless
//!   because the measurement clients never interpret payloads.
//!
//! This crate implements all six servers over the `simfs` file system and
//! the `proto` codecs, with every byte movement charged to per-node
//! [`netbuf::CopyLedger`]s. The servers are *functionally correct*: under
//! the original and NCache configurations a client read returns exactly
//! the stored bytes (integration tests verify this end to end, including
//! through substitution and remapping); under baseline it deliberately
//! does not, matching the paper.
//!
//! Module map:
//!
//! * [`target`] — the iSCSI storage server (disk image + PDU handling).
//! * [`initiator`] — the iSCSI initiator, a [`simfs::BlockStore`] whose
//!   NCache build hosts hook points 1 and 3 of the module.
//! * [`host`] — what both daemons share on the application server: the
//!   build, the file system, the module handle, fault recovery, admission
//!   and the driver-boundary transmit hook.
//! * [`nfs`] — the in-kernel NFS server (three builds) and a test client.
//! * [`khttpd`] — the in-kernel static web server (three builds).
//! * [`stack`] — the one delivery (and its faulty form) every node receives through.
//! * [`hooks`] — the Table 1 modification-footprint inventory.
//! * [`control`] — the overload control plane: deterministic admission
//!   gates, dirty-cache backpressure, and the client retry policy.

pub mod control;
pub mod hooks;
pub mod host;
pub mod initiator;
pub mod khttpd;
pub mod mode;
pub mod nfs;
pub mod stack;
pub mod target;
pub mod util;

pub use control::{ControlConfig, ControlStats, RetryBudget, RetryPolicy};
pub use host::ServerHost;
pub use initiator::IscsiInitiator;
pub use khttpd::{HttpClient, KhttpdServer};
pub use mode::ServerMode;
pub use nfs::{NfsClient, NfsServer};
pub use target::IscsiTarget;

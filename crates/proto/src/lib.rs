#![warn(missing_docs)]
//! Wire-format subsets of every protocol the pass-through server speaks.
//!
//! The NCache design (paper §3.3, §3.5) classifies traffic as *metadata*
//! versus *regular data* by inspecting higher-level protocol headers — the
//! RPC procedure number for NFS, request context (inode type) for iSCSI, and
//! the header/body split for HTTP. This crate implements faithful, testable
//! codecs for exactly the header fields that classification and substitution
//! rely on:
//!
//! * [`csum`] — the Internet checksum (RFC 1071), which NCache's fault
//!   recovery stores per cached chunk and verifies before reuse.
//! * [`rpc`], [`nfs`] — SUN RPC and the NFS procedures the evaluation
//!   exercises (GETATTR, LOOKUP, READ, WRITE).
//! * [`iscsi`] — the SCSI command / Data-In / Data-Out PDU subset the
//!   NFS-server-to-storage-server path uses.
//! * [`http`] — HTTP/1.0 requests and responses for the kHTTPd experiments.
//!
//! Link, network and transport framing (Ethernet, IPv4, UDP, TCP) is
//! modeled, not built: `sim::costs` charges each message its per-packet
//! CPU by transport and segment count (NFS over UDP, HTTP over TCP,
//! paper §5.5), and the testbed adds a fixed per-message header
//! overhead to the wire bytes. No request carries those headers.
//!
//! All decode functions are pure: `&[u8]` in, structured header out, with
//! byte-exact round-trip tests and property tests in each module.

pub mod csum;
pub mod error;
pub mod http;
pub mod iscsi;
pub mod nfs;
pub mod rpc;

pub use error::{DecodeError, Result};

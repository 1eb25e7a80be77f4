//! Umbrella crate for the NCache reproduction.
//!
//! Reproduction of **"Network-Centric Buffer Cache Organization"** (Peng,
//! Sharma, Chiueh — ICDCS 2005): a network-centric buffer cache that lets
//! pass-through servers (an NFS server backed by iSCSI storage; an
//! in-kernel static web server) relay regular data without physical
//! copying, by caching payload packets in network-ready form and moving
//! keys — not bytes — between the layers above.
//!
//! This crate re-exports the workspace so examples and integration tests
//! have one import root. The pieces:
//!
//! * [`ncache`] — the paper's contribution: the two-part (LBN + FHO)
//!   network-centric cache, remapping, packet substitution, HTTP stream
//!   tracking.
//! * [`netbuf`] — sk_buff-style network buffers with a copy-accounting
//!   ledger; every physical and logical copy in the system is counted.
//! * [`proto`] — RPC/NFS/iSCSI/HTTP codecs and the Internet checksum.
//! * [`simfs`] — the inode file system + size-limited buffer cache the
//!   servers run on.
//! * [`servers`] — iSCSI target and initiator, and the three builds each
//!   of the NFS server and kHTTPd (original / NCache / zero-copy baseline).
//! * [`blockdev`] + [`sim`] — the simulated testbed hardware: RAID-0 IDE
//!   array, FIFO CPUs and links, calibrated to the paper's Pentium III /
//!   Gigabit Ethernet machines.
//! * [`obs`] — the unified tracing and metrics layer: per-request spans,
//!   sim-time event timelines, counters/histograms, Chrome-trace and
//!   JSONL exporters (see the Observability section of DESIGN.md).
//! * [`workload`] — all-miss/all-hit micro-benchmarks, SPECsfs- and
//!   SPECweb99-like generators, and the trace player.
//! * [`testbed`] — wires nodes together and regenerates every figure and
//!   table of the paper's evaluation (see EXPERIMENTS.md).
//!
//! # Examples
//!
//! ```
//! use ncache_repro::testbed::nfs_rig::NfsRig;
//! use ncache_repro::servers::ServerMode;
//!
//! // A complete NFS-over-iSCSI pass-through server with NCache:
//! let mut rig = NfsRig::new(ServerMode::NCache, Default::default());
//! let fh = rig.create_file("hello.dat", 8192);
//! let data = rig.read(fh, 0, 8192);
//! assert_eq!(data.len(), 8192);
//! ```

pub use blockdev;
pub use ncache;
pub use netbuf;
pub use obs;
pub use proto;
pub use servers;
pub use sim;
pub use simfs;
pub use testbed;
pub use workload;

#![warn(missing_docs)]
//! The simulated testbed: wires the paper's four machines together and
//! regenerates every figure and table of the evaluation (§5).
//!
//! The testbed has two layers:
//!
//! 1. **The data plane** ([`rig`], with what is NFS about it in
//!    [`nfs_rig`] and what is HTTP about it in [`khttpd_rig`]) — a
//!    functionally complete pass-through server: real packets through
//!    real protocol codecs, a real file system and buffer cache, a real
//!    iSCSI target, and (in the NCache build) the real cache module. A
//!    client read returns exactly the stored bytes; every physical copy is
//!    counted in per-node ledgers.
//! 2. **The timing layer** ([`timing`] and one private engine) — a
//!    discrete-event simulation of the paper's hardware (PIII 1 GHz nodes,
//!    Gigabit links, a RAID-0 IDE array). Each request's *measured*
//!    operation counts (copies, packets, cache ops, storage bursts) become
//!    service demands at FIFO resources; throughput and utilization fall
//!    out of whichever resource saturates — exactly the mechanics behind
//!    Figures 4-7. The engine is one chain-walker over one hardware model;
//!    the public entry points select its arrival process: [`runner::run`]
//!    (closed loop over a shared queue, Figs 4-7),
//!    [`sessions::run_sessions`] (one closed loop per client session) and
//!    [`openloop::run_open_loop`] (arrivals on an absolute schedule).
//!
//! [`experiments`] describes the whole evaluation once: one function per
//! figure and table, each taking the run's [`experiments::Exp`] context
//! and returning [`sim::stats::SeriesTable`]s that print the same rows the
//! paper plots, and one registry of them ([`experiments::ALL`]) that the
//! `repro` binary, the golden files, the equivalence suite and the figures
//! bench iterate.

pub mod ablations;
pub mod adaptive;
mod engine;
pub mod executor;
pub mod experiments;
pub mod khttpd_rig;
pub mod nfs_rig;
pub mod openloop;
pub mod rig;
pub mod runner;
pub mod sessions;
pub mod timing;

pub use khttpd_rig::{KhttpdRig, KhttpdRigParams};
pub use nfs_rig::{NfsRig, NfsRigParams};


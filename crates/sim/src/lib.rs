#![warn(missing_docs)]
//! Deterministic discrete-event simulation substrate for the NCache
//! reproduction.
//!
//! The paper ("Network-Centric Buffer Cache Organization", ICDCS 2005)
//! evaluates NCache on a physical testbed: Pentium III 1 GHz nodes, Gigabit
//! Ethernet, and a RAID-0 IDE storage array. This crate provides the
//! simulated equivalent of that hardware: a virtual clock, an event queue,
//! FIFO-queued resources (CPUs, links, disks), a calibrated cost model, and
//! deterministic pseudo-randomness, so that the benchmark harness can
//! reproduce the *shape* of every figure in the paper's evaluation section.
//!
//! Design notes:
//!
//! * The engine is fully deterministic: events at equal timestamps are
//!   ordered by insertion sequence number, and all randomness flows from
//!   seeded [`rng::SplitMix64`] streams.
//! * Resources use exact virtual-time FIFO service ([`resource::Resource`]):
//!   a job arriving at `t` with demand `d` completes at
//!   `max(t, next_free) + d`. This is an exact simulation of a
//!   work-conserving FIFO server and is what shapes the throughput and
//!   utilization curves of Figures 4-7.
//! * Two small pieces of cache *policy* live here because both caches use
//!   them and neither may depend on the other (Table 1: the buffer cache
//!   is untouched by NCache): the lane-parallel engine's epoch recency
//!   stamps and per-thread op tally ([`epoch`]), the ghost LRU tail
//!   ([`ghost`]) and the recency map behind every LRU index
//!   ([`recency`]). None of them knows about packets or blocks.
//!
//! # Examples
//!
//! ```
//! use sim::engine::Engine;
//! use sim::time::{Duration, SimTime};
//!
//! let mut engine: Engine<u64> = Engine::new(0);
//! engine.schedule(Duration::from_micros(5), |world, sched| {
//!     *world += 1;
//!     sched.schedule_in(Duration::from_micros(5), |world, _| *world += 10);
//! });
//! let end = engine.run();
//! assert_eq!(end, SimTime::from_micros(10));
//! assert_eq!(engine.into_world(), 11);
//! ```

pub mod costs;
pub mod engine;
pub mod epoch;
pub mod fault;
pub mod ghost;
pub mod hash;
pub mod recency;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod sync;
pub mod time;

pub use costs::CostModel;
pub use engine::{Engine, Scheduler};
pub use fault::{FaultKind, FaultLink, FaultPlan, FaultSpec};
pub use ghost::GhostLru;
pub use hash::{mix64, MixMap};
pub use recency::{RecencyClass, RecencyHead, RecencyMap, Resident};
pub use resource::Resource;
pub use rng::SplitMix64;
pub use sync::{LaneCounters, LaneLock, Shared};
pub use time::{Duration, SimTime};

//! `check` — the repo's self-contained correctness tooling: a
//! property-testing framework and a bench harness with **zero external
//! dependencies**, so `cargo build && cargo test` work with an empty cargo
//! registry (the offline environments this reproduction targets cannot
//! fetch proptest or criterion).
//!
//! # Property testing
//!
//! Declare properties with [`property!`]; inputs come from the generator
//! combinators in [`gen`]:
//!
//! ```
//! use check::gen::*;
//! use check::{property, prop_assert, prop_assert_eq};
//!
//! property! {
//!     #![cases(64)]
//!     fn addition_commutes(a in any_u32(), b in any_u32()) {
//!         prop_assert_eq!(u64::from(a) + u64::from(b),
//!                         u64::from(b) + u64::from(a));
//!     }
//! }
//! # fn main() {}
//! ```
//!
//! Generation is deterministic: every case derives from a seed fed to the
//! simulator's own `sim::rng::SplitMix64`, and generators draw *choices*
//! (bounded integers) from a recorded stream. On failure the runner
//! greedily shrinks the choice stream — deleting blocks (dropping ops,
//! shortening vectors) and binary-minimizing each choice — and panics with
//! the minimal counterexample plus a `CHECK_SEED=0x…` line. Re-running the
//! test with that variable regenerates the same case and, because shrinking
//! is deterministic too, the same minimal counterexample. `CHECK_CASES=n`
//! overrides case counts (e.g. for a long soak).
//!
//! # Benchmarking
//!
//! [`bench::Harness`] times closures with warmup and a calibrated inner
//! iteration count, reports median/p95, and writes `BENCH_<name>.json` at
//! the workspace root for trajectory tracking across runs. Its one user is
//! the `ncache-bench` crate's `figures` bench (one bench per registry row);
//! the data plane's host time is the host-time benchmark's (`benchmark/`).

pub mod bench;
pub mod gen;
#[macro_use]
mod macros;
pub mod runner;
pub mod source;

pub use runner::{check_property, run_property, Config, Failed, FailureReport, PropResult};
pub use source::Source;

//! Seeded stress property for [`sim::sync::LaneLock`] and the lane-private
//! counters beside it.
//!
//! The lock is a bounded `try_` spin in front of `std::sync::RwLock`, so
//! exclusion itself is `std`'s; what the wrapper could get wrong is
//! *progress* (a spin that never falls through to the blocking acquire
//! livelocks an oversubscribed host) and *accounting* (its counters are
//! striped per thread, and stripes change hands as threads come and go).
//! The property drives both: readers and writers at 2, 4 and 8 threads —
//! more threads than this host has CPUs at the upper end, the `taskset -c
//! 0` situation — in scoped threads re-created every round, the way the
//! executor re-creates its workers on every call, so counter slots are
//! released and re-claimed between rounds.
//!
//! Writers keep two fields equal under the write guard (with a
//! `yield_now` between the two stores, inviting a reader in); every read
//! guard must see them equal; the lock's own `writes` counter must equal
//! the writes performed; and the run must terminate.

use std::sync::Barrier;

use check::gen::*;
use check::{prop_assert, prop_assert_eq, property};

use sim::sync::{LaneCounters, LaneLock};
use sim::SplitMix64;

const ROUNDS: u64 = 6;
const OPS_PER_ROUND: u64 = 200;

property! {
    #![cases(8)]

    fn prop_guards_exclude_counters_are_exact_and_the_run_terminates(
        seed in ints(0u64..1_000_000),
        threads_log2 in ints(1u32..4),
        write_percent in ints(1u64..40),
    ) {
        let threads = 1usize << threads_log2; // 2, 4 or 8
        let lock = LaneLock::new((0u64, 0u64));
        // Counted by the workers themselves on lane-private stripes:
        // [reads, writes, torn reads].
        let done = LaneCounters::<3>::default();
        for round in 0..ROUNDS {
            let start = Barrier::new(threads);
            std::thread::scope(|s| {
                for t in 0..threads as u64 {
                    let (lock, done, start) = (&lock, &done, &start);
                    s.spawn(move || {
                        let mut rng = SplitMix64::new(seed ^ (round << 32) ^ (t << 48));
                        // All of the round's threads are live (and hold
                        // their counter slots) before any takes the lock.
                        start.wait();
                        for _ in 0..OPS_PER_ROUND {
                            if rng.next_below(100) < write_percent {
                                let mut g = lock.write();
                                g.0 += 1;
                                std::thread::yield_now();
                                g.1 += 1;
                                done.add(1, 1);
                            } else {
                                let g = lock.read();
                                done.add(0, 1);
                                if g.0 != g.1 {
                                    done.add(2, 1);
                                }
                            }
                        }
                    });
                }
            });
        }
        let [reads, writes, torn] = done.totals();
        prop_assert_eq!(torn, 0, "a read guard saw a half-applied write");
        prop_assert_eq!(reads + writes, ROUNDS * OPS_PER_ROUND * threads as u64);
        let counted = lock.counters();
        prop_assert_eq!(counted.writes, writes, "writer count == writes performed");
        prop_assert_eq!(counted.reads, reads);
        prop_assert!(counted.reads_waited <= reads && counted.writes_waited <= writes);
        let (a, b) = lock.into_inner();
        prop_assert_eq!((a, b), (writes, writes), "every write landed, whole");
    }
}

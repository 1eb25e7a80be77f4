//! Schedule exploration for the epoch-merged LRU clock.
//!
//! The lane-parallel engine gives every cache access a stamp that is a
//! pure function of `(epoch, lane tie rank)` — not of the host
//! schedule. The invariant that makes eviction reproducible is: for any
//! interleaving of the lanes that respects per-lane program order, the
//! epoch-merged LRU must rank chunks exactly as the *sequential clock*
//! does when the same accesses run one by one in merged `(epoch, tie)`
//! order with plain monotone stamps — so under later capacity pressure
//! both evict the same victim set.
//!
//! The property perturbs the interleaving with a seeded splitmix64
//! schedule (the same generator family the executor uses to derive
//! per-cell seeds), replays the accesses through epoch windows, then
//! applies identical eviction pressure to both caches and compares the
//! surviving residents key for key.

use check::gen::*;
use check::{prop_assert, prop_assert_eq, property};

use ncache::shards::NetCacheShards;
use netbuf::key::Lbn;
use netbuf::{BufPool, Segment};
use sim::epoch;
use sim::SplitMix64;

/// Distinct chunk keys in play; the pool holds exactly this many chunks,
/// so every pressure insert evicts exactly one victim.
const UNIVERSE: u64 = 12;
const CHUNK: usize = 4096;

fn shard_cache() -> NetCacheShards {
    NetCacheShards::new(BufPool::new(UNIVERSE * CHUNK as u64), 0, 2)
}

/// Fills the cache with the whole key universe, clean, in key order.
fn warm(cache: &NetCacheShards) {
    for k in 0..UNIVERSE {
        cache
            .insert_lbn(
                Lbn(k),
                vec![Segment::from_vec(vec![k as u8; CHUNK])],
                CHUNK,
                false,
            )
            .expect("warm set fits");
    }
}

/// Applies `evictions` rounds of capacity pressure; each insert reclaims
/// the least-recently-used clean chunk.
fn pressure(cache: &NetCacheShards, evictions: u64) {
    for i in 0..evictions {
        cache
            .insert_lbn(
                Lbn(1_000 + i),
                vec![Segment::from_vec(vec![0xEE; CHUNK])],
                CHUNK,
                false,
            )
            .expect("pressure insert reclaims a victim");
    }
}

/// The universe keys that survived eviction, in key order.
fn residents(cache: &NetCacheShards) -> Vec<u64> {
    (0..UNIVERSE)
        .filter(|&k| cache.contains(Lbn(k).into()))
        .collect()
}

property! {
    #![cases(24)]

    fn prop_epoch_merged_lru_evicts_the_sequential_victim_set(
        lanes_ops in vec_of(vec_of(ints(0u64..UNIVERSE), 0..16), 2..5),
        tie_seed in ints(0u64..1_000_000),
        schedule_seed in ints(0u64..1_000_000),
        evictions in ints(1u64..UNIVERSE),
    ) {
        let lanes = lanes_ops.len();
        let ties = epoch::tie_ranks(tie_seed, lanes);

        // Reference: the sequential clock. The same accesses run one by
        // one in merged (epoch, tie) order; every stamp comes from the
        // plain monotone counter.
        let reference = shard_cache();
        warm(&reference);
        let mut merged: Vec<(usize, u64, usize)> = Vec::new();
        for (lane, ops) in lanes_ops.iter().enumerate() {
            for epoch in 0..ops.len() {
                merged.push((epoch, ties[lane], lane));
            }
        }
        merged.sort_unstable();
        for &(epoch, _, lane) in &merged {
            let key = lanes_ops[lane][epoch];
            prop_assert!(reference.lookup(Lbn(key).into()).is_some());
        }
        pressure(&reference, evictions);

        // Perturbed: a splitmix64-derived interleaving constrained only
        // by per-lane program order, every access inside its epoch
        // window — the stamps it draws depend on (epoch, tie) alone.
        let windowed = shard_cache();
        warm(&windowed);
        let mut rng = SplitMix64::new(schedule_seed);
        let mut cursor = vec![0usize; lanes];
        let mut live: Vec<usize> = (0..lanes)
            .filter(|&lane| !lanes_ops[lane].is_empty())
            .collect();
        let mut max_epoch = 0u64;
        while !live.is_empty() {
            let pick = (rng.next_u64() % live.len() as u64) as usize;
            let lane = live[pick];
            let epoch = cursor[lane];
            let key = lanes_ops[lane][epoch];
            let window = epoch::enter_window(epoch::stamp_base(epoch as u64, ties[lane]));
            prop_assert!(windowed.lookup(Lbn(key).into()).is_some());
            drop(window);
            max_epoch = max_epoch.max(epoch as u64 + 1);
            cursor[lane] += 1;
            if cursor[lane] == lanes_ops[lane].len() {
                live.swap_remove(pick);
            }
        }
        // What the engine does after a parallel run: push the plain
        // clock past every stamp a window could have issued, so the
        // pressure phase ranks above all replayed accesses.
        windowed.advance_clock_past(epoch::stamp_base(max_epoch, 0));
        pressure(&windowed, evictions);

        prop_assert_eq!(
            residents(&reference),
            residents(&windowed),
            "victim sets diverged under a perturbed schedule"
        );
    }
}

//! Seeded concurrency property for the per-shard-locked cache.
//!
//! The lock-decomposition refactor replaced one big cache lock with a
//! `RwLock` per shard (plus a read-locked lookup fast path). The claim it
//! must uphold: for workloads whose operations commute — shared keys are
//! only read, written keys are private to one lane — any thread
//! interleaving over the fine-grained locks reaches **exactly** the state
//! a single global lock would have reached. Epoch windows make even the
//! recency stamps interleaving-invariant, so the comparison can be total:
//! counters, residency, chunk contents, pinned bytes, and the global LRU
//! order itself.
//!
//! The oracle is the single-lock execution: one big lock admits some
//! serialization of the ops, and because the ops commute every
//! serialization is equivalent, so we run the canonical one (epoch-major,
//! tie-minor — the deterministic merge order of the parallel engine) on
//! one thread against an identical shard set.

use check::gen::*;
use check::{prop_assert, prop_assert_eq, property};
use sim::epoch::{enter_window, stamp_base};
use ncache::NetCacheShards;
use netbuf::key::{CacheKey, Fho, FileHandle, Lbn};
use netbuf::{BufPool, Segment};
use sim::mix64 as mix;

const PAYLOAD: usize = 1024;
const WARM_LBNS: u64 = 16;

fn seg(tag: u8) -> Vec<Segment> {
    vec![Segment::from_vec(vec![tag; PAYLOAD])]
}

/// One lane op in the commuting workload. Lookups touch the shared warm
/// set; inserts and remaps touch keys private to `(thread, op)`, so every
/// pair of ops from different lanes commutes.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Read a shared warm block (hit: promotion + counters only).
    Lookup(Lbn),
    /// Insert a fresh private LBN chunk.
    Insert(Lbn, u8),
    /// Flush a pre-inserted private FHO entry to a private LBN — the
    /// one two-lock path (cross-shard chunk migration).
    Remap(Fho, Lbn),
}

fn op_for(seed: u64, t: u64, k: u64) -> Op {
    let h = mix(seed ^ (t << 32) ^ k);
    let tag = (h >> 16) as u8;
    match h % 3 {
        0 => Op::Lookup(Lbn((h >> 8) % WARM_LBNS)),
        1 => Op::Insert(Lbn(10_000 + t * 100 + k), tag),
        _ => Op::Remap(
            Fho::new(FileHandle(t + 1), k * 4096),
            Lbn(20_000 + t * 100 + k),
        ),
    }
}

fn apply(cache: &NetCacheShards, op: Op) {
    match op {
        Op::Lookup(lbn) => {
            cache.lookup(lbn.into());
        }
        Op::Insert(lbn, tag) => {
            cache.insert_lbn(lbn, seg(tag), PAYLOAD, false).expect("ample capacity");
        }
        Op::Remap(fho, lbn) => {
            cache.remap(fho, lbn).expect("FHO entry pre-inserted");
        }
    }
    // Each shard's recency heaps agree with its chunks after every op,
    // whatever the other lanes are doing to the other shards.
    if let Err(broken) = cache.check_invariants() {
        panic!("after {op:?}: {broken}");
    }
}

/// Builds a warmed shard set: the shared read set plus one dirty FHO
/// entry per `(thread, op)` slot, so every possible Remap has a source.
/// Warming runs outside any epoch window on a fresh clock, so both the
/// concurrent run and the oracle draw identical warm-up stamps.
fn warmed(shards: usize, threads: u64, ops: u64) -> NetCacheShards {
    let cache = NetCacheShards::new(BufPool::new(1 << 22), 0, shards);
    for b in 0..WARM_LBNS {
        cache.insert_lbn(Lbn(b), seg(b as u8), PAYLOAD, false).expect("fits");
    }
    for t in 0..threads {
        for k in 0..ops {
            cache
                .insert_fho(Fho::new(FileHandle(t + 1), k * 4096), seg((t * 31 + k) as u8), PAYLOAD)
                .expect("fits");
        }
    }
    cache
}

/// Every key the workload can have touched, in a fixed order.
fn all_keys(threads: u64, ops: u64) -> Vec<CacheKey> {
    let mut keys: Vec<CacheKey> = (0..WARM_LBNS).map(|b| Lbn(b).into()).collect();
    for t in 0..threads {
        for k in 0..ops {
            keys.push(CacheKey::Fho(Fho::new(FileHandle(t + 1), k * 4096)));
            keys.push(Lbn(10_000 + t * 100 + k).into());
            keys.push(Lbn(20_000 + t * 100 + k).into());
        }
    }
    keys
}

property! {
    fn prop_concurrent_interleavings_match_single_lock_oracle(
        seed in any_u64(),
        threads in ints(2u64..5),
        ops in ints(4u64..20),
        shards in ints(1usize..9),
    ) {
        // Concurrent run: every lane on its own host thread, each op in
        // its (epoch = op index, tie = lane) window. The work-stealing of
        // real schedulers is modelled by the OS scheduler itself.
        let live = warmed(shards, threads, ops);
        std::thread::scope(|s| {
            for t in 0..threads {
                let live = live.clone();
                s.spawn(move || {
                    for k in 0..ops {
                        let _w = enter_window(stamp_base(k, t));
                        apply(&live, op_for(seed, t, k));
                    }
                });
            }
        });

        // Single-lock oracle: the canonical serialization on one thread,
        // same windows, identical warm state.
        let oracle = warmed(shards, threads, ops);
        for k in 0..ops {
            for t in 0..threads {
                let _w = enter_window(stamp_base(k, t));
                apply(&oracle, op_for(seed, t, k));
            }
        }

        prop_assert_eq!(live.stats(), oracle.stats());
        prop_assert_eq!(live.per_shard_stats(), oracle.per_shard_stats());
        prop_assert_eq!(live.len(), oracle.len());
        prop_assert_eq!(live.pinned_bytes(), oracle.pinned_bytes());
        for key in all_keys(threads, ops) {
            prop_assert_eq!(live.contains(key), oracle.contains(key));
            prop_assert_eq!(live.chunk_bytes(key), oracle.chunk_bytes(key));
            prop_assert_eq!(live.is_dirty(key), oracle.is_dirty(key));
        }
        // The strongest clause: epoch windows make the *global LRU order*
        // itself a pure function of the workload, not the interleaving.
        prop_assert_eq!(live.clean_keys(), oracle.clean_keys());
        prop_assert!(live.stats().evicted_clean == 0, "ample capacity: no evictions");
    }
}

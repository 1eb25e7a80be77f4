//! Ghost-LRU and split-controller invariants, checked against
//! brute-force models.
//!
//! The ghost tail's contract is purely structural: membership is
//! exactly the last-K distinct evicted keys in eviction-stamp order,
//! probing never removes, and both counters (probes, hits) match a
//! naive replay of the same op stream. The
//! controller's contract is arithmetic: `fs · QUOTA_BLOCK + ncache ==
//! total` after every tick, quota floors are never pierced, the window
//! is the exact per-epoch delta of the cumulative sample, and two
//! opposing resizes never land within the cooldown.

use check::gen::*;
use check::{prop_assert, prop_assert_eq, property};
use ncache::adaptive::QUOTA_BLOCK;
use sim::{GhostLru, GhostStats};
use ncache::{ResizeDir, SplitConfig, SplitController, SplitSample};
use sim::rng::SplitMix64;

fn opposite(dir: ResizeDir) -> ResizeDir {
    match dir {
        ResizeDir::ToFs => ResizeDir::ToNcache,
        ResizeDir::ToNcache => ResizeDir::ToFs,
    }
}

property! {
    #![cases(48)]

    /// Any interleaving of records (unique, gappy stamps; a small key
    /// space forcing re-records) and probes: the tail is exactly the
    /// last-K distinct evicted keys, ordered oldest → newest, and every
    /// probe outcome and counter matches the brute-force model.
    fn prop_ghost_is_exactly_the_last_k_evicted_keys(
        cap in ints(1u64..12),
        ops in vec_of(ints(0u64..(1u64 << 32)), 16..160),
    ) {
        let cap = cap as usize;
        let mut g = GhostLru::new(cap);
        prop_assert_eq!(g.capacity(), cap);
        // Model: (stamp, key) pairs, ascending by stamp.
        let mut model: Vec<(u64, u64)> = Vec::new();
        let mut stamp = 0u64;
        let mut expect = GhostStats::default();
        for word in ops {
            let key = word % 24;
            if word & (1 << 30) != 0 {
                let model_hit = model.iter().any(|&(_, k)| k == key);
                expect.probes += 1;
                if model_hit {
                    expect.hits += 1;
                }
                prop_assert_eq!(g.probe(key), model_hit, "probe outcome vs model");
            } else {
                stamp += 1 + (word & 7);
                g.record(key, stamp);
                model.retain(|&(_, k)| k != key);
                model.push((stamp, key));
                if model.len() > cap {
                    model.remove(0);
                }
            }
            prop_assert_eq!(g.check_invariants(), Ok(()), "index and key map agree");
        }
        let keys: Vec<u64> = model.iter().map(|&(_, k)| k).collect();
        prop_assert_eq!(g.keys_by_recency(), keys, "membership in stamp order");
        prop_assert_eq!(g.len(), model.len(), "cardinality");
        prop_assert_eq!(g.is_empty(), model.is_empty());
        prop_assert_eq!(g.stats(), expect, "probe and hit counts");
    }

    /// `GhostStats::absorb` is a plain sum: folding any permutation of
    /// shard stats — forward, reverse, or split in two and merged —
    /// yields identical totals. This is what lets sharded ghost tails
    /// report one merged counter block.
    fn prop_ghost_stats_absorb_is_order_invariant(
        words in vec_of(any_u64(), 2..12),
    ) {
        let parts: Vec<GhostStats> = words
            .iter()
            .map(|w| GhostStats {
                probes: w & 0xffff,
                hits: (w >> 16) & 0xffff,
            })
            .collect();
        let fold = |order: &[&GhostStats]| {
            let mut total = GhostStats::default();
            for p in order {
                total.absorb(p);
            }
            total
        };
        let forward: Vec<&GhostStats> = parts.iter().collect();
        let reverse: Vec<&GhostStats> = parts.iter().rev().collect();
        let (a, b) = parts.split_at(parts.len() / 2);
        let mut left = fold(&a.iter().collect::<Vec<_>>());
        let right = fold(&b.iter().collect::<Vec<_>>());
        left.absorb(&right);
        prop_assert_eq!(fold(&forward), fold(&reverse), "reverse fold");
        prop_assert_eq!(fold(&forward), left, "split-and-merge fold");
    }

    /// Seeded tick schedules with arbitrary monotone cumulative
    /// samples: quota is conserved to the byte after every tick, the
    /// floors hold, the window is the exact delta the tick consumed,
    /// and an opposing resize never fires within the cooldown of the
    /// previous one.
    fn prop_controller_conserves_quota_and_respects_cooldown(
        seed in any_u64(),
        fs0 in ints(16u64..512),
        nc0 in ints(16u64..512),
        step in ints(1u64..64),
        hysteresis in ints(0u64..8),
        cooldown in ints(0u64..4),
        ticks in ints(8u64..80),
    ) {
        let cfg = SplitConfig {
            dynamic: true,
            epoch_ops: 8,
            step_blocks: step,
            hysteresis,
            cooldown_epochs: cooldown,
            min_fs_blocks: 8,
            min_ncache_bytes: 8 * QUOTA_BLOCK,
            ghost_blocks: 64,
        };
        let mut c = SplitController::new(cfg, fs0, nc0 * QUOTA_BLOCK);
        let total = (fs0 + nc0) * QUOTA_BLOCK;
        let mut rng = SplitMix64::new(seed);
        let mut cum = SplitSample::default();
        let mut last: Option<(u64, ResizeDir)> = None;
        for t in 1..=ticks {
            let delta = [
                rng.next_u64() % 50,
                rng.next_u64() % 50,
                rng.next_u64() % 20,
                rng.next_u64() % 50,
                rng.next_u64() % 50,
                rng.next_u64() % 20,
            ];
            cum.fs_hits += delta[0];
            cum.fs_misses += delta[1];
            cum.fs_ghost_hits += delta[2];
            cum.nc_hits += delta[3];
            cum.nc_misses += delta[4];
            cum.nc_ghost_hits += delta[5];
            let resize = c.tick(cum);
            let w = c.window();
            prop_assert_eq!(
                [
                    w.fs_hits,
                    w.fs_misses,
                    w.fs_ghost_hits,
                    w.nc_hits,
                    w.nc_misses,
                    w.nc_ghost_hits,
                ],
                delta,
                "the window is exactly this epoch's delta"
            );
            if let Some(r) = resize {
                prop_assert!(r.blocks > 0, "an applied move is non-empty");
                prop_assert_eq!(r.fs_blocks, c.fs_blocks(), "move reflects quota");
                prop_assert_eq!(r.ncache_bytes, c.split_stats().ncache_bytes);
                if let Some((at, dir)) = last {
                    if r.dir == opposite(dir) {
                        prop_assert!(
                            t - at > cooldown,
                            "opposing resizes {at}->{t} inside cooldown {cooldown}"
                        );
                    }
                }
                last = Some((t, r.dir));
            }
            prop_assert_eq!(
                c.fs_blocks() * QUOTA_BLOCK + c.split_stats().ncache_bytes,
                total,
                "quota conservation"
            );
            prop_assert!(c.fs_blocks() >= cfg.min_fs_blocks, "FS floor");
            prop_assert!(c.split_stats().ncache_bytes >= cfg.min_ncache_bytes, "NCache floor");
        }
        prop_assert_eq!(c.split_stats().ticks, ticks, "every tick counted");
    }

    /// A frozen controller fed the same schedules never moves, never
    /// reports a resize, and keeps its quotas bit-identical — the
    /// property behind the oracle test's unobservability legs.
    fn prop_frozen_controller_never_moves(
        seed in any_u64(),
        ticks in ints(1u64..40),
    ) {
        let frozen = SplitConfig { dynamic: false, ..SplitConfig::adaptive() };
        let mut c = SplitController::new(frozen, 128, 128 * QUOTA_BLOCK);
        let mut rng = SplitMix64::new(seed);
        let mut cum = SplitSample::default();
        for _ in 0..ticks {
            cum.fs_ghost_hits += rng.next_u64() % 100;
            cum.nc_ghost_hits += rng.next_u64() % 100;
            cum.fs_misses += rng.next_u64() % 100;
            prop_assert!(c.tick(cum).is_none(), "frozen tick returns no move");
            prop_assert_eq!(c.fs_blocks(), 128);
            prop_assert_eq!(c.split_stats().ncache_bytes, 128 * QUOTA_BLOCK);
            prop_assert_eq!(c.split_stats().resizes, 0);
        }
    }
}

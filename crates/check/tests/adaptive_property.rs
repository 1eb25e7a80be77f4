//! Ghost-LRU and split-controller invariants, checked against
//! brute-force models.
//!
//! The ghost tail's contract is purely structural: membership is
//! exactly the last-K distinct evicted keys in eviction-stamp order,
//! probing never removes, and its hit count matches a naive replay of
//! the same op stream. The controller's contract is arithmetic:
//! `fs · BLOCK_SIZE + ncache == total` after every tick, quota floors are
//! never pierced, the window is the exact per-epoch delta of the
//! cumulative sample, and two opposing resizes never land within the
//! cooldown.

use check::gen::*;
use check::{prop_assert, prop_assert_eq, property};
use sim::rng::SplitMix64;
use sim::GhostLru;
use testbed::adaptive::{ResizeDir, SplitConfig, SplitController, SplitSample};

/// One quota block: a `simfs` block.
const QUOTA_BLOCK: u64 = 4096;

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
        // Model: (stamp, key) pairs, ascending by stamp.
        let mut model: Vec<(u64, u64)> = Vec::new();
        let mut stamp = 0u64;
        let mut hits = 0;
        for word in ops {
            let key = word % 24;
            if word & (1 << 30) != 0 {
                let model_hit = model.iter().any(|&(_, k)| k == key);
                hits += u64::from(model_hit);
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
        prop_assert_eq!(g.hits(), hits, "hit count");
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
            let delta = SplitSample {
                fs_ghost_hits: rng.next_u64() % 20,
                nc_ghost_hits: rng.next_u64() % 20,
            };
            cum.fs_ghost_hits += delta.fs_ghost_hits;
            cum.nc_ghost_hits += delta.nc_ghost_hits;
            let before = c.fs_blocks();
            let resize = c.tick(cum);
            prop_assert_eq!(c.window(), delta, "the window is exactly this epoch's delta");
            if let Some(r) = resize {
                prop_assert!(r.fs_blocks != before, "an applied move is non-empty");
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
            prop_assert!(c.tick(cum).is_none(), "frozen tick returns no move");
            prop_assert_eq!(c.fs_blocks(), 128);
            prop_assert_eq!(c.split_stats().ncache_bytes, 128 * QUOTA_BLOCK);
            prop_assert_eq!(c.split_stats().resizes, 0);
        }
    }
}

//! Ghost (shadow) LRU tails and the adaptive cache-split controller.
//!
//! The paper fixes the FS-cache/NCache partition statically (its
//! double-buffering control); NetCAS-style adaptive management resizes it
//! online from the **marginal** value of extra capacity, which a plain
//! hit ratio cannot see. The instrument here is a *ghost LRU*: a bounded
//! tail of recently evicted keys, ordered by the victim's settled recency
//! stamp. A miss that lands in the ghost ("ghost hit") is a request that
//! a slightly larger cache would have served — so comparing per-epoch
//! ghost-hit rates across the two caches tells the controller which side
//! is starved.
//!
//! Determinism contract:
//!
//! * a ghost is a **pure observer** — probing or recording never draws a
//!   recency stamp, never bumps an ops tally, and never influences victim
//!   selection, so an installed-but-frozen controller
//!   ([`SplitConfig::static_split`]) is byte-for-byte unobservable;
//! * membership is a pure function of the eviction multiset `(key,
//!   stamp)`: stamps are the victims' settled sequence numbers, which the
//!   epoch-window machinery already makes schedule-invariant, so the tail
//!   (and every probe outcome between ticks) is identical at any thread
//!   or shard count;
//! * the controller itself is plain state fed at epoch-aligned ticks —
//!   it decides from **epoch-windowed** deltas (a cumulative ratio is
//!   blind to phase changes late in a run) and its quota arithmetic is
//!   integer-exact, with `fs + ncache == total` conserved at every step.

use std::collections::BTreeMap;

use sim::MixMap;

/// Quota granularity: one FS block / one NCache payload chunk (4 KiB).
/// Mirrors `blockdev::BLOCK_SIZE` without taking the dependency.
pub const QUOTA_BLOCK: u64 = 4096;

/// Counters of one ghost tail (or a shard-merge of several).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GhostStats {
    /// Misses that consulted the tail.
    pub probes: u64,
    /// Probes that found their key — would-have-hit requests.
    pub hits: u64,
    /// Evictions recorded into the tail.
    pub records: u64,
    /// Entries displaced because the tail was full.
    pub displaced: u64,
}

impl GhostStats {
    /// Folds another stats block in. Plain sums, so merging shard stats
    /// is order-invariant: any permutation of `absorb` calls yields the
    /// same totals.
    pub fn absorb(&mut self, other: &GhostStats) {
        self.probes += other.probes;
        self.hits += other.hits;
        self.records += other.records;
        self.displaced += other.displaced;
    }
}

/// A bounded shadow tail of recently evicted keys.
///
/// Entries are ordered by the victim's eviction stamp (its settled
/// recency sequence number, unique within a cache); over capacity the
/// smallest stamp — the least recently used victim — falls off. Probing
/// does not remove: membership is exactly "the last-K distinct evicted
/// keys", which the property suite checks against a brute-force model.
///
/// # Examples
///
/// ```
/// use ncache::adaptive::GhostLru;
/// let mut g = GhostLru::new(2);
/// g.record(10, 1);
/// g.record(11, 2);
/// g.record(12, 3); // displaces key 10 (stamp 1)
/// assert!(!g.probe(10) && g.probe(11) && g.probe(12));
/// assert_eq!(g.stats().hits, 2);
/// ```
#[derive(Clone, Debug)]
pub struct GhostLru {
    cap: usize,
    by_key: MixMap<u64, u64>,
    by_stamp: BTreeMap<u64, u64>,
    stats: GhostStats,
}

impl GhostLru {
    /// An empty tail holding at most `cap` keys.
    pub fn new(cap: usize) -> GhostLru {
        GhostLru {
            cap,
            by_key: MixMap::default(),
            by_stamp: BTreeMap::new(),
            stats: GhostStats::default(),
        }
    }

    /// Maximum entries.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Current entries.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// True when the tail holds nothing.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Membership without counting a probe (tests and diagnostics).
    pub fn contains(&self, key: u64) -> bool {
        self.by_key.contains_key(&key)
    }

    /// Records the eviction of `key` at recency `stamp`. Re-recording a
    /// key moves it to the new stamp; over capacity the oldest entry is
    /// displaced. Stamps must be unique per tail (they are settled cache
    /// sequence numbers).
    pub fn record(&mut self, key: u64, stamp: u64) {
        if self.cap == 0 {
            return;
        }
        self.stats.records += 1;
        if let Some(old) = self.by_key.insert(key, stamp) {
            self.by_stamp.remove(&old);
        }
        let clash = self.by_stamp.insert(stamp, key);
        debug_assert!(clash.is_none(), "duplicate ghost stamp {stamp}");
        while self.by_key.len() > self.cap {
            let (_, oldest) = self.by_stamp.pop_first().expect("non-empty over cap");
            self.by_key.remove(&oldest);
            self.stats.displaced += 1;
        }
    }

    /// Probes on a cache miss: true (and counted as a ghost hit) when
    /// the key sits in the tail. The entry stays — it is dropped only by
    /// displacement or [`GhostLru::forget`].
    pub fn probe(&mut self, key: u64) -> bool {
        self.stats.probes += 1;
        let hit = self.by_key.contains_key(&key);
        if hit {
            self.stats.hits += 1;
        }
        hit
    }

    /// Drops a key, if present (the block was invalidated, not evicted).
    pub fn forget(&mut self, key: u64) {
        if let Some(stamp) = self.by_key.remove(&key) {
            self.by_stamp.remove(&stamp);
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> GhostStats {
        self.stats
    }

    /// Keys ordered oldest → newest eviction (test support).
    pub fn keys_by_recency(&self) -> Vec<u64> {
        self.by_stamp.values().copied().collect()
    }
}

/// Static parameters of the split controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitConfig {
    /// False freezes the controller: ghosts observe, quotas never move,
    /// nothing is emitted — byte-for-byte unobservable.
    pub dynamic: bool,
    /// Controller epoch length: ops per session-round between ticks.
    pub epoch_ops: u64,
    /// Quota moved per decision, in [`QUOTA_BLOCK`] units.
    pub step_blocks: u64,
    /// Minimum ghost-hit advantage (per epoch) before quota moves.
    pub hysteresis: u64,
    /// Epochs that must pass after a resize before the direction may
    /// reverse — with the per-epoch tick cadence this forbids two
    /// opposing resizes within `cooldown_epochs` epochs of each other.
    pub cooldown_epochs: u64,
    /// The FS cache never shrinks below this many blocks.
    pub min_fs_blocks: u64,
    /// The NCache pool never shrinks below this many bytes.
    pub min_ncache_bytes: u64,
    /// Ghost-tail capacity (entries) installed on each cache.
    pub ghost_blocks: usize,
}

impl SplitConfig {
    /// A frozen controller: ghosts attach, quotas stay put. Installing
    /// this must be unobservable versus a build without the feature.
    pub fn static_split() -> SplitConfig {
        SplitConfig {
            dynamic: false,
            ..SplitConfig::adaptive()
        }
    }

    /// The dynamic controller with default gains.
    pub fn adaptive() -> SplitConfig {
        SplitConfig {
            dynamic: true,
            epoch_ops: 32,
            step_blocks: 64,
            hysteresis: 4,
            cooldown_epochs: 1,
            min_fs_blocks: 16,
            min_ncache_bytes: 64 * QUOTA_BLOCK,
            ghost_blocks: 4096,
        }
    }
}

/// Cumulative control inputs sampled at a tick. The controller windows
/// them itself (see [`SplitController::tick`]); callers just hand over
/// the running totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SplitSample {
    /// FS-cache hits (cumulative).
    pub fs_hits: u64,
    /// FS-cache misses (cumulative).
    pub fs_misses: u64,
    /// FS ghost hits (cumulative).
    pub fs_ghost_hits: u64,
    /// NCache hits (cumulative).
    pub nc_hits: u64,
    /// NCache misses (cumulative).
    pub nc_misses: u64,
    /// NCache ghost hits (cumulative, shard-merged).
    pub nc_ghost_hits: u64,
}

impl SplitSample {
    fn delta_since(&self, prev: &SplitSample) -> SplitSignal {
        SplitSignal {
            fs_hits: self.fs_hits - prev.fs_hits,
            fs_misses: self.fs_misses - prev.fs_misses,
            fs_ghost_hits: self.fs_ghost_hits - prev.fs_ghost_hits,
            nc_hits: self.nc_hits - prev.nc_hits,
            nc_misses: self.nc_misses - prev.nc_misses,
            nc_ghost_hits: self.nc_ghost_hits - prev.nc_ghost_hits,
        }
    }
}

/// One epoch's windowed control signal: the deltas between consecutive
/// ticks, never cumulative totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SplitSignal {
    /// FS-cache hits this epoch.
    pub fs_hits: u64,
    /// FS-cache misses this epoch.
    pub fs_misses: u64,
    /// FS ghost hits this epoch.
    pub fs_ghost_hits: u64,
    /// NCache hits this epoch.
    pub nc_hits: u64,
    /// NCache misses this epoch.
    pub nc_misses: u64,
    /// NCache ghost hits this epoch.
    pub nc_ghost_hits: u64,
}

impl SplitSignal {
    /// FS hit ratio over this epoch only, in permille (integer-exact;
    /// 1000 when the epoch saw no FS accesses).
    pub fn fs_hit_permille(&self) -> u64 {
        ratio_permille(self.fs_hits, self.fs_misses)
    }

    /// NCache hit ratio over this epoch only, in permille.
    pub fn nc_hit_permille(&self) -> u64 {
        ratio_permille(self.nc_hits, self.nc_misses)
    }
}

fn ratio_permille(hits: u64, misses: u64) -> u64 {
    (hits * 1000).checked_div(hits + misses).unwrap_or(1000)
}

/// Which cache a resize grows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResizeDir {
    /// Quota moves from the NCache pool to the FS cache.
    ToFs,
    /// Quota moves from the FS cache to the NCache pool.
    ToNcache,
}

impl ResizeDir {
    fn opposite(self) -> ResizeDir {
        match self {
            ResizeDir::ToFs => ResizeDir::ToNcache,
            ResizeDir::ToNcache => ResizeDir::ToFs,
        }
    }
}

/// One applied quota move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Resize {
    /// Direction of the move.
    pub dir: ResizeDir,
    /// Blocks moved ([`QUOTA_BLOCK`] units).
    pub blocks: u64,
    /// FS quota after the move, blocks.
    pub fs_blocks: u64,
    /// NCache quota after the move, bytes.
    pub ncache_bytes: u64,
}

/// Counter snapshot of a [`SplitController`] for metrics reports. Only a
/// *dynamic* controller is ever reported — a frozen one must stay
/// unobservable, report included.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SplitStats {
    /// Epoch ticks processed.
    pub ticks: u64,
    /// Quota moves applied.
    pub resizes: u64,
    /// Current FS quota, blocks.
    pub fs_blocks: u64,
    /// Current NCache quota, bytes.
    pub ncache_bytes: u64,
    /// Cumulative FS ghost hits seen by the controller.
    pub fs_ghost_hits: u64,
    /// Cumulative NCache ghost hits seen by the controller.
    pub nc_ghost_hits: u64,
}

impl obs::StatsSnapshot for SplitStats {
    fn source(&self) -> &'static str {
        "adaptive"
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("ticks", self.ticks),
            ("resizes", self.resizes),
            ("fs_blocks", self.fs_blocks),
            ("ncache_bytes", self.ncache_bytes),
            ("fs_ghost_hits", self.fs_ghost_hits),
            ("nc_ghost_hits", self.nc_ghost_hits),
        ]
    }
}

/// The epoch-aligned split controller.
///
/// Fed cumulative [`SplitSample`]s at tick time, it diffs them into the
/// per-epoch [`SplitSignal`], compares marginal ghost-hit rates under
/// hysteresis + cooldown, and returns the quota move to apply — always
/// conserving `fs_blocks · QUOTA_BLOCK + ncache_bytes == total`.
#[derive(Clone, Debug)]
pub struct SplitController {
    cfg: SplitConfig,
    fs_blocks: u64,
    ncache_bytes: u64,
    total_bytes: u64,
    prev: SplitSample,
    window: SplitSignal,
    ticks: u64,
    resizes: u64,
    last_dir: Option<ResizeDir>,
    epochs_since_resize: u64,
}

impl SplitController {
    /// A controller starting from the given quotas.
    pub fn new(cfg: SplitConfig, fs_blocks: u64, ncache_bytes: u64) -> SplitController {
        SplitController {
            cfg,
            fs_blocks,
            ncache_bytes,
            total_bytes: fs_blocks * QUOTA_BLOCK + ncache_bytes,
            prev: SplitSample::default(),
            window: SplitSignal::default(),
            ticks: 0,
            resizes: 0,
            last_dir: None,
            epochs_since_resize: u64::MAX,
        }
    }

    /// True when the controller may move quota.
    pub fn is_dynamic(&self) -> bool {
        self.cfg.dynamic
    }

    /// The configuration.
    pub fn config(&self) -> &SplitConfig {
        &self.cfg
    }

    /// Current FS quota, blocks.
    pub fn fs_blocks(&self) -> u64 {
        self.fs_blocks
    }

    /// Current NCache quota, bytes.
    pub fn ncache_bytes(&self) -> u64 {
        self.ncache_bytes
    }

    /// The conserved total, bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Ticks processed.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Resizes applied.
    pub fn resizes(&self) -> u64 {
        self.resizes
    }

    /// The most recent epoch window (the controller's eyes — windowed,
    /// not cumulative, so late phase shifts register within an epoch).
    pub fn window(&self) -> SplitSignal {
        self.window
    }

    /// Snapshot for metrics reports.
    pub fn split_stats(&self) -> SplitStats {
        SplitStats {
            ticks: self.ticks,
            resizes: self.resizes,
            fs_blocks: self.fs_blocks,
            ncache_bytes: self.ncache_bytes,
            fs_ghost_hits: self.prev.fs_ghost_hits,
            nc_ghost_hits: self.prev.nc_ghost_hits,
        }
    }

    /// One epoch tick: windows the cumulative sample, applies the
    /// decision rule, and returns the move (already reflected in the
    /// controller's quotas) if one fires.
    pub fn tick(&mut self, cumulative: SplitSample) -> Option<Resize> {
        self.window = cumulative.delta_since(&self.prev);
        self.prev = cumulative;
        self.ticks += 1;
        self.epochs_since_resize = self.epochs_since_resize.saturating_add(1);
        if !self.cfg.dynamic {
            return None;
        }
        let w = self.window;
        let dir = if w.fs_ghost_hits >= w.nc_ghost_hits + self.cfg.hysteresis {
            ResizeDir::ToFs
        } else if w.nc_ghost_hits >= w.fs_ghost_hits + self.cfg.hysteresis {
            ResizeDir::ToNcache
        } else {
            return None;
        };
        if self.last_dir == Some(dir.opposite()) && self.epochs_since_resize <= self.cfg.cooldown_epochs
        {
            return None;
        }
        let blocks = match dir {
            ResizeDir::ToFs => {
                let donor = (self.ncache_bytes.saturating_sub(self.cfg.min_ncache_bytes))
                    / QUOTA_BLOCK;
                self.cfg.step_blocks.min(donor)
            }
            ResizeDir::ToNcache => {
                let donor = self.fs_blocks.saturating_sub(self.cfg.min_fs_blocks);
                self.cfg.step_blocks.min(donor)
            }
        };
        if blocks == 0 {
            return None;
        }
        match dir {
            ResizeDir::ToFs => {
                self.fs_blocks += blocks;
                self.ncache_bytes -= blocks * QUOTA_BLOCK;
            }
            ResizeDir::ToNcache => {
                self.fs_blocks -= blocks;
                self.ncache_bytes += blocks * QUOTA_BLOCK;
            }
        }
        debug_assert_eq!(
            self.fs_blocks * QUOTA_BLOCK + self.ncache_bytes,
            self.total_bytes,
            "quota conservation"
        );
        self.last_dir = Some(dir);
        self.epochs_since_resize = 0;
        self.resizes += 1;
        Some(Resize {
            dir,
            blocks,
            fs_blocks: self.fs_blocks,
            ncache_bytes: self.ncache_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ghost_holds_last_k_and_probes_without_removal() {
        let mut g = GhostLru::new(3);
        for (k, s) in [(1u64, 10u64), (2, 11), (3, 12), (4, 13)] {
            g.record(k, s);
        }
        assert_eq!(g.len(), 3);
        assert!(!g.contains(1), "oldest displaced");
        assert_eq!(g.keys_by_recency(), vec![2, 3, 4]);
        assert!(g.probe(3));
        assert!(g.probe(3), "probing does not remove");
        assert!(!g.probe(9));
        let s = g.stats();
        assert_eq!((s.probes, s.hits, s.records, s.displaced), (3, 2, 4, 1));
    }

    #[test]
    fn ghost_rerecord_moves_to_new_stamp() {
        let mut g = GhostLru::new(2);
        g.record(1, 10);
        g.record(2, 11);
        g.record(1, 12); // key 1 becomes newest
        g.record(3, 13); // displaces key 2, not key 1
        assert!(g.contains(1) && g.contains(3) && !g.contains(2));
    }

    #[test]
    fn ghost_forget_and_zero_cap() {
        let mut g = GhostLru::new(2);
        g.record(1, 10);
        g.forget(1);
        assert!(g.is_empty() && !g.probe(1));
        let mut z = GhostLru::new(0);
        z.record(1, 1);
        assert!(z.is_empty(), "zero-cap tail records nothing");
    }

    #[test]
    fn stats_absorb_sums() {
        let a = GhostStats {
            probes: 1,
            hits: 2,
            records: 3,
            displaced: 4,
        };
        let b = GhostStats {
            probes: 10,
            hits: 20,
            records: 30,
            displaced: 40,
        };
        let mut ab = a;
        ab.absorb(&b);
        let mut ba = b;
        ba.absorb(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.hits, 22);
    }

    fn sample(fs_ghost: u64, nc_ghost: u64) -> SplitSample {
        SplitSample {
            fs_ghost_hits: fs_ghost,
            nc_ghost_hits: nc_ghost,
            ..SplitSample::default()
        }
    }

    #[test]
    fn controller_windows_the_signal() {
        let mut c = SplitController::new(SplitConfig::adaptive(), 256, 1 << 20);
        c.tick(SplitSample {
            fs_hits: 90,
            fs_misses: 10,
            ..SplitSample::default()
        });
        assert_eq!(c.window().fs_hit_permille(), 900);
        // Second epoch is all misses: the windowed ratio collapses even
        // though the cumulative ratio stays near 50%.
        c.tick(SplitSample {
            fs_hits: 90,
            fs_misses: 110,
            ..SplitSample::default()
        });
        assert_eq!(c.window().fs_hit_permille(), 0);
        assert_eq!(c.window().fs_misses, 100);
    }

    #[test]
    fn frozen_controller_never_moves() {
        let mut c = SplitController::new(SplitConfig::static_split(), 256, 1 << 20);
        assert!(c.tick(sample(1_000, 0)).is_none());
        assert!(c.tick(sample(2_000, 0)).is_none());
        assert_eq!(c.fs_blocks(), 256);
        assert_eq!(c.resizes(), 0);
        assert_eq!(c.ticks(), 2);
    }

    #[test]
    fn resize_conserves_total_and_respects_bounds() {
        let cfg = SplitConfig {
            step_blocks: 64,
            min_fs_blocks: 16,
            min_ncache_bytes: 4 * QUOTA_BLOCK,
            ..SplitConfig::adaptive()
        };
        let mut c = SplitController::new(cfg, 32, 100 * QUOTA_BLOCK);
        let total = c.total_bytes();
        // FS starved: quota flows to FS until the NCache floor stops it.
        let mut cum = 0;
        for _ in 0..8 {
            cum += 100;
            c.tick(sample(cum, 0));
            assert_eq!(c.fs_blocks() * QUOTA_BLOCK + c.ncache_bytes(), total);
        }
        assert_eq!(c.ncache_bytes(), 4 * QUOTA_BLOCK, "clamped at the floor");
        assert_eq!(c.fs_blocks(), 128);
    }

    #[test]
    fn hysteresis_and_cooldown_bound_oscillation() {
        let cfg = SplitConfig {
            hysteresis: 10,
            cooldown_epochs: 1,
            ..SplitConfig::adaptive()
        };
        let mut c = SplitController::new(cfg, 256, 1 << 20);
        // Below the hysteresis margin: no move.
        assert!(c.tick(sample(5, 0)).is_none());
        // Clear FS advantage: move to FS.
        let r = c.tick(sample(105, 0)).expect("resize");
        assert_eq!(r.dir, ResizeDir::ToFs);
        // Immediate opposing signal is suppressed by the cooldown...
        assert!(c.tick(sample(105, 200)).is_none());
        // ...but persists, so the reversal lands the epoch after.
        let r = c.tick(sample(105, 400)).expect("reversal after cooldown");
        assert_eq!(r.dir, ResizeDir::ToNcache);
    }
}

//! The adaptive cache-split controller.
//!
//! The paper fixes the FS-cache/NCache partition statically (its
//! double-buffering control); NetCAS-style adaptive management resizes it
//! online from the **marginal** value of extra capacity, which a plain
//! hit ratio cannot see. The instrument is a *ghost LRU*
//! ([`sim::GhostLru`], one per cache): a miss that lands in the ghost is a
//! request that a slightly larger cache would have served — so comparing
//! per-epoch ghost-hit rates across the two caches tells the controller
//! which side is starved.
//!
//! Determinism contract:
//!
//! * a ghost is a **pure observer** with schedule-invariant membership
//!   (see [`sim::ghost`]), so an installed-but-frozen controller
//!   (a [`SplitConfig`] with `dynamic: false`) is byte-for-byte unobservable;
//! * the controller itself is plain state fed at epoch-aligned ticks —
//!   it decides from **epoch-windowed** deltas (a cumulative ratio is
//!   blind to phase changes late in a run) and its quota arithmetic is
//!   integer-exact, with `fs + ncache == total` conserved at every step.

/// Quota granularity: one FS block / one NCache payload chunk (4 KiB).
/// Mirrors `blockdev::BLOCK_SIZE` without taking the dependency.
pub const QUOTA_BLOCK: u64 = 4096;

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
    /// The dynamic controller with default gains.
    pub fn adaptive() -> SplitConfig { // test-api: the adaptive oracle, its property and the metrics goldens run these gains
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
    /// NCache hit ratio over this epoch only, in permille (integer-exact;
    /// 1000 when the epoch saw no NCache accesses).
    pub fn nc_hit_permille(&self) -> u64 { // test-api: the adaptive oracle reads the windowed signal
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
    pub dir: ResizeDir, // test-api: the cooldown property tells opposing moves apart by it
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

    /// The conserved total, bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
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
        assert_eq!((c.window().fs_hits, c.window().fs_misses), (90, 10));
        // Second epoch is all misses: the windowed ratio collapses even
        // though the cumulative ratio stays near 50%.
        c.tick(SplitSample {
            fs_hits: 90,
            fs_misses: 110,
            ..SplitSample::default()
        });
        assert_eq!((c.window().fs_hits, c.window().fs_misses), (0, 100));
    }

    #[test]
    fn frozen_controller_never_moves() {
        let frozen = SplitConfig { dynamic: false, ..SplitConfig::adaptive() };
        let mut c = SplitController::new(frozen, 256, 1 << 20);
        assert!(c.tick(sample(1_000, 0)).is_none());
        assert!(c.tick(sample(2_000, 0)).is_none());
        assert_eq!(c.fs_blocks(), 256);
        assert_eq!(c.split_stats().resizes, 0);
        assert_eq!(c.split_stats().ticks, 2);
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
            assert_eq!(c.fs_blocks() * QUOTA_BLOCK + c.split_stats().ncache_bytes, total);
        }
        assert_eq!(c.split_stats().ncache_bytes, 4 * QUOTA_BLOCK, "clamped at the floor");
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

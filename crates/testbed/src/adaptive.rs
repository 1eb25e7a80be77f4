//! The adaptive cache-split plane: the controller that decides the split
//! and the rig code that applies it.
//!
//! The paper fixes the FS-cache/NCache partition statically (its
//! double-buffering control); NetCAS-style adaptive management resizes it
//! online from the **marginal** value of extra capacity, which a plain
//! hit ratio cannot see. The instrument is a *ghost LRU*
//! ([`sim::GhostLru`], one per cache): a miss that lands in the ghost is a
//! request that a slightly larger cache would have served — so comparing
//! per-epoch ghost-hit counts across the two caches tells the controller
//! which side is starved. The plane is a testbed extension, not part of
//! the paper's module: it only reads each cache's ghost hits and sets each
//! cache's capacity.
//!
//! Determinism contract:
//!
//! * a ghost is a **pure observer** with schedule-invariant membership
//!   (see [`sim::ghost`]), so an installed-but-frozen controller
//!   (a [`SplitConfig`] with `dynamic: false`) is byte-for-byte unobservable;
//! * the controller itself is plain state fed at epoch-aligned ticks —
//!   it decides from **epoch-windowed** deltas (a cumulative count is
//!   blind to phase changes late in a run) and its quota arithmetic is
//!   integer-exact, with `fs + ncache == total` conserved at every step.

use servers::ServerHost;
use simfs::BLOCK_SIZE;

use crate::rig::{App, Rig};

/// Quota granularity: one FS block / one NCache payload chunk.
const QUOTA_BLOCK: u64 = BLOCK_SIZE as u64;

/// Static parameters of the split controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitConfig {
    /// False freezes the controller: ghosts observe, quotas never move,
    /// nothing is emitted — byte-for-byte unobservable.
    pub dynamic: bool,
    /// Controller epoch length: ops per session-round between ticks.
    pub epoch_ops: u64,
    /// Quota moved per decision, in [`simfs::BLOCK_SIZE`] units.
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

/// The two caches' ghost hits: cumulative as a tick samples them, one
/// epoch's delta as [`SplitController::window`] returns them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SplitSample {
    /// FS-cache ghost hits.
    pub fs_ghost_hits: u64,
    /// NCache ghost hits (one tail shared by every shard).
    pub nc_ghost_hits: u64,
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
/// per-epoch window, compares marginal ghost-hit counts under
/// hysteresis + cooldown, and returns the quota move to apply — always
/// conserving `fs_blocks · BLOCK_SIZE + ncache_bytes`.
#[derive(Clone, Debug)]
pub struct SplitController {
    cfg: SplitConfig,
    fs_blocks: u64,
    ncache_bytes: u64,
    total_bytes: u64,
    prev: SplitSample,
    window: SplitSample,
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
            window: SplitSample::default(),
            ticks: 0,
            resizes: 0,
            last_dir: None,
            epochs_since_resize: u64::MAX,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SplitConfig {
        &self.cfg
    }

    /// Current FS quota, blocks.
    pub fn fs_blocks(&self) -> u64 {
        self.fs_blocks
    }

    /// The most recent epoch window (the controller's eyes — windowed,
    /// not cumulative, so late phase shifts register within an epoch).
    pub fn window(&self) -> SplitSample { // test-api: the adaptive oracle and the controller property read the windowed signal
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
        self.window = SplitSample {
            fs_ghost_hits: cumulative.fs_ghost_hits - self.prev.fs_ghost_hits,
            nc_ghost_hits: cumulative.nc_ghost_hits - self.prev.nc_ghost_hits,
        };
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
            fs_blocks: self.fs_blocks,
            ncache_bytes: self.ncache_bytes,
        })
    }

    /// One controller epoch on `host`: samples both caches' cumulative
    /// ghost hits, lets the controller window them and decide, and
    /// applies any quota move *eagerly* — the FS cache evicts (flushing
    /// dirty victims) down to its new capacity and the NCache pool sheds
    /// clean chunks, all inside the tick, never lazily mid-request.
    /// Storage I/O issued by resize writebacks is drained from the
    /// store's log so it is charged to no request's burst (both engines
    /// tick at identical op-count boundaries, so both drain identically).
    pub(crate) fn tick_host(&mut self, host: &mut ServerHost) {
        let resize = self.tick(SplitSample {
            fs_ghost_hits: host.fs_mut().cache_ghost_hits(),
            nc_ghost_hits: host.module().map_or(0, |m| m.borrow().ghost_hits()),
        });
        if self.cfg.dynamic {
            let w = self.window;
            if w.fs_ghost_hits > 0 {
                host.recorder().add_counter("ghost.hit.fs", w.fs_ghost_hits);
            }
            if w.nc_ghost_hits > 0 {
                host.recorder().add_counter("ghost.hit.ncache", w.nc_ghost_hits);
            }
        }
        let Some(resize) = resize else { return };
        host.fs_mut().set_cache_capacity(resize.fs_blocks as usize);
        if let Some(m) = host.module() {
            m.borrow().set_pool_capacity(resize.ncache_bytes);
        }
        let _ = host.fs_mut().store_mut().take_io_log();
        host.recorder().add_counter("adaptive.resize", 1);
    }

    /// Adds the `adaptive` section to `report` — a dynamic controller's
    /// only; a frozen one stays unobservable.
    pub(crate) fn report(&self, report: &mut obs::MetricsReport) {
        if self.cfg.dynamic {
            report.add_snapshot("adaptive", &self.split_stats());
        }
    }
}

impl<A: App> Rig<A> {
    /// Installs the adaptive cache-split plane (DESIGN.md §16): ghost LRU
    /// tails on the FS buffer cache and (under the NCache build) the
    /// NCache pool, plus the epoch-aligned [`SplitController`] seeded with
    /// the caches' *current* capacities. With `dynamic: false` the
    /// controller is frozen — ghosts observe but quotas never move and
    /// nothing is emitted, so the installation is byte-for-byte
    /// unobservable.
    pub fn enable_adaptive(&mut self, cfg: SplitConfig) {
        let fs = self.server.fs_mut();
        fs.enable_cache_ghost(cfg.ghost_blocks);
        let fs_blocks = fs.cache_capacity() as u64;
        let ncache_bytes = match self.server.module() {
            Some(m) => {
                let m = m.borrow();
                m.enable_ghost(cfg.ghost_blocks);
                m.pool_capacity()
            }
            // Without the NCache pool there is no donor and the
            // nc ghost never fires: the controller stays put.
            None => 0,
        };
        self.adaptive = Some(SplitController::new(cfg, fs_blocks, ncache_bytes));
    }

    /// The installed split controller, if any.
    pub fn adaptive_controller(&self) -> Option<&SplitController> { // test-api: the adaptive oracle reads the controller
        self.adaptive.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(fs_ghost: u64, nc_ghost: u64) -> SplitSample {
        SplitSample {
            fs_ghost_hits: fs_ghost,
            nc_ghost_hits: nc_ghost,
        }
    }

    #[test]
    fn controller_windows_the_signal() {
        let frozen = SplitConfig { dynamic: false, ..SplitConfig::adaptive() };
        let mut c = SplitController::new(frozen, 256, 1 << 20);
        c.tick(sample(90, 10));
        assert_eq!(c.window(), sample(90, 10));
        // The second epoch sees no FS ghost hits: the window says so even
        // though the cumulative count stays at 90.
        c.tick(sample(90, 110));
        assert_eq!(c.window(), sample(0, 100));
        assert_eq!(c.split_stats().fs_ghost_hits, 90, "the report stays cumulative");
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
        let total = 132 * QUOTA_BLOCK;
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

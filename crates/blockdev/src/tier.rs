//! A two-tier backend: a small NVMe-like fast device in front of the
//! paper's RAID-0 array.
//!
//! The adaptive-split work (DESIGN.md §16) adds a second storage tier so
//! the controller has a placement axis to route: blocks that keep missing
//! in RAM can be *promoted* to a fast device whose service times are
//! microseconds instead of milliseconds. Like the rest of `blockdev`,
//! this crate only answers "when is this I/O done?" — block contents
//! stay in the iSCSI target.
//!
//! Placement is tracked per [`crate::BLOCK_SIZE`] block. A read whose blocks are
//! all fast-resident is served by the fast device; anything else goes to
//! the slow array (no split I/O — partial residency behaves like a miss,
//! keeping the timing model simple and the miss counters honest). A slow
//! read bumps the extent's miss count; at [`TierConfig::PROMOTE_AFTER`]
//! misses the extent is copied onto the fast tier — the promotion write
//! is timed on the fast device starting when the slow read completes, so
//! a request chain that waits for the promotion still telescopes:
//! `queue + service` sums exactly to `promote_done − slow_done` with no
//! gaps. Writes go around the fast tier to the slow array and invalidate
//! any fast copy they shadow.
//!
//! Transient faults (seeded, like [`crate::TransientFaults`]) can be
//! attached to the fast tier: a faulted fast read *falls back* to the
//! slow array and is counted, modelling a device that degrades rather
//! than corrupts.

use sim::time::SimTime;

use crate::disk::{Disk, DiskModel};
use crate::raid::Raid0;
use crate::transient::TransientFaults;
use std::collections::HashMap;

impl DiskModel {
    /// An NVMe-like fast tier: flat microsecond-scale access with no
    /// meaningful positioning cost (min = max "seek" is the fixed
    /// command overhead) and a media rate far above the DTLA array's.
    /// Every access pattern is strictly cheaper than on
    /// [`DiskModel::dtla_307075`] in integer nanoseconds.
    pub fn nvme_like() -> Self {
        DiskModel {
            min_seek: sim::time::Duration::from_micros(8),
            max_seek: sim::time::Duration::from_micros(8),
            span_blocks: 18_000_000,
            avg_rotation: sim::time::Duration::from_micros(2),
            media_bytes_per_sec: 2.0e9,
        }
    }
}

/// Configuration of a tiered backend: a [`DiskModel::nvme_like`] fast
/// device in front of the array.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TierConfig {
    /// Fast-tier capacity in blocks; promotion stops (silently) when the
    /// placement map is full.
    pub fast_capacity_blocks: u64,
    /// Seed for transient fast-tier faults (unused at rate 0).
    pub fault_seed: u64,
    /// Transient fast-read fault rate, parts per million.
    pub fault_rate_ppm: u32,
}

impl TierConfig {
    /// Slow-path reads of the same extent before it is promoted.
    pub const PROMOTE_AFTER: u32 = 2;

    /// An NVMe-like tier holding `fast_capacity_blocks` blocks, promoting
    /// after [`Self::PROMOTE_AFTER`] slow reads, write-around, fault-free.
    pub fn nvme_front(fast_capacity_blocks: u64) -> Self {
        TierConfig {
            fast_capacity_blocks,
            fault_seed: 0,
            fault_rate_ppm: 0,
        }
    }

    /// The same configuration with seeded transient fast-tier faults.
    pub fn with_faults(mut self, seed: u64, rate_ppm: u32) -> Self { // test-api: tiered_timing arms the tier's transient faults
        self.fault_seed = seed;
        self.fault_rate_ppm = rate_ppm;
        self
    }
}

/// Counters of a tiered backend.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Reads served entirely by the fast device.
    pub fast_reads: u64, // test-api: tiered_timing's evidence that later passes hit the fast tier
    /// Reads served by the slow array.
    pub slow_reads: u64, // test-api: tiered_timing's evidence that first passes hit the array
    /// Extents copied onto the fast tier.
    pub promotions: u64, // test-api: tiered_timing's evidence that a second pass promotes
    /// Fast reads that faulted and fell back to the slow array.
    pub fault_fallbacks: u64, // test-api: tiered_timing's evidence that fast-tier faults degrade
    /// Blocks currently resident on the fast tier.
    pub fast_resident_blocks: u64,
}

/// Timing of one tiered I/O.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TierOutcome {
    /// Instant the serving device started on the request.
    pub begin: SimTime,
    /// Instant the serving device completed it.
    pub done: SimTime,
    /// Completion of the promotion write triggered by this read, if any.
    /// The promotion starts exactly at `done`, so a chain extended to
    /// `promote_done` telescopes with a zero-queue "tier-promote" stage
    /// of service `promote_done − done`.
    pub promote_done: Option<SimTime>,
    /// Whether the fast device served the request.
    pub fast: bool,
    /// Whether a fast read faulted and fell back to the slow array.
    pub fault_fallback: bool,
}

/// A fast device in front of the RAID-0 array, with per-block placement.
#[derive(Clone, Debug)]
pub struct TieredArray {
    fast: Disk,
    slow: Raid0,
    cfg: TierConfig,
    /// Fast-resident blocks (presence = resident).
    placement: HashMap<u64, ()>,
    /// Slow-read counts per extent start, pending promotion.
    miss_counts: HashMap<u64, u32>,
    faults: Option<TransientFaults>,
    stats: TierStats,
}

impl TieredArray {
    /// A tiered backend: an NVMe-like fast device in front of `slow`.
    pub fn new(cfg: TierConfig, slow: Raid0) -> Self {
        TieredArray {
            fast: Disk::new(DiskModel::nvme_like()),
            slow,
            cfg,
            placement: HashMap::new(),
            miss_counts: HashMap::new(),
            faults: (cfg.fault_rate_ppm > 0)
                .then(|| TransientFaults::new(cfg.fault_seed, cfg.fault_rate_ppm)),
            stats: TierStats::default(),
        }
    }

    /// Counter snapshot (with current fast residency).
    pub fn stats(&self) -> TierStats {
        let mut s = self.stats;
        s.fast_resident_blocks = self.placement.len() as u64;
        s
    }

    fn all_fast(&self, start: u64, blocks: u64) -> bool {
        (start..start + blocks).all(|b| self.placement.contains_key(&b))
    }

    /// Times a read of `blocks` blocks at `start`, arriving at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is zero (as the underlying devices do).
    pub fn read_timed(&mut self, now: SimTime, start: u64, blocks: u64) -> TierOutcome {
        if self.all_fast(start, blocks) {
            let faulted = self.faults.as_mut().is_some_and(|f| f.next_io_fails());
            if !faulted {
                let (begin, done) = self.fast.io_timed(now, start, blocks);
                self.stats.fast_reads += 1;
                return TierOutcome {
                    begin,
                    done,
                    promote_done: None,
                    fast: true,
                    fault_fallback: false,
                };
            }
            // Degraded fast read: serve from the slow array instead. The
            // copy stays resident — the fault is transient.
            let (begin, done) = self.slow.io_timed(now, start, blocks);
            self.stats.slow_reads += 1;
            self.stats.fault_fallbacks += 1;
            return TierOutcome {
                begin,
                done,
                promote_done: None,
                fast: false,
                fault_fallback: true,
            };
        }
        let (begin, done) = self.slow.io_timed(now, start, blocks);
        self.stats.slow_reads += 1;
        let misses = self.miss_counts.entry(start).or_insert(0);
        *misses += 1;
        let mut promote_done = None;
        if *misses >= TierConfig::PROMOTE_AFTER
            && self.placement.len() as u64 + blocks <= self.cfg.fast_capacity_blocks
        {
            self.miss_counts.remove(&start);
            for b in start..start + blocks {
                self.placement.insert(b, ());
            }
            // The promotion copy starts the instant the slow read
            // completes: its source bytes exist only then.
            let (_, pdone) = self.fast.io_timed(done, start, blocks);
            self.stats.promotions += 1;
            promote_done = Some(pdone);
        }
        TierOutcome {
            begin,
            done,
            promote_done,
            fast: false,
            fault_fallback: false,
        }
    }

    /// Times a write of `blocks` blocks at `start`, arriving at `now`.
    /// Writes go to the slow array (write-around: the fast tier holds only
    /// promoted read-hot blocks) and invalidate any fast-resident blocks
    /// they shadow (the fast copy is stale).
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is zero (as the underlying devices do).
    pub fn write_timed(&mut self, now: SimTime, start: u64, blocks: u64) -> TierOutcome {
        let (begin, done) = self.slow.io_timed(now, start, blocks);
        for b in start..start + blocks {
            self.placement.remove(&b);
        }
        TierOutcome {
            begin,
            done,
            promote_done: None,
            fast: false,
            fault_fallback: false,
        }
    }

    /// Combined utilization of the busier device over `[0, elapsed]`.
    pub fn utilization(&self, elapsed_until: SimTime) -> f64 {
        self.slow
            .utilization(elapsed_until)
            .max(self.fast.utilization(elapsed_until))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slow() -> Raid0 {
        Raid0::new(DiskModel::dtla_307075(), 4, 16)
    }

    #[test]
    fn nvme_strictly_cheaper_than_dtla_in_integer_ns() {
        let fast = DiskModel::nvme_like();
        let dtla = DiskModel::dtla_307075();
        for blocks in [1u64, 8, 16, 64] {
            for distance in [0u64, 1, 255, 257, 100_000, u64::MAX] {
                let f = fast.service_time_at(blocks, distance).as_nanos();
                let s = dtla.service_time_at(blocks, distance).as_nanos();
                assert!(f < s, "blocks={blocks} distance={distance}: {f} !< {s}");
            }
        }
    }

    #[test]
    fn promotion_after_repeated_misses_then_fast_service() {
        let mut t = TieredArray::new(TierConfig::nvme_front(1 << 20), slow());
        let r1 = t.read_timed(SimTime::ZERO, 0, 8);
        assert!(!r1.fast && r1.promote_done.is_none(), "first miss");
        let r2 = t.read_timed(r1.done, 0, 8);
        assert!(!r2.fast, "promotion trigger still served slow");
        let pdone = r2.promote_done.expect("second miss promotes");
        assert!(pdone > r2.done, "copy takes time after the slow read");
        let r3 = t.read_timed(pdone, 0, 8);
        assert!(r3.fast, "resident extent reads fast");
        assert!(
            r3.done.since(r3.begin) < r2.done.since(r2.begin),
            "fast service beats slow service"
        );
        let s = t.stats();
        assert_eq!(s.promotions, 1);
        assert_eq!(s.fast_reads, 1);
        assert_eq!(s.slow_reads, 2);
        assert_eq!(s.fast_resident_blocks, 8);
    }

    #[test]
    fn capacity_bounds_promotion() {
        let mut t = TieredArray::new(TierConfig::nvme_front(8), slow());
        for _ in 0..2 {
            t.read_timed(SimTime::ZERO, 0, 8);
        }
        assert_eq!(t.stats().fast_resident_blocks, 8);
        // A second extent no longer fits: promotion is skipped silently.
        for _ in 0..4 {
            t.read_timed(SimTime::ZERO, 100, 8);
        }
        assert_eq!(t.stats().promotions, 1);
        assert_eq!(t.stats().fast_resident_blocks, 8);
    }

    #[test]
    fn partial_residency_reads_slow() {
        let mut t = TieredArray::new(TierConfig::nvme_front(1 << 20), slow());
        for _ in 0..2 {
            t.read_timed(SimTime::ZERO, 0, 8);
        }
        // Straddling read: [4, 12) is only half resident.
        let r = t.read_timed(SimTime::ZERO, 4, 8);
        assert!(!r.fast);
    }

    #[test]
    fn slow_write_invalidates_fast_copy() {
        let mut t = TieredArray::new(TierConfig::nvme_front(1 << 20), slow());
        for _ in 0..2 {
            t.read_timed(SimTime::ZERO, 0, 8);
        }
        assert_eq!(t.stats().fast_resident_blocks, 8);
        let w = t.write_timed(SimTime::ZERO, 4, 8);
        assert!(!w.fast, "write-around policy");
        assert_eq!(t.stats().fast_resident_blocks, 4, "the shadowed half left");
        let r = t.read_timed(SimTime::ZERO, 0, 8);
        assert!(!r.fast, "invalidated extent reads slow again");
    }

    #[test]
    fn transient_fault_falls_back_to_slow_and_counts() {
        // Rate high enough that some fast read faults quickly.
        let cfg = TierConfig::nvme_front(1 << 20).with_faults(7, 500_000);
        let mut t = TieredArray::new(cfg, slow());
        for _ in 0..2 {
            t.read_timed(SimTime::ZERO, 0, 8);
        }
        let mut saw_fallback = false;
        let mut now = SimTime::ZERO;
        for _ in 0..64 {
            let r = t.read_timed(now, 0, 8);
            now = r.done;
            if r.fault_fallback {
                assert!(!r.fast, "faulted read served slow");
                saw_fallback = true;
                break;
            }
        }
        assert!(saw_fallback, "500000 ppm must fault within 64 reads");
        assert!(t.stats().fault_fallbacks >= 1);
        assert_eq!(
            t.stats().fast_resident_blocks,
            8,
            "transient fault does not evict"
        );
        // Determinism: the same seed replays the same fault schedule.
        let mut a = TieredArray::new(cfg, slow());
        let mut b = TieredArray::new(cfg, slow());
        for _ in 0..32 {
            let ra = a.read_timed(SimTime::ZERO, 0, 8);
            let rb = b.read_timed(SimTime::ZERO, 0, 8);
            assert_eq!(ra.fault_fallback, rb.fault_fallback);
        }
    }

    #[test]
    fn promote_stage_telescopes() {
        let mut t = TieredArray::new(TierConfig::nvme_front(1 << 20), slow());
        let r1 = t.read_timed(SimTime::ZERO, 0, 8);
        let r2 = t.read_timed(r1.done, 0, 8);
        let pdone = r2.promote_done.expect("promoted");
        // queue(0) + service(pdone − done) extends the chain gaplessly.
        let service = pdone.since(r2.done);
        assert_eq!(r2.done + service, pdone);
        assert!(service > sim::time::Duration::ZERO);
    }
}

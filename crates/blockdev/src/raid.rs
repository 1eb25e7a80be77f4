//! RAID-0 striping across disks.

use sim::time::SimTime;

use crate::disk::{Disk, DiskModel};

/// A RAID-0 array: requests are split at stripe boundaries and issued to
/// the member disks in parallel; the request completes when the slowest
/// stripe does.
///
/// # Examples
///
/// ```
/// use blockdev::{DiskModel, Raid0};
/// use sim::time::SimTime;
///
/// // The paper's array: 4 disks, 16-block (64 KiB) stripes.
/// let mut array = Raid0::new(DiskModel::dtla_307075(), 4, 16);
/// let done = array.io(SimTime::ZERO, 0, 64); // touches all four disks
/// assert!(done > SimTime::ZERO);
/// ```
#[derive(Clone, Debug)]
pub struct Raid0 {
    disks: Vec<Disk>,
    stripe_blocks: u64,
    requests: u64,
}

impl Raid0 {
    /// An array of `disks` identical members with `stripe_blocks`-block
    /// stripes.
    ///
    /// # Panics
    ///
    /// Panics if `disks` or `stripe_blocks` is zero.
    pub fn new(model: DiskModel, disks: usize, stripe_blocks: u64) -> Self {
        assert!(disks > 0, "an array needs at least one disk");
        assert!(stripe_blocks > 0, "stripe size must be positive");
        Raid0 {
            disks: (0..disks).map(|_| Disk::new(model)).collect(),
            stripe_blocks,
            requests: 0,
        }
    }

    /// Enqueues an I/O of `blocks` blocks at array block `start`, arriving
    /// at `now`; returns the completion instant of the slowest stripe.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is zero.
    pub fn io(&mut self, now: SimTime, start: u64, blocks: u64) -> SimTime {
        self.io_timed(now, start, blocks).1
    }

    /// As [`Raid0::io`], but also returns the instant the earliest
    /// stripe started: `begin - now` is the array-level queue wait,
    /// `done - begin` the service interval (stripes may overlap inside
    /// it). The two always telescope: `(begin - now) + (done - begin) ==
    /// done - now`, which keeps per-request stage sums exact.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is zero.
    pub fn io_timed(&mut self, now: SimTime, start: u64, blocks: u64) -> (SimTime, SimTime) {
        assert!(blocks > 0, "zero-length array I/O");
        self.requests += 1;
        let n = self.disks.len() as u64;
        let mut begin: Option<SimTime> = None;
        let mut done = now;
        let mut at = start;
        let end = start + blocks;
        while at < end {
            // The stripe containing `at`:
            let stripe_idx = at / self.stripe_blocks;
            let disk_idx = (stripe_idx % n) as usize;
            let stripe_end = (stripe_idx + 1) * self.stripe_blocks;
            let run = stripe_end.min(end) - at;
            // Block address on the member disk: which of *its* stripes this
            // is, plus the offset within the stripe.
            let disk_stripe = stripe_idx / n;
            let disk_block = disk_stripe * self.stripe_blocks + (at % self.stripe_blocks);
            let (b, c) = self.disks[disk_idx].io_timed(now, disk_block, run);
            begin = Some(begin.map_or(b, |prev| prev.min(b)));
            done = done.max(c);
            at += run;
        }
        (begin.unwrap_or(now), done)
    }

    /// Mean member-disk utilization over `[0, elapsed_until]`.
    pub fn utilization(&self, elapsed_until: SimTime) -> f64 {
        self.disks
            .iter()
            .map(|d| d.utilization(elapsed_until))
            .sum::<f64>()
            / self.disks.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BLOCK_SIZE;

    #[test]
    fn stripes_cover_exactly_the_request() {
        let mut a = Raid0::new(DiskModel::dtla_307075(), 4, 16);
        a.io(SimTime::ZERO, 5, 100);
        assert_eq!(a.disks.iter().map(Disk::blocks_moved).sum::<u64>(), 100);
        assert_eq!(a.requests, 1);
    }

    #[test]
    fn wide_request_uses_all_disks() {
        let mut a = Raid0::new(DiskModel::dtla_307075(), 4, 16);
        a.io(SimTime::ZERO, 0, 64);
        for d in &a.disks {
            assert_eq!(d.blocks_moved(), 16, "each disk serves one stripe");
        }
    }

    #[test]
    fn striping_beats_one_disk_on_large_sequential_io() {
        let model = DiskModel::dtla_307075();
        let mut one = Raid0::new(model, 1, 16);
        let mut four = Raid0::new(model, 4, 16);
        let mut t1 = SimTime::ZERO;
        let mut t4 = SimTime::ZERO;
        for i in 0..200u64 {
            t1 = one.io(t1, i * 64, 64);
            t4 = four.io(t4, i * 64, 64);
        }
        assert!(
            t4.as_nanos() * 3 < t1.as_nanos(),
            "4-way stripe should be >3x faster sequentially: {t4} vs {t1}"
        );
    }

    #[test]
    fn sequential_array_rate_scales_with_members() {
        let model = DiskModel::dtla_307075();
        let mut a = Raid0::new(model, 4, 16);
        let mut t = SimTime::ZERO;
        let total_blocks = 64 * 500u64;
        for i in 0..500u64 {
            t = a.io(t, i * 64, 64);
        }
        let rate = (total_blocks * BLOCK_SIZE) as f64 / t.as_secs_f64();
        // ~4 × 37 MB/s = 148 MB/s; allow stripe-boundary slop.
        assert!(rate > 3.5 * model.media_bytes_per_sec, "rate = {rate}");
    }

    #[test]
    fn small_request_touches_one_disk() {
        let mut a = Raid0::new(DiskModel::dtla_307075(), 4, 16);
        a.io(SimTime::ZERO, 0, 8);
        let active = a.disks.iter().filter(|d| d.blocks_moved() > 0).count();
        assert_eq!(active, 1);
    }

    #[test]
    fn disk_addressing_is_dense_per_member() {
        // Array stripes 0,4,8.. map to disk 0 stripes 0,1,2.. — verified by
        // sequential detection: back-to-back array stripes on one disk
        // should be sequential for that disk.
        let model = DiskModel::dtla_307075();
        let mut a = Raid0::new(model, 4, 16);
        // Stripe 0 (disk 0, blocks 0..16), then stripe 4 (disk 0, 16..32).
        let c1 = a.io(SimTime::ZERO, 0, 16);
        let c2 = a.io(c1, 64, 16);
        assert_eq!(c2.since(c1), model.service_time_at(16, 0));
    }

    #[test]
    #[should_panic(expected = "at least one disk")]
    fn zero_disks_panics() {
        let _ = Raid0::new(DiskModel::dtla_307075(), 0, 16);
    }

    #[test]
    #[should_panic(expected = "stripe size")]
    fn zero_stripe_panics() {
        let _ = Raid0::new(DiskModel::dtla_307075(), 4, 0);
    }

    #[test]
    fn io_timed_brackets_the_request() {
        let mut a = Raid0::new(DiskModel::dtla_307075(), 4, 16);
        // Idle array: service starts at arrival.
        let (b1, d1) = a.io_timed(SimTime::ZERO, 0, 64);
        assert_eq!(b1, SimTime::ZERO);
        assert!(d1 > b1);
        // A second request to the same stripes queues behind the first.
        let (b2, d2) = a.io_timed(SimTime::ZERO, 0, 64);
        assert!(b2 > SimTime::ZERO, "queued start");
        assert!(d2 > d1);
        // io() returns exactly the completion half.
        let mut c = Raid0::new(DiskModel::dtla_307075(), 4, 16);
        assert_eq!(c.io(SimTime::ZERO, 0, 64), d1);
    }

    #[test]
    fn utilization_averages_members() {
        let mut a = Raid0::new(DiskModel::dtla_307075(), 2, 16);
        let c = a.io(SimTime::ZERO, 0, 16); // one disk busy, one idle
        let u = a.utilization(c);
        assert!(u > 0.0 && u <= 0.5 + 1e-9);
    }
}

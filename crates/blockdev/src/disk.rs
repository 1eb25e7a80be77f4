//! A single-spindle disk timing model.

use sim::time::{Duration, SimTime};

use crate::BLOCK_SIZE;

/// Mechanical parameters of one disk.
///
/// # Examples
///
/// ```
/// use blockdev::DiskModel;
/// let m = DiskModel::dtla_307075();
/// // A 4 KiB read across the platter costs seek + rotation + transfer.
/// let t = m.service_time_at(1, u64::MAX);
/// assert!(t.as_nanos() > 10_000_000);
/// // A sequential one costs only transfer time: well under a millisecond.
/// assert!(m.service_time_at(1, 0).as_nanos() < 1_000_000);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiskModel {
    /// Track-to-track (minimum) seek time.
    pub min_seek: Duration,
    /// Full-stroke seek time.
    pub max_seek: Duration,
    /// Addressable span in blocks (seek distances scale against this).
    pub span_blocks: u64,
    /// Average rotational latency (half a revolution).
    pub avg_rotation: Duration,
    /// Sustained media transfer rate, bytes/second.
    pub media_bytes_per_sec: f64,
}

impl DiskModel {
    /// The paper's disk: IBM DTLA-307075 (Deskstar 75GXP), 7200 rpm,
    /// ~8.5 ms average seek, ~37 MB/s sustained media rate.
    pub fn dtla_307075() -> Self {
        DiskModel {
            min_seek: Duration::from_micros(1_200),
            max_seek: Duration::from_micros(15_000),
            span_blocks: 18_000_000, // ~75 GB of 4 KiB blocks
            avg_rotation: Duration::from_micros(4_170),
            media_bytes_per_sec: 37.0e6,
        }
    }

    /// Seek time as a function of distance: the classic
    /// `min + (max − min) · √(d/span)` curve, which puts the quoted
    /// average near the 1/3-stroke point. Short hops inside a hot file
    /// set cost far less than the data-sheet average.
    pub fn seek_time(&self, distance_blocks: u64) -> Duration {
        let frac = (distance_blocks as f64 / self.span_blocks as f64).min(1.0);
        let extra = (self.max_seek - self.min_seek).as_nanos() as f64 * frac.sqrt();
        self.min_seek + Duration::from_nanos(extra as u64)
    }

    /// Service time for a request `distance_blocks` away from the head.
    pub fn service_time_at(&self, blocks: u64, distance_blocks: u64) -> Duration {
        let transfer =
            Duration::from_secs_f64(blocks as f64 * BLOCK_SIZE as f64 / self.media_bytes_per_sec);
        if distance_blocks <= crate::disk::NEAR_SEQ_WINDOW {
            transfer
        } else {
            self.seek_time(distance_blocks) + self.avg_rotation + transfer
        }
    }
}

impl Default for DiskModel {
    fn default() -> Self {
        DiskModel::dtla_307075()
    }
}

/// Blocks of slack within which an access still counts as sequential.
/// Real drives reorder queued requests and read ahead in firmware, so a
/// request landing near (not exactly at) the head position avoids the
/// full seek + rotation penalty. Out-of-order arrivals from concurrent
/// request slots stay inside this window on streaming workloads.
pub const NEAR_SEQ_WINDOW: u64 = 256;

/// One disk: a FIFO device with positional state for sequential detection.
#[derive(Clone, Debug)]
pub struct Disk {
    model: DiskModel,
    free_at: SimTime,
    next_seq_block: Option<u64>,
    requests: u64,
    blocks_moved: u64,
}

impl Disk {
    /// A disk with the given model, idle at time zero.
    pub fn new(model: DiskModel) -> Self {
        Disk {
            model,
            free_at: SimTime::ZERO,
            next_seq_block: None,
            requests: 0,
            blocks_moved: 0,
        }
    }

    /// Enqueues an I/O of `blocks` blocks starting at `start_block`,
    /// arriving at `now`, and returns `(begin, done)`: `begin - now` is
    /// time queued behind earlier I/O, `done - begin` the positioning +
    /// transfer service time. Reads and writes cost the same in this model.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is zero.
    pub fn io_timed(&mut self, now: SimTime, start_block: u64, blocks: u64) -> (SimTime, SimTime) {
        assert!(blocks > 0, "zero-length disk I/O");
        let distance = self
            .next_seq_block
            .map_or(u64::MAX, |expected| start_block.abs_diff(expected));
        let demand = self.model.service_time_at(blocks, distance);
        let begin = self.free_at.max(now);
        let done = begin + demand;
        self.free_at = done;
        self.next_seq_block = Some(start_block + blocks);
        self.requests += 1;
        self.blocks_moved += blocks;
        (begin, done)
    }

    /// Total blocks moved.
    pub fn blocks_moved(&self) -> u64 { // test-api: the array tests count the blocks each member disk moved
        self.blocks_moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// When an I/O of `blocks` at `start` issued at `now` completes.
    fn io(d: &mut Disk, now: SimTime, start: u64, blocks: u64) -> SimTime {
        d.io_timed(now, start, blocks).1
    }

    #[test]
    fn sequential_io_skips_positioning() {
        let m = DiskModel::dtla_307075();
        let mut d = Disk::new(m);
        let c1 = io(&mut d, SimTime::ZERO, 0, 8);
        // Next request continues where the last ended: sequential.
        let c2 = io(&mut d, c1, 8, 8);
        let seq_cost = c2.since(c1);
        assert_eq!(seq_cost, m.service_time_at(8, 0));
        // A request elsewhere pays a distance-scaled seek + rotation.
        let c3 = io(&mut d, c2, 100_000, 8);
        assert_eq!(c3.since(c2), m.service_time_at(8, 100_000 - 16));
        assert!(c3.since(c2) > seq_cost * 5);
    }

    #[test]
    fn near_sequential_arrivals_stream() {
        // Concurrent slots deliver slightly out-of-order requests; within
        // the window they still stream at media rate.
        let m = DiskModel::dtla_307075();
        let mut d = Disk::new(m);
        let c1 = io(&mut d, SimTime::ZERO, 0, 8);
        let c2 = io(&mut d, c1, 16, 8); // skipped ahead by one burst
        assert_eq!(c2.since(c1), m.service_time_at(8, 0));
        let c3 = io(&mut d, c2, 8, 8); // and back-filled
        assert_eq!(c3.since(c2), m.service_time_at(8, 0));
        // Beyond the window it is a real (short) seek.
        let c4 = io(&mut d, c3, 16 + NEAR_SEQ_WINDOW + 1, 8);
        assert_eq!(c4.since(c3), m.service_time_at(8, NEAR_SEQ_WINDOW + 1));
        assert!(c4.since(c3) > m.service_time_at(8, 0));
    }

    /// The DTLA-307075 data sheet's average seek (about a third of a stroke).
    const DATASHEET_AVG_SEEK: Duration = Duration::from_micros(8_500);

    #[test]
    fn seek_time_scales_with_distance() {
        let m = DiskModel::dtla_307075();
        let near = m.seek_time(1_000);
        let mid = m.seek_time(m.span_blocks / 3);
        let far = m.seek_time(m.span_blocks);
        assert!(near < mid && mid < far);
        assert!(near >= m.min_seek);
        assert_eq!(far, m.max_seek);
        assert_eq!(m.seek_time(u64::MAX), m.max_seek, "clamped");
        // The quoted average lands near the 1/3-stroke point.
        let avg = m.seek_time(m.span_blocks / 3 / 3); // sqrt(1/9)=1/3 of range
        assert!(avg < DATASHEET_AVG_SEEK + Duration::from_micros(2_000));
    }

    #[test]
    fn first_io_is_random() {
        let m = DiskModel::dtla_307075();
        let mut d = Disk::new(m);
        let c = io(&mut d, SimTime::ZERO, 0, 1);
        assert_eq!(c.since(SimTime::ZERO), m.service_time_at(1, u64::MAX));
    }

    #[test]
    fn fifo_queueing() {
        let mut d = Disk::new(DiskModel::dtla_307075());
        let c1 = io(&mut d, SimTime::ZERO, 0, 1);
        let c2 = io(&mut d, SimTime::ZERO, 0, 1);
        assert!(c2 > c1, "second request waits for the first");
        assert_eq!(d.requests, 2);
        assert_eq!(d.blocks_moved(), 2);
    }

    #[test]
    fn sequential_stream_approaches_media_rate() {
        let m = DiskModel::dtla_307075();
        let mut d = Disk::new(m);
        let mut t = SimTime::ZERO;
        let blocks_per_io = 16u64;
        let ios = 1_000u64;
        for i in 0..ios {
            t = io(&mut d, t, i * blocks_per_io, blocks_per_io);
        }
        let bytes = ios * blocks_per_io * BLOCK_SIZE;
        let rate = bytes as f64 / t.as_secs_f64();
        // First I/O pays positioning; the rest stream. Expect ≥95% of 37 MB/s.
        assert!(rate > 0.95 * m.media_bytes_per_sec, "rate = {rate}");
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_blocks_panics() {
        Disk::new(DiskModel::dtla_307075()).io_timed(SimTime::ZERO, 0, 0);
    }
}

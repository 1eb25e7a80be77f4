//! A SPECsfs-V3-like NFS workload (§5.3, Figure 7).
//!
//! Matching the paper's configuration: a 2 GB file system of which 10 % is
//! the accessed file set, the default small-dominated request-size
//! distribution (most requests under 16 KB), a 5:1 read:write ratio among
//! regular-data operations, and a sweepable percentage of regular-data
//! (vs metadata) operations — the x-axis of Figure 7.

use sim::rng::SplitMix64;

use crate::{FileId, NfsOp};

/// Workload parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpecSfsParams {
    /// Number of files in the accessed set.
    pub file_count: u32,
    /// Size of each file, bytes (file set = count × size).
    pub file_size: u64,
    /// Fraction of operations that move regular data (reads + writes);
    /// the rest are metadata operations (GETATTR / LOOKUP).
    pub data_op_fraction: f64,
    /// Reads per write among the data operations (paper default 5:1).
    pub reads_per_write: u32,
}

impl Default for SpecSfsParams {
    fn default() -> Self {
        SpecSfsParams {
            // 10 % of a 2 GB file system, as 1 MB files.
            file_count: 200,
            file_size: 1 << 20,
            data_op_fraction: 0.5,
            reads_per_write: 5,
        }
    }
}

/// The SPECsfs default-ish request-size distribution: small requests
/// dominate ("small sized requests (< 16 KB) dominate", §5.3).
/// `(size, weight)` pairs.
pub const SIZE_DISTRIBUTION: [(u32, u32); 5] = [
    (4 << 10, 40),
    (8 << 10, 25),
    (16 << 10, 20),
    (32 << 10, 10),
    (64 << 10, 5),
];

/// The generator. An infinite iterator; take as many ops as the run needs.
#[derive(Clone, Debug)]
pub struct SpecSfs {
    params: SpecSfsParams,
    rng: SplitMix64,
}

impl SpecSfs {
    /// A generator with the given parameters and seed.
    ///
    /// # Panics
    ///
    /// Panics on a zero file count or an out-of-range data fraction.
    pub fn new(params: SpecSfsParams, seed: u64) -> Self {
        assert!(params.file_count > 0, "need at least one file");
        assert!(
            (0.0..=1.0).contains(&params.data_op_fraction),
            "data fraction must be in [0, 1]"
        );
        SpecSfs {
            params,
            rng: SplitMix64::new(seed),
        }
    }

    /// The parameters.
    pub fn params(&self) -> SpecSfsParams {
        self.params
    }

    fn pick_file(&mut self) -> FileId {
        FileId(self.rng.next_below(u64::from(self.params.file_count)) as u32)
    }

    fn pick_size(&mut self) -> u32 {
        let total: u32 = SIZE_DISTRIBUTION.iter().map(|&(_, w)| w).sum();
        let mut draw = self.rng.next_below(u64::from(total)) as u32;
        for &(size, weight) in &SIZE_DISTRIBUTION {
            if draw < weight {
                return size;
            }
            draw -= weight;
        }
        SIZE_DISTRIBUTION[SIZE_DISTRIBUTION.len() - 1].0
    }

    /// A block-aligned offset so that `len` bytes stay inside the file.
    fn pick_offset(&mut self, len: u32) -> u64 {
        let max_start_block = (self.params.file_size.saturating_sub(u64::from(len))) / 4096;
        self.rng.next_below(max_start_block + 1) * 4096
    }
}

impl Iterator for SpecSfs {
    type Item = NfsOp;

    fn next(&mut self) -> Option<NfsOp> {
        let file = self.pick_file();
        if self.rng.next_bool(self.params.data_op_fraction) {
            let len = self.pick_size().min(self.params.file_size as u32);
            let offset = self.pick_offset(len);
            let is_read = !self
                .rng
                .next_bool(1.0 / f64::from(self.params.reads_per_write + 1));
            Some(if is_read {
                NfsOp::Read { file, offset, len }
            } else {
                NfsOp::Write { file, offset, len }
            })
        } else if self.rng.next_bool(0.5) {
            Some(NfsOp::Getattr { file })
        } else {
            Some(NfsOp::Lookup { file })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(params: SpecSfsParams, n: usize) -> Vec<NfsOp> {
        SpecSfs::new(params, 42).take(n).collect()
    }

    #[test]
    fn data_fraction_is_respected() {
        for frac in [0.3, 0.5, 0.75] {
            let ops = sample(
                SpecSfsParams {
                    data_op_fraction: frac,
                    ..SpecSfsParams::default()
                },
                20_000,
            );
            let data_op = |o: &&NfsOp| matches!(o, NfsOp::Read { .. } | NfsOp::Write { .. });
            let data = ops.iter().filter(data_op).count() as f64 / ops.len() as f64;
            assert!(
                (data - frac).abs() < 0.02,
                "fraction {frac}: measured {data}"
            );
        }
    }

    #[test]
    fn read_write_ratio_is_five_to_one() {
        let ops = sample(SpecSfsParams::default(), 30_000);
        let reads = ops.iter().filter(|o| matches!(o, NfsOp::Read { .. })).count() as f64;
        let writes = ops.iter().filter(|o| matches!(o, NfsOp::Write { .. })).count() as f64;
        let ratio = reads / writes;
        assert!((4.3..5.7).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn small_requests_dominate() {
        let ops = sample(SpecSfsParams::default(), 20_000);
        let sizes: Vec<u32> = ops
            .iter()
            .filter_map(|o| match o {
                NfsOp::Read { len, .. } | NfsOp::Write { len, .. } => Some(*len),
                _ => None,
            })
            .collect();
        let small = sizes.iter().filter(|&&s| s < (16 << 10)).count() as f64;
        assert!(
            small / sizes.len() as f64 > 0.6,
            "small fraction = {}",
            small / sizes.len() as f64
        );
    }

    #[test]
    fn requests_stay_inside_files_and_aligned() {
        let params = SpecSfsParams::default();
        for op in sample(params, 5_000) {
            if let NfsOp::Read { offset, len, .. } | NfsOp::Write { offset, len, .. } = op {
                assert!(offset + u64::from(len) <= params.file_size);
                assert_eq!(offset % 4096, 0, "block-aligned offsets");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a: Vec<NfsOp> = SpecSfs::new(SpecSfsParams::default(), 9).take(100).collect();
        let b: Vec<NfsOp> = SpecSfs::new(SpecSfsParams::default(), 9).take(100).collect();
        assert_eq!(a, b);
        let c: Vec<NfsOp> = SpecSfs::new(SpecSfsParams::default(), 10).take(100).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn metadata_ops_split_between_getattr_and_lookup() {
        let ops = sample(
            SpecSfsParams {
                data_op_fraction: 0.0,
                ..SpecSfsParams::default()
            },
            10_000,
        );
        let getattrs = ops.iter().filter(|o| matches!(o, NfsOp::Getattr { .. })).count();
        let lookups = ops.iter().filter(|o| matches!(o, NfsOp::Lookup { .. })).count();
        assert_eq!(getattrs + lookups, 10_000);
        assert!(getattrs > 4_000 && lookups > 4_000);
    }

    #[test]
    #[should_panic(expected = "data fraction")]
    fn bad_fraction_panics() {
        SpecSfs::new(
            SpecSfsParams {
                data_op_fraction: 1.5,
                ..SpecSfsParams::default()
            },
            1,
        );
    }
}

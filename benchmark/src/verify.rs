//! Output verification: a shadow model of what every file must hold, and
//! the count checks a run must balance.
//!
//! The timed pass checks status and length of every reply; the traced
//! pass additionally byte-compares every READ/GET payload against this
//! model — pristine content (the rig's pattern or the storage server's
//! synthetic blocks) overlaid with the last bytes written. A placeholder
//! stamp leaking to a client differs from both and fails the benchmark.

use crate::seams::{write_tag, Counters, Pristine, RunOutcome};
use crate::workloads::{Op, BLOCK};

/// Deliberate faults `--selftest` plants to prove verification bites.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Corrupt {
    /// Flip one byte of the expected content of the first READ/GET.
    Byte,
    /// Expect one more request than was offered.
    Count,
}

/// What each file must hold right now.
pub struct Shadow {
    pristine: Pristine,
    /// Per file, per block: the fill byte of the last write covering it,
    /// 0 while pristine.
    tags: Vec<Vec<u8>>,
    /// Pattern blocks already generated: the pattern is slow to make and
    /// patterned files are small. Synthetic blocks are cheap and the
    /// sparse files large, so those are regenerated every time.
    memo: Vec<Vec<Option<Box<[u8]>>>>,
    corrupt_next: bool,
}

impl Shadow {
    pub fn new(pristine: Pristine, file_sizes: &[u64], corrupt: Option<Corrupt>) -> Self {
        let blocks = |s: &u64| s.div_ceil(BLOCK) as usize;
        let memo = match pristine {
            Pristine::Patterned { .. } => {
                file_sizes.iter().map(|s| vec![None; blocks(s)]).collect()
            }
            Pristine::Synthetic { .. } => Vec::new(),
        };
        Shadow {
            pristine,
            tags: file_sizes.iter().map(|s| vec![0; blocks(s)]).collect(),
            memo,
            corrupt_next: corrupt == Some(Corrupt::Byte),
        }
    }

    /// Records a write of `len` bytes of `tag` at block-aligned `offset`.
    pub fn wrote(&mut self, file: u32, offset: u64, len: u64, tag: u8) {
        assert!(
            offset.is_multiple_of(BLOCK) && len.is_multiple_of(BLOCK),
            "whole blocks only"
        );
        let first = (offset / BLOCK) as usize;
        for t in &mut self.tags[file as usize][first..first + (len / BLOCK) as usize] {
            *t = tag;
        }
    }

    /// Whether `got` is exactly what `[offset, offset + got.len())` of
    /// `file` must hold.
    pub fn matches(&mut self, file: u32, offset: u64, got: &[u8]) -> bool {
        assert!(offset.is_multiple_of(BLOCK), "block-aligned reads only");
        let mut ok = true;
        for (i, chunk) in got.chunks(BLOCK as usize).enumerate() {
            let blk = (offset / BLOCK) as usize + i;
            let tag = self.tags[file as usize][blk];
            if tag != 0 {
                ok &= chunk.iter().all(|&b| b == tag);
                continue;
            }
            let pristine = &self.pristine;
            let mut fresh;
            let want: &mut [u8] = match self.memo.get_mut(file as usize) {
                Some(memo) => memo[blk]
                    .get_or_insert_with(|| pristine.block(file, blk as u64).into_boxed_slice()),
                None => {
                    fresh = pristine.block(file, blk as u64);
                    &mut fresh
                }
            };
            if self.corrupt_next {
                // The planted fault: the model now expects a wrong byte.
                want[0] ^= 0xFF;
                self.corrupt_next = false;
            }
            ok &= want.get(..chunk.len()) == Some(chunk);
        }
        ok
    }

    /// Checks request `k`'s outcome against the model and advances it.
    pub fn check(&mut self, k: usize, op: &Op, payload: &[u8]) -> bool {
        match *op {
            Op::Read { file, offset, .. } => self.matches(file, u64::from(offset), payload),
            Op::Get { page } => self.matches(page, 0, payload),
            Op::Write { file, offset, len } => {
                self.wrote(file, u64::from(offset), u64::from(len), write_tag(k));
                true
            }
            Op::Getattr { .. } | Op::Lookup { .. } => true,
        }
    }
}

/// The count checks of one run: every offered request is accounted for
/// (completed, shed by design, or failed), and the server handled exactly
/// the transmissions the clients made. Returns failure notes.
pub fn check_counts(
    out: &RunOutcome,
    offered: u64,
    delta: &Counters,
    corrupt: Option<Corrupt>,
) -> Vec<String> {
    let offered = offered + u64::from(corrupt == Some(Corrupt::Count));
    let mut notes = Vec::new();
    if out.attempted != offered {
        notes.push(format!(
            "offered {offered} requests, the run attempted {}",
            out.attempted
        ));
    }
    if delta.server_requests != out.transmissions {
        notes.push(format!(
            "clients made {} transmissions, the server handled {}",
            out.transmissions, delta.server_requests
        ));
    }
    if delta.server_errors != 0 {
        notes.push(format!("the server counted {} errors", delta.server_errors));
    }
    notes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patterned() -> Shadow {
        Shadow::new(Pristine::Patterned { fhs: vec![7] }, &[64 << 10], None)
    }

    fn pristine_bytes(offset: u64, len: usize) -> Vec<u8> {
        let p = Pristine::Patterned { fhs: vec![7] };
        (0..len as u64 / BLOCK)
            .flat_map(|i| p.block(0, offset / BLOCK + i))
            .collect()
    }

    #[test]
    fn pristine_reads_match_and_a_flipped_byte_does_not() {
        let mut s = patterned();
        let mut data = pristine_bytes(8192, 16 << 10);
        assert!(s.matches(0, 8192, &data));
        data[5000] ^= 1;
        assert!(!s.matches(0, 8192, &data));
    }

    #[test]
    fn last_write_wins_per_block() {
        let mut s = patterned();
        let read = Op::Read {
            file: 0,
            offset: 0,
            len: 12288,
        };
        assert!(s.check(
            3,
            &Op::Write {
                file: 0,
                offset: 4096,
                len: 4096
            },
            &[]
        ));
        let mut want = pristine_bytes(0, 12288);
        want[4096..8192].fill(write_tag(3));
        assert!(s.check(4, &read, &want));
        assert!(s.check(
            9,
            &Op::Write {
                file: 0,
                offset: 4096,
                len: 8192
            },
            &[]
        ));
        assert!(!s.check(10, &read, &want), "stale bytes are a mismatch");
        want[4096..].fill(write_tag(9));
        assert!(s.check(11, &read, &want));
    }

    #[test]
    fn a_placeholder_stamp_is_a_mismatch() {
        let mut s = patterned();
        let mut data = pristine_bytes(0, 4096);
        data[..4].copy_from_slice(b"NCKY");
        assert!(!s.matches(0, 0, &data));
    }

    #[test]
    fn planted_byte_corruption_fails_exactly_one_read() {
        let mut s = Shadow::new(
            Pristine::Patterned { fhs: vec![7] },
            &[64 << 10],
            Some(Corrupt::Byte),
        );
        let data = pristine_bytes(0, 8192);
        assert!(
            !s.matches(0, 0, &data),
            "the corrupted expectation rejects good bytes"
        );
        assert!(
            s.matches(0, 8192, &pristine_bytes(8192, 4096)),
            "only one byte was planted"
        );
    }

    #[test]
    fn short_tail_blocks_compare_by_length() {
        let p = Pristine::Synthetic {
            lbns: vec![vec![10, 11]],
            sizes: vec![4096 + 100],
        };
        let want: Vec<u8> = [p.block(0, 0), p.block(0, 1)].concat();
        assert_eq!(want.len(), 4196);
        let mut s = Shadow::new(p, &[4096 + 100], None);
        assert!(s.matches(0, 0, &want));
        assert!(!s.matches(
            0,
            0,
            &want[..4195]
                .iter()
                .copied()
                .chain([0xEE])
                .collect::<Vec<u8>>()
        ));
    }

    #[test]
    fn counts_must_balance() {
        let out = RunOutcome {
            attempted: 100,
            transmissions: 120,
            ..RunOutcome::default()
        };
        let delta = Counters {
            server_requests: 120,
            ..Counters::default()
        };
        assert!(check_counts(&out, 100, &delta, None).is_empty());
        assert_eq!(
            check_counts(&out, 100, &delta, Some(Corrupt::Count)).len(),
            1
        );
        let lost = Counters {
            server_requests: 119,
            ..Counters::default()
        };
        assert_eq!(check_counts(&out, 100, &lost, None).len(), 1);
        let errs = Counters {
            server_requests: 120,
            server_errors: 2,
            ..Counters::default()
        };
        assert_eq!(check_counts(&out, 100, &errs, None).len(), 1);
    }
}

//! The resident walk against the per-block read it batches.
//!
//! `Filesystem::read_logical` serves a fully resident range through one
//! probe-then-commit walk (`walk_resident`): every block probed once,
//! uncounted, then all the accesses counted in one go. The reference is
//! the loop it replaced on that case and still runs on every other —
//! `read_logical_per_block`, one counted map + lookup (+ fetch) per block —
//! on a twin file system fed the identical history. For random files
//! (direct, single- and double-indirect ranges, holes, a partial tail),
//! random aligned reads, and both recency clocks (the plain counter and a
//! lane's epoch window), the two must agree on everything observable: the
//! returned blocks, the cache counters, the per-thread op tally, the
//! ledger, the recorder's event sequence, and — the stamps, which nothing
//! exposes directly — the order in which blocks fall out when the cache is
//! then shrunk one block at a time. A range the walk cannot serve (a cold
//! block, a hole) must come back `None` with all of those untouched.
//!
//! (In `simfs` rather than beside the other differential properties in
//! `crates/check/tests`: `check` has no edge to this crate.)

use check::gen::*;
use check::{prop_assert, prop_assert_eq, property, PropResult};
use netbuf::CopyLedger;
use simfs::fs::WALK_BLOCKS;
use sim::epoch::take_tally;
use simfs::{Filesystem, FsParams, Ino, MemStore, BLOCK_SIZE};

type Fs = Filesystem<MemStore>;

const BS: u64 = BLOCK_SIZE as u64;
/// Where written extents may start: from the direct blocks (0..16), across
/// the single-indirect range (16..528) into the double-indirect one, and
/// around the boundary between its first two second-level blocks (1040).
const STARTS: [u64; 8] = [0, 6, 14, 500, 520, 527, 1030, 1039];

/// One observable side of a file system: everything a read may move.
struct Side {
    fs: Fs,
    ledger: CopyLedger,
    rec: obs::Recorder,
    file: Ino,
}

impl Side {
    /// A file system holding one file with `extents` written (the gaps
    /// between them are holes) and `tail` bytes lopped off the last block,
    /// everything resident — clean if `synced`, dirty otherwise — and the
    /// recorder attached after the fact.
    fn new(extents: &[(usize, u64)], tail: u64, synced: bool) -> Side {
        let ledger = CopyLedger::new();
        let params = FsParams {
            cache_blocks: 4096,
            ..FsParams::default()
        };
        let mut fs = Fs::mkfs(MemStore::new(16_384), params, &ledger).expect("mkfs");
        let file = fs.create(Fs::ROOT, "f").expect("create");
        for &(start, blocks) in extents {
            let data: Vec<u8> = (0..blocks * BS).map(|i| (i / 7) as u8 ^ start as u8).collect();
            fs.write(file, STARTS[start] * BS, &data).expect("write");
        }
        let size = fs.getattr(file).expect("attrs").size;
        fs.set_size(file, size - tail.min(size.saturating_sub(1))).expect("truncate");
        if synced {
            fs.sync().expect("sync");
        }
        let rec = obs::Recorder::new();
        rec.enable(obs::TraceConfig::default());
        fs.set_recorder(rec.clone());
        ledger.attach_recorder(&rec);
        let _ = take_tally().fs;
        Side {
            fs,
            ledger,
            rec,
            file,
        }
    }

    /// Which of the file's blocks `0..upto` a walk finds resident — the
    /// only residency probe the public interface has, and free.
    fn resident(&self, upto: u64) -> Vec<bool> {
        (0..upto)
            .map(|b| self.fs.walk_resident(self.file, b * BS, 1).is_some())
            .collect()
    }
}

/// Runs `f` as lane 3's `k`-th operation when `windowed` — the recency
/// stamps it draws then come from the epoch window's FS cursor, not the
/// cache's plain counter — and bare otherwise.
fn in_window<T>(windowed: bool, k: usize, f: impl FnOnce() -> T) -> T {
    let _window =
        windowed.then(|| sim::epoch::enter_window(sim::epoch::stamp_base(k as u64, 3)));
    f()
}

/// Both sides agree on every counter, charge and event so far, and each
/// one's buffer cache is consistent with its LRU indexes.
fn sides_agree(subject: &Side, reference: &Side, what: &str) -> PropResult {
    prop_assert_eq!(
        subject.fs.check_cache_invariants(),
        Ok(()),
        "{}: subject cache",
        what
    );
    prop_assert_eq!(
        reference.fs.check_cache_invariants(),
        Ok(()),
        "{}: reference cache",
        what
    );
    prop_assert_eq!(subject.fs.cache_stats(), reference.fs.cache_stats(), "{}: cache stats", what);
    prop_assert_eq!(subject.ledger.snapshot(), reference.ledger.snapshot(), "{}: ledger", what);
    prop_assert_eq!(subject.rec.events(), reference.rec.events(), "{}: event sequence", what);
    Ok(())
}

property! {
    #![cases(48)]

    fn prop_resident_walk_matches_the_per_block_read(
        extents in vec_of((ints(0usize..STARTS.len()), ints(1u64..24)), 1..5),
        tail in ints(0u64..BS),
        reads in vec_of((ints(0usize..STARTS.len()), ints(0u64..12), ints(1usize..(WALK_BLOCKS + 4) * BLOCK_SIZE)), 1..12),
        (windowed, synced) in (any_bool(), any_bool()),
        cold in ints(0u64..24),
    ) {
        let subject = &mut Side::new(&extents, tail, synced);
        let reference = &mut Side::new(&extents, tail, synced);
        sides_agree(subject, reference, "setup")?;
        let blocks = subject.fs.getattr(subject.file).expect("attrs").size.div_ceil(BS);
        let _ = reference.fs.getattr(reference.file);

        let mut walked = 0;
        for (k, &(start, skip, len)) in reads.iter().enumerate() {
            let offset = (STARTS[start] + skip) * BS;
            let _ = take_tally().fs;
            let before = (subject.fs.cache_stats(), subject.ledger.snapshot(), subject.rec.events().len());
            let served = subject.fs.walk_resident(subject.file, offset, len).is_some();
            prop_assert_eq!(
                (subject.fs.cache_stats(), subject.ledger.snapshot(), subject.rec.events().len(), take_tally().fs),
                (before.0, before.1, before.2, 0),
                "a probe leaves no trace"
            );
            walked += usize::from(served);
            let (got, got_tally) = in_window(windowed, k, || {
                (subject.fs.read_logical(subject.file, offset, len), take_tally().fs)
            });
            let (want, want_tally) = in_window(windowed, k, || {
                (reference.fs.read_logical_per_block(reference.file, offset, len), take_tally().fs)
            });
            prop_assert_eq!(&got, &want, "read {} blocks", k);
            prop_assert_eq!(got_tally, want_tally, "read {} op tally", k);
            if served {
                let blocks = got.expect("a served range reads");
                prop_assert!(blocks.iter().all(|b| b.lbn.is_some()), "no holes in a walk");
                prop_assert!(blocks.len() <= WALK_BLOCKS);
            }
            sides_agree(subject, reference, "read")?;
        }

        // One block gone cold: a range over it is refused, untouched, and
        // the fetch that follows is the reference's, access for access.
        let cold = cold % blocks;
        let _ = reference.fs.block_lbn(reference.file, cold);
        if let Some(lbn) = subject.fs.block_lbn(subject.file, cold).expect("mapped") {
            subject.fs.discard_cached(lbn);
            reference.fs.discard_cached(lbn);
            let offset = cold.saturating_sub(2) * BS;
            prop_assert!(subject.fs.walk_resident(subject.file, offset, 4 * BLOCK_SIZE).is_none());
            sides_agree(subject, reference, "refused walk")?;
            let got = subject.fs.read_logical(subject.file, offset, 4 * BLOCK_SIZE);
            let want = reference.fs.read_logical_per_block(reference.file, offset, 4 * BLOCK_SIZE);
            prop_assert_eq!(got, want, "the per-block fallback");
            sides_agree(subject, reference, "fallback")?;
        }

        // The stamps landed identically: under pressure both caches give
        // up the same block, eviction after eviction.
        if windowed {
            let past = sim::epoch::stamp_base(reads.len() as u64, 0);
            subject.fs.advance_cache_seq_past(past);
            reference.fs.advance_cache_seq_past(past);
        }
        for capacity in (0..subject.fs.cache_len()).rev() {
            subject.fs.set_cache_capacity(capacity);
            reference.fs.set_cache_capacity(capacity);
            prop_assert_eq!(subject.resident(blocks), reference.resident(blocks), "victim at {}", capacity);
            prop_assert_eq!(subject.fs.check_cache_invariants(), Ok(()), "evicted to {}", capacity);
        }
        sides_agree(subject, reference, "evictions")?;
        // (Most cases exercise the walk; a case of nothing but holes and
        // over-long ranges is legitimate too.)
        let _ = walked;
    }
}

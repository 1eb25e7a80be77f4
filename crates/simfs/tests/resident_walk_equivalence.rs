//! The resident walk against the per-block walk it batches.
//!
//! Every read interface — `Filesystem::read_logical`, `read` and
//! `sendfile_into` — serves a fully resident range through one
//! probe-then-commit walk (`walk_resident`): every block probed once,
//! uncounted, then all the accesses counted in one go. The reference is
//! the walk it replaced on that case and still runs on every other —
//! `walk_per_block`, one counted map + lookup (+ fetch) per block — with
//! the same per-block step, on a twin file system fed the identical
//! history. For random files (direct, single- and double-indirect ranges,
//! holes, a partial tail), random reads (block-aligned through
//! `read_logical`, at any byte offset through the copying two), and both
//! recency clocks (the plain counter and a lane's epoch window), the two
//! must agree on everything observable: the returned blocks or bytes, the
//! cache counters, the per-thread op tally, the ledger, the recorder's
//! event sequence, and — the stamps, which nothing exposes directly — the
//! order in which blocks fall out when the cache is then shrunk one block
//! at a time. A range the walk cannot serve (a cold block, a hole) must
//! come back `None` with all of those untouched.
//!
//! (In `simfs` rather than beside the other differential properties in
//! `crates/check/tests`: `check` has no edge to this crate.)

use check::gen::*;
use check::{prop_assert, prop_assert_eq, property, PropResult};
use netbuf::{CopyLedger, NetBuf};
use sim::epoch::take_tally;
use simfs::fs::{logical_step, LogicalBlock, WALK_BLOCKS};
use simfs::{Filesystem, FsError, FsParams, Ino, MemStore, BLOCK_SIZE};

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

/// What a read returns: `read_logical`'s blocks, or the bytes `read` and
/// `sendfile_into` delivered, with the count each reported.
#[derive(Debug, PartialEq)]
enum Read {
    Blocks(Vec<LogicalBlock>),
    Bytes(usize, Vec<u8>),
}

/// Reads `[offset, offset + len)` of `side`'s file through interface
/// `via` (0 `read_logical`, 1 `read`, 2 `sendfile_into`) — or, as the
/// `reference`, through the per-block walk with that interface's
/// per-block step.
fn read_via(
    side: &mut Side,
    reference: bool,
    via: usize,
    offset: u64,
    len: usize,
) -> Result<Read, FsError> {
    let (fs, file) = (&mut side.fs, side.file);
    match via {
        0 if reference => {
            let mut out = Vec::new();
            fs.walk_per_block(file, offset, len, logical_step(&mut out))?;
            Ok(Read::Blocks(out))
        }
        0 => fs.read_logical(file, offset, len).map(Read::Blocks),
        1 => {
            let mut buf = vec![0u8; len];
            let n = if reference {
                let mut done = 0;
                fs.walk_per_block(file, offset, len, |ledger, b| {
                    b.seg.read_at(b.in_off, &mut buf[done..done + b.len]);
                    ledger.charge_payload_copy(b.len as u64);
                    done += b.len;
                })?
            } else {
                fs.read(file, offset, &mut buf)?
            };
            Ok(Read::Bytes(n, buf))
        }
        _ => {
            let mut pkt = NetBuf::new(&side.ledger);
            let n = if reference {
                fs.walk_per_block(file, offset, len, |_, b| {
                    pkt.reserve_segments(b.rest);
                    pkt.append_vec(b.seg.slice(b.in_off, b.len).to_vec());
                })?
            } else {
                fs.sendfile_into(file, offset, len, &mut pkt)?
            };
            Ok(Read::Bytes(n, pkt.copy_payload_to_vec()))
        }
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
        reads in vec_of((ints(0usize..3), ints(0usize..STARTS.len()), ints(0u64..12), ints(0u64..BS), ints(1usize..(WALK_BLOCKS + 4) * BLOCK_SIZE)), 1..12),
        (windowed, synced) in (any_bool(), any_bool()),
        cold in ints(0u64..24),
    ) {
        let subject = &mut Side::new(&extents, tail, synced);
        let reference = &mut Side::new(&extents, tail, synced);
        sides_agree(subject, reference, "setup")?;
        let blocks = subject.fs.getattr(subject.file).expect("attrs").size.div_ceil(BS);
        let _ = reference.fs.getattr(reference.file);

        let mut walked = 0;
        for (k, &(via, start, skip, head, len)) in reads.iter().enumerate() {
            // `read_logical` takes block-aligned ranges only.
            let offset = (STARTS[start] + skip) * BS + if via == 0 { 0 } else { head };
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
                (read_via(subject, false, via, offset, len), take_tally().fs)
            });
            let (want, want_tally) = in_window(windowed, k, || {
                (read_via(reference, true, via, offset, len), take_tally().fs)
            });
            prop_assert_eq!(&got, &want, "read {} via {}", k, via);
            prop_assert_eq!(got_tally, want_tally, "read {} op tally", k);
            if served {
                prop_assert!(got.is_ok(), "a served range reads");
                if let Ok(Read::Blocks(blocks)) = &got {
                    prop_assert!(blocks.iter().all(|b| b.lbn.is_some()), "no holes in a walk");
                    prop_assert!(blocks.len() <= WALK_BLOCKS);
                }
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
            let got = read_via(subject, false, 0, offset, 4 * BLOCK_SIZE);
            let want = read_via(reference, true, 0, offset, 4 * BLOCK_SIZE);
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

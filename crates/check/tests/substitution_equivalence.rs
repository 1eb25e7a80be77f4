//! In-place substitution against a reference written from `lookup` +
//! clipping.
//!
//! `substitute_payload` resolves every stamp straight into the outgoing
//! chain (`resolve_into` → `lookup_into` → `share_segments_into`, clipped
//! to the placeholder's length). The reference below does it the long way
//! — one `lookup` per candidate key, a segment vector per chunk, a second
//! pass to clip — on a twin cache fed the identical history. The two must
//! agree on everything observable: the spliced segments (same storage,
//! same offset, same length), the report, the ledger, the cache counters,
//! the ghost tail, and the LRU order every later eviction follows.
//!
//! The second property holds the batched, all-or-nothing resolution a READ
//! reply goes through (`NetCacheShards::resolve_all`: probe every stamp
//! under each shard's guard taken once, then count them all) to the same
//! standard against one `resolve_into` per stamp — and a reply with a
//! dangling stamp anywhere in it to the stricter one: its index comes
//! back and nothing whatsoever has moved.
//!
//! Placeholders come in both representations: a whole block that stores
//! the stamp and its junk, and a key-only block that stores the stamp and
//! nothing else (zeros past it). The third property holds the key-only
//! kind to the whole block that stores the same bytes, substituted or —
//! as the no-substitution ablation ships them — not: same splice, same
//! wire bytes, same checksum.

use check::gen::*;
use check::{prop_assert, prop_assert_eq, property, PropResult};
use ncache::{substitute_payload, NetCacheShards, SubstitutionReport};
use netbuf::key::{CacheKey, Fho, FileHandle, KeyStamp, Lbn};
use netbuf::{BufPool, CopyLedger, NetBuf, Segment};
use sim::SplitMix64;

const CHUNK: usize = 4096;
/// Pool capacity in chunks: 4 dirty FHO chunks stay pinned, the other 8
/// slots turn over.
const RESIDENT: u64 = 12;
const LBNS: u64 = 16;
const FHOS: u64 = 4;

fn fho(i: u64) -> Fho {
    Fho::new(FileHandle(7), i * CHUNK as u64)
}

/// A chunk's wire segments: `CHUNK` bytes cut at arbitrary points (MTU-ish
/// fragments, one-byte runts, or a single slab).
fn chunk_segments(rng: &mut SplitMix64, tag: u8) -> Vec<Segment> {
    let whole = Segment::from_vec((0..CHUNK).map(|i| tag ^ (i as u8)).collect());
    let mut cuts: Vec<usize> = (0..rng.next_below(4))
        .map(|_| 1 + rng.next_below(CHUNK as u64 - 1) as usize)
        .collect();
    cuts.push(CHUNK);
    cuts.sort_unstable();
    cuts.dedup();
    let mut at = 0;
    cuts.into_iter()
        .map(|cut| {
            let seg = whole.slice(at, cut - at);
            at = cut;
            seg
        })
        .collect()
}

/// Fills `cache` with the fixed history both twins share: the dirty FHO
/// chunks, then every LBN in order — so the oldest LBNs are evicted into
/// the ghost tail. `chunks[k]` is key `k`'s segment list and payload
/// length (some chunks carry trailing slack past a short payload).
fn populate(cache: &NetCacheShards, chunks: &[(Vec<Segment>, usize)]) {
    cache.enable_ghost(6);
    for i in 0..FHOS {
        let (segs, len) = &chunks[(LBNS + i) as usize];
        cache
            .insert_fho(fho(i), segs.clone(), *len)
            .expect("dirty set fits");
    }
    for l in 0..LBNS {
        let (segs, len) = &chunks[l as usize];
        cache
            .insert_lbn(Lbn(l), segs.clone(), *len, false)
            .expect("clean chunks evict");
    }
}

/// Substitution written from the public `lookup` plus an explicit clip.
fn reference_substitute(
    buf: &mut NetBuf,
    cache: &NetCacheShards,
    lbn_first: bool,
) -> SubstitutionReport {
    let mut report = SubstitutionReport::default();
    let mut new = Vec::new();
    for seg in buf.take_payload() {
        let stamp = (seg.len() >= KeyStamp::LEN)
            .then(|| KeyStamp::decode(&seg.to_vec()))
            .flatten()
            .filter(KeyStamp::is_keyed);
        let Some(stamp) = stamp else {
            report.passed_through += 1;
            new.push(seg);
            continue;
        };
        let fho_key = stamp.fho.map(CacheKey::Fho);
        let lbn_key = stamp.lbn.map(CacheKey::Lbn);
        let order = if lbn_first {
            [lbn_key, fho_key]
        } else {
            [fho_key, lbn_key]
        };
        match order
            .into_iter()
            .flatten()
            .find_map(|key| cache.lookup(key))
        {
            Some(cached) => {
                report.substituted += 1;
                let mut remaining = seg.len();
                for c in cached {
                    if remaining == 0 {
                        break;
                    }
                    let take = c.len().min(remaining);
                    new.push(c.slice(0, take));
                    remaining -= take;
                }
            }
            None => {
                report.missing += 1;
                new.push(seg);
            }
        }
    }
    buf.replace_payload(new);
    report
}

/// Same view of the same storage (or, for segments that store nothing,
/// the same length of zeros).
fn same_view(a: &Segment, b: &Segment) -> bool {
    let (x, y) = (a.stored(), b.stored());
    let stores = a.same_storage(b) || (a.refcount(), b.refcount()) == (0, 0);
    stores && a.len() == b.len() && (x.as_ptr(), x.len()) == (y.as_ptr(), y.len())
}

fn resident(cache: &NetCacheShards) -> Vec<bool> {
    (0..LBNS)
        .map(|l| cache.contains(Lbn(l).into()))
        .chain((0..FHOS).map(|i| cache.contains(fho(i).into())))
        .collect()
}

fn caches_agree(subject: &NetCacheShards, reference: &NetCacheShards) -> PropResult {
    prop_assert_eq!(subject.stats(), reference.stats(), "cache counters");
    prop_assert_eq!(subject.ghost_hits(), reference.ghost_hits(), "ghost tail");
    prop_assert_eq!(subject.clean_keys(), reference.clean_keys(), "LRU order");
    prop_assert_eq!(resident(subject), resident(reference), "residency");
    Ok(())
}

property! {
    #![cases(64)]

    fn prop_in_place_substitution_matches_the_lookup_and_clip_reference(
        seed in any_u64(),
        shards in ints(1usize..4),
        lbn_first in any_bool(),
        blocks in vec_of((ints(0u8..6), ints(0u64..24), ints(0usize..CHUNK + 1), any_bool(), any_bool()), 1..14),
    ) {
        let key_only = BufPool::stamp_only();
        let mut rng = SplitMix64::new(seed);
        let chunks: Vec<(Vec<Segment>, usize)> = (0..LBNS + FHOS)
            .map(|k| {
                let len = if rng.next_below(4) == 0 { 1 + rng.next_below(CHUNK as u64) as usize } else { CHUNK };
                (chunk_segments(&mut rng, k as u8), len)
            })
            .collect();
        let new_cache = || {
            let c = NetCacheShards::new(BufPool::new(RESIDENT * CHUNK as u64), 0, shards);
            populate(&c, &chunks);
            c.set_resolve_lbn_first(lbn_first);
            c
        };
        let (subject, reference) = (new_cache(), new_cache());
        caches_agree(&subject, &reference)?;

        // One reply: plain data, and placeholders of every stamp shape —
        // resident, evicted (a ghost hit), never inserted, FHO over a
        // stale LBN copy — at full and short-tail lengths, stored whole or
        // key-only (plain data then stores nothing: zeros).
        let (subject_ledger, reference_ledger) = (CopyLedger::new(), CopyLedger::new());
        let mut pkt = NetBuf::new(&subject_ledger);
        let mut twin = NetBuf::new(&reference_ledger);
        for (kind, key, len, full, stored_whole) in blocks {
            let len = if full { CHUNK } else { len.max(KeyStamp::LEN) };
            let stamp = match kind {
                0 => None,
                1 => Some(KeyStamp::new().with_lbn(Lbn(key))),
                2 => Some(KeyStamp::new().with_fho(fho(key % 6))),
                3 => Some(KeyStamp::new().with_fho(fho(key % 6)).with_lbn(Lbn(key))),
                4 => Some(KeyStamp::new().with_lbn(Lbn(1000 + key))),
                _ => Some(KeyStamp::new()), // a stamp with no key passes through
            };
            let seg = match (stored_whole, stamp) {
                (false, Some(stamp)) => key_only.placeholder(&stamp, CHUNK).slice(0, len),
                (false, None) => Segment::zeroed(len),
                (true, _) => {
                    let mut bytes = vec![b'x'; len];
                    if let Some(stamp) = stamp {
                        stamp.encode_into(&mut bytes);
                    }
                    Segment::from_vec(bytes)
                }
            };
            pkt.append_segment(seg.clone());
            twin.append_segment(seg);
        }

        let got = substitute_payload(&mut pkt, &subject);
        let want = reference_substitute(&mut twin, &reference, lbn_first);
        prop_assert_eq!(got, want, "report");
        prop_assert_eq!(pkt.segment_count(), twin.segment_count(), "chain length");
        for (i, (a, b)) in pkt.segments().zip(twin.segments()).enumerate() {
            prop_assert!(same_view(a, b), "segment {}: {:?} vs {:?}", i, a, b);
        }
        prop_assert_eq!(pkt.payload_len(), twin.payload_len());
        prop_assert_eq!(subject_ledger.snapshot(), reference_ledger.snapshot(), "ledger");
        caches_agree(&subject, &reference)?;

        // The promotions must have landed identically: under pressure both
        // twins pick the same victim, eviction after eviction.
        for round in 0..RESIDENT {
            for c in [&subject, &reference] {
                let segs = vec![Segment::from_vec(vec![0xEE; CHUNK])];
                c.insert_lbn(Lbn(5000 + round), segs, CHUNK, false).expect("clean chunks evict");
            }
            caches_agree(&subject, &reference)?;
        }
    }
}

/// Every keyed stamp's keys, FHO first.
fn keys_of(stamp: &KeyStamp) -> impl Iterator<Item = CacheKey> {
    let fho = stamp.fho.map(CacheKey::Fho);
    fho.into_iter().chain(stamp.lbn.map(CacheKey::Lbn))
}

property! {
    #![cases(64)]

    fn prop_batched_resolution_matches_one_resolve_per_stamp(
        seed in any_u64(),
        (four_shards, lbn_first, windowed) in (any_bool(), any_bool(), any_bool()),
        blocks in vec_of((ints(0u8..6), ints(0u64..24), ints(1usize..CHUNK + 1)), 1..40),
        (dangle, at, how) in (any_bool(), ints(0usize..40), ints(0u8..3)),
    ) {
        let shards = if four_shards { 4 } else { 1 };
        let mut rng = SplitMix64::new(seed);
        let chunks: Vec<(Vec<Segment>, usize)> = (0..LBNS + FHOS)
            .map(|k| {
                let len = if rng.next_below(4) == 0 { 1 + rng.next_below(CHUNK as u64) as usize } else { CHUNK };
                (chunk_segments(&mut rng, k as u8), len)
            })
            .collect();
        let new_cache = || {
            let c = NetCacheShards::new(BufPool::new(RESIDENT * CHUNK as u64), 0, shards);
            populate(&c, &chunks);
            c.set_resolve_lbn_first(lbn_first);
            c
        };
        let (subject, reference) = (new_cache(), new_cache());

        // One reply of whole cached blocks, each carrying `limit` bytes —
        // down to a single byte, far below the stamp's own length. The
        // younger half of the LBNs and every FHO chunk are resident, so
        // these shapes all resolve: plain data; LBN only; FHO only; both
        // keys with the FHO half present or never written; a resident FHO
        // over an evicted LBN (a ghost hit when the ablation probes the
        // LBN first); an unkeyed stamp. Half the replies then get one
        // stamp that cannot resolve, somewhere.
        let resident_lbn = |key: u64| Lbn(LBNS / 2 + key % (LBNS / 2));
        let mut stamps: Vec<(Option<KeyStamp>, usize)> = blocks
            .into_iter()
            .map(|(kind, key, limit)| {
                let stamp = match kind {
                    0 => None,
                    1 => Some(KeyStamp::new().with_lbn(resident_lbn(key))),
                    2 => Some(KeyStamp::new().with_fho(fho(key % FHOS))),
                    3 => Some(KeyStamp::new().with_fho(fho(key % 6)).with_lbn(resident_lbn(key))),
                    4 => Some(KeyStamp::new().with_fho(fho(key % FHOS)).with_lbn(Lbn(key % (LBNS / 2)))),
                    _ => Some(KeyStamp::new()), // a stamp with no key passes through
                };
                (stamp, limit)
            })
            .collect();
        if dangle {
            let at = at % stamps.len();
            stamps[at].0 = Some(match how {
                0 => KeyStamp::new().with_lbn(Lbn(1000)),
                1 => KeyStamp::new().with_fho(fho(FHOS + 1)),
                _ => KeyStamp::new().with_fho(fho(FHOS)).with_lbn(Lbn(0)),
            });
        }
        let reply: Vec<(Segment, usize, Option<KeyStamp>)> = stamps
            .into_iter()
            .map(|(stamp, limit)| {
                let mut bytes = vec![b'x'; CHUNK];
                if let Some(stamp) = stamp {
                    stamp.encode_into(&mut bytes);
                }
                (Segment::from_vec(bytes), limit, stamp.filter(KeyStamp::is_keyed))
            })
            .collect();
        let dangling = reply.iter().position(|(_, _, stamp)| {
            stamp.is_some_and(|s| !keys_of(&s).any(|k| reference.contains(k)))
        });

        // Both sides resolve as the same lane's same operation, or bare.
        let in_window = |f: &mut dyn FnMut()| {
            let _w = windowed.then(|| sim::epoch::enter_window(sim::epoch::stamp_base(5, 2)));
            f()
        };
        let mut got = vec![Segment::from_vec(vec![0xAB])]; // appended to, not cleared
        let mut outcome = Ok(SubstitutionReport::default());
        in_window(&mut || outcome = subject.resolve_all(reply.iter().map(|(seg, limit, _)| (seg, *limit)), true, &mut got));

        prop_assert!(dangle || dangling.is_none(), "the resolvable shapes resolve");
        if let Some(index) = dangling {
            prop_assert_eq!(outcome, Err(index), "the first dangling stamp");
            prop_assert_eq!(got.len(), 1, "nothing appended");
            caches_agree(&subject, &reference)?; // the reference never ran
        } else {
            let mut want = vec![Segment::from_vec(vec![0xAB])];
            let mut report = SubstitutionReport::default();
            in_window(&mut || {
                for (seg, limit, stamp) in &reply {
                    match stamp {
                        Some(stamp) => {
                            reference.resolve_into(stamp, *limit, &mut want).expect("not dangling");
                            report.substituted += 1;
                        }
                        None => {
                            report.passed_through += 1;
                            want.push(seg.slice(0, *limit));
                        }
                    }
                }
            });
            prop_assert_eq!(outcome, Ok(report), "report");
            prop_assert_eq!(got.len(), want.len(), "chain length");
            for (i, (a, b)) in got.iter().zip(&want).enumerate().skip(1) {
                prop_assert!(same_view(a, b), "segment {}: {:?} vs {:?}", i, a, b);
            }
            caches_agree(&subject, &reference)?;
        }

        // The promotions must have landed identically (or not at all):
        // under pressure both twins pick the same victim every time.
        for c in [&subject, &reference] {
            c.advance_clock_past(sim::epoch::stamp_base(6, 0));
        }
        for round in 0..RESIDENT {
            for c in [&subject, &reference] {
                let segs = vec![Segment::from_vec(vec![0xEE; CHUNK])];
                c.insert_lbn(Lbn(5000 + round), segs, CHUNK, false).expect("clean chunks evict");
            }
            caches_agree(&subject, &reference)?;
        }
    }
}

property! {
    #![cases(64)]

    fn prop_key_only_placeholders_read_as_the_whole_blocks_they_replace(
        blocks in vec_of((ints(0u8..4), ints(0u64..24), ints(1usize..CHUNK + 1)), 1..12),
        (substitute, shards) in (any_bool(), ints(1usize..4)),
    ) {
        let key_only = BufPool::stamp_only();
        let cache = NetCacheShards::new(BufPool::new(4 * LBNS * CHUNK as u64), 0, shards);
        for l in 0..LBNS {
            let segs = vec![Segment::from_vec(vec![l as u8 ^ 0x5A; CHUNK])];
            cache.insert_lbn(Lbn(l), segs, CHUNK, false).expect("fits");
        }
        // A reply of placeholders, each clipped to what the reply carries
        // of it: resident, never inserted, unkeyed, both keys.
        let ledger = CopyLedger::new();
        let (mut keyed, mut whole) = (NetBuf::new(&ledger), NetBuf::new(&ledger));
        for (kind, key, limit) in blocks {
            let stamp = match kind {
                0 => KeyStamp::new().with_lbn(Lbn(key % LBNS)),
                1 => KeyStamp::new().with_lbn(Lbn(1000 + key)),
                2 => KeyStamp::new(),
                _ => KeyStamp::new().with_fho(fho(key)).with_lbn(Lbn(key % LBNS)),
            };
            let mut bytes = vec![0u8; CHUNK];
            stamp.encode_into(&mut bytes);
            let ph = key_only.placeholder(&stamp, CHUNK);
            prop_assert_eq!(ph.stored_len(), KeyStamp::LEN, "a key, not a page");
            keyed.append_segment(ph.slice(0, limit));
            whole.append_segment(Segment::from_vec(bytes).slice(0, limit));
        }
        for buf in [&mut keyed, &mut whole] {
            buf.push_header(&[0x45; 28]);
        }
        if substitute {
            let got = substitute_payload(&mut keyed, &cache);
            prop_assert_eq!(got, substitute_payload(&mut whole, &cache), "report");
        }
        prop_assert_eq!(keyed.to_wire(), whole.to_wire(), "wire bytes");
        prop_assert_eq!(keyed.payload_len(), whole.payload_len());
        let n = keyed.payload_len();
        prop_assert_eq!(keyed.peek(n / 3, n - n / 3), whole.peek(n / 3, n - n / 3), "peek");
        prop_assert_eq!(keyed.compute_csum(), whole.compute_csum(), "checksum");
        prop_assert_eq!(keyed.copy_payload_to_vec(), whole.copy_payload_to_vec(), "client copy");
    }
}

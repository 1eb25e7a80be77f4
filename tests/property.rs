//! Property-based tests of the cross-crate invariants: the full NFS rig
//! against an in-memory file model, the network-centric cache against a
//! value model, and substitution against hand-computed expectations.

use check::gen::*;
use check::{prop_assert, prop_assert_eq, property};

use ncache_repro::ncache::cache::NetCache;
use ncache_repro::ncache::shards::NetCacheShards;
use ncache_repro::ncache::substitute::substitute_payload;
use ncache_repro::netbuf::key::{Fho, FileHandle, KeyStamp, Lbn};
use ncache_repro::netbuf::{BufPool, CopyLedger, NetBuf, Segment};
use ncache_repro::proto::nfs::NFS_OK;
use ncache_repro::servers::ServerMode;
use ncache_repro::testbed::nfs_rig::{NfsRig, NfsRigParams};

/// Random reads/writes through the whole pass-through server must agree
/// with a plain in-memory byte model, in both correct builds.
#[derive(Clone, Debug)]
enum FileOp {
    Write { block: u8, fill: u8 },
    Read { block: u8 },
    Flush,
}

fn file_op() -> impl Gen<Value = FileOp> {
    check::one_of![
        (ints(0u8..32), any_u8()).map(|(block, fill)| FileOp::Write { block, fill }),
        ints(0u8..32).map(|block| FileOp::Read { block }),
        just(FileOp::Flush),
    ]
}

property! {
    #![cases(12)]

    fn prop_rig_agrees_with_byte_model(
        ops in vec_of(file_op(), 1..60),
        ncache_mode in any_bool(),
    ) {
        let mode = if ncache_mode { ServerMode::NCache } else { ServerMode::Original };
        let mut rig = NfsRig::new(mode, NfsRigParams::default());
        let fh = rig.create_file("model", 32 * 4096);
        let mut model = NfsRig::pattern(fh, 0, 32 * 4096);
        for op in ops {
            match op {
                FileOp::Write { block, fill } => {
                    let data = vec![fill; 4096];
                    let at = usize::from(block) * 4096;
                    model[at..at + 4096].copy_from_slice(&data);
                    let reply = rig.write(fh, at as u32, &data);
                    prop_assert_eq!(reply.status, NFS_OK);
                }
                FileOp::Read { block } => {
                    let at = usize::from(block) * 4096;
                    let got = rig.read(fh, at as u32, 4096);
                    prop_assert_eq!(&got[..], &model[at..at + 4096], "block {}", block);
                }
                FileOp::Flush => {
                    rig.server_mut().fs_mut().sync().expect("sync");
                }
            }
        }
        // Final sweep: the whole file agrees.
        let whole = rig.read(fh, 0, 32 * 4096);
        prop_assert_eq!(whole, model);
    }

    /// The network-centric cache is a value store: every lookup hit returns
    /// the newest value inserted under that key, across inserts, remaps and
    /// invalidations, regardless of eviction pressure.
    fn prop_netcache_is_a_correct_value_store(
        ops in vec_of((ints(0u8..4), ints(0u64..12), any_u8()), 1..150),
        capacity_chunks in ints(3u64..20),
    ) {
        let mut cache = NetCache::new(
            BufPool::new(capacity_chunks * (4096 + 64)),
            64,
        );
        use std::collections::HashMap;
        let mut lbn_model: HashMap<u64, u8> = HashMap::new();
        let mut fho_model: HashMap<u64, u8> = HashMap::new();
        let fho_of = |k: u64| Fho::new(FileHandle(1), k * 4096);
        for (kind, key, fill) in ops {
            match kind {
                0 => {
                    // insert LBN (clean)
                    if cache
                        .insert_lbn(Lbn(key), vec![Segment::from_vec(vec![fill; 4096])], 4096, false)
                        .is_ok()
                    {
                        lbn_model.insert(key, fill);
                    }
                }
                1 => {
                    // insert FHO (dirty)
                    if cache
                        .insert_fho(fho_of(key), vec![Segment::from_vec(vec![fill; 4096])], 4096)
                        .is_ok()
                    {
                        fho_model.insert(key, fill);
                    }
                }
                2 => {
                    // remap fho -> lbn(key)
                    if let Some(segs) = cache.remap(fho_of(key), Lbn(key)) {
                        let expect = fho_model.remove(&key).expect("model had the fho");
                        prop_assert_eq!(segs[0].as_slice()[0], expect);
                        lbn_model.insert(key, expect);
                        cache.mark_clean(Lbn(key).into());
                    } else {
                        prop_assert!(!fho_model.contains_key(&key));
                    }
                }
                _ => {
                    // lookups: a hit must return the model's value; a miss
                    // is only legal if eviction could have removed it (it
                    // can for clean entries, never for dirty FHO entries).
                    if let Some(segs) = cache.lookup(Lbn(key).into()) {
                        prop_assert_eq!(segs[0].as_slice()[0], lbn_model[&key]);
                    }
                    match cache.lookup(fho_of(key).into()) {
                        Some(segs) => {
                            prop_assert_eq!(segs[0].as_slice()[0], fho_model[&key]);
                        }
                        None => {
                            // Dirty FHO chunks are never evicted (§3.4).
                            prop_assert!(
                                !fho_model.contains_key(&key),
                                "dirty FHO entry {} vanished", key
                            );
                        }
                    }
                }
            }
            prop_assert_eq!(cache.check_invariants(), Ok(()), "recency heaps");
        }
    }

    /// Substitution, for arbitrary mixes of plain and stamped segments:
    /// stamped segments resolve to the cached bytes clipped to the
    /// placeholder length; plain segments pass through untouched.
    fn prop_substitution_matches_reference(
        blocks in vec_of((any_bool(), ints(0u64..8), ints(1usize..4096), any_u8()), 1..12),
    ) {
        let ledger = CopyLedger::new();
        let cache = NetCacheShards::new(BufPool::new(1 << 22), 0, 2);
        for lbn in 0..8u64 {
            cache
                .insert_lbn(Lbn(lbn), vec![Segment::from_vec(vec![lbn as u8 + 100; 4096])], 4096, false)
                .expect("fits");
        }
        let mut pkt = NetBuf::new(&ledger);
        let mut expect: Vec<u8> = Vec::new();
        for (stamped, lbn, len, fill) in blocks {
            let len = len.max(KeyStamp::LEN);
            if stamped {
                let mut junk = vec![0u8; len];
                KeyStamp::new().with_lbn(Lbn(lbn)).encode_into(&mut junk);
                pkt.append_segment(Segment::from_vec(junk));
                expect.extend(std::iter::repeat_n(lbn as u8 + 100, len));
            } else {
                // Plain data must not look like a stamp.
                let mut data = vec![fill; len];
                data[0] = b'X';
                pkt.append_segment(Segment::from_vec(data.clone()));
                expect.extend_from_slice(&data);
            }
        }
        let report = substitute_payload(&mut pkt, &cache);
        prop_assert_eq!(report.missing, 0);
        prop_assert_eq!(pkt.copy_payload_to_vec(), expect);
    }
}

property! {
    #![cases(10)]

    /// Fault recovery end to end, for arbitrary seeded fault plans: every
    /// read either completes with exactly the file's bytes or fails
    /// cleanly — recovery never surfaces junk-payload placeholders — and a
    /// zero fault rate means zero recovery activity.
    fn prop_faulted_reads_never_surface_junk(
        seed in ints(0u64..1_000_000),
        zero_rates in any_bool(),
        rates in vec_of(ints(0u32..100_000), 7..8),
        blocks in vec_of(ints(0u32..16), 1..24),
    ) {
        use ncache_repro::sim::FaultSpec;
        use ncache_repro::testbed::nfs_rig::FaultCounters;
        let ppm = f64::from(1_000_000u32);
        let rate = |i: usize| {
            if zero_rates { 0.0 } else { f64::from(rates[i]) / ppm }
        };
        let spec = FaultSpec {
            loss: rate(0),
            duplicate: rate(1),
            reorder: rate(2),
            delay: rate(3),
            truncate: rate(4),
            corrupt: rate(5),
            io: rate(6),
        };
        let mut rig = NfsRig::new_faulted(
            ServerMode::NCache,
            NfsRigParams::default(),
            &spec,
            seed,
        );
        let fh = rig.create_file("f", 64 << 10);
        let mut completed = 0u32;
        for block in blocks {
            if let Some((hdr, data)) = rig.try_read(fh, block * 4096, 4096) {
                prop_assert_eq!(hdr.status, NFS_OK);
                prop_assert_eq!(
                    &data[..],
                    &NfsRig::pattern(fh, u64::from(block) * 4096, 4096)[..],
                    "completed read of block {} returned wrong bytes", block
                );
                completed += 1;
            }
        }
        if spec.is_zero() {
            prop_assert_eq!(rig.fault_counters(), FaultCounters::default());
            prop_assert_eq!(rig.server_mut().fs_mut().store_mut().stats().retries, 0);
            prop_assert_eq!(rig.server_mut().stats().drc_hits, 0);
            prop_assert!(completed > 0, "a clean link completes every read");
        }
    }
}

/// One way to build a pooled segment: `len` bytes viewed, of which the
/// constructor writes `written` bytes of `fill`.
#[derive(Clone, Copy, Debug)]
enum SlabBuild {
    /// `seg_from_slice` of `len` bytes.
    FromSlice { len: usize, fill: u8 },
    /// `seg_filled` writing a prefix of its zeroed buffer.
    Filled { len: usize, written: usize, fill: u8 },
    /// `seg_written` writing the whole view (a Data-In payload).
    Whole { len: usize, fill: u8 },
    /// `seg_written` writing only a prefix (a placeholder's key stamp).
    Prefix { len: usize, written: usize, fill: u8 },
}

impl SlabBuild {
    fn run(self, pool: &BufPool) -> Segment {
        match self {
            SlabBuild::FromSlice { len, fill } => pool.seg_from_slice(&vec![fill; len]),
            SlabBuild::Filled { len, written, fill } => {
                pool.seg_filled(len, |b| b[..written].fill(fill))
            }
            SlabBuild::Whole { len, fill } => pool.seg_written(len, |w| w.put(&vec![fill; len])),
            SlabBuild::Prefix { len, written, fill } => {
                pool.seg_written(len, |w| w.put(&vec![fill; written]))
            }
        }
    }
}

fn slab_build() -> impl Gen<Value = SlabBuild> {
    // Neither 0x00 nor the 0xFF the slabs are pre-dirtied with.
    let fill = || ints(1u8..0xFF);
    let sized = || (ints(1usize..4097), ints(0usize..4097)).map(|(len, w)| (len, w.min(len)));
    check::one_of![
        (ints(0usize..4097), fill()).map(|(len, fill)| SlabBuild::FromSlice { len, fill }),
        (sized(), fill()).map(|((len, written), fill)| SlabBuild::Filled { len, written, fill }),
        (ints(1usize..4097), fill()).map(|(len, fill)| SlabBuild::Whole { len, fill }),
        (sized(), fill()).map(|((len, written), fill)| SlabBuild::Prefix { len, written, fill }),
    ]
}

property! {
    #![cases(16)]

    /// Slab recycling must never leak one segment's bytes into the next: a
    /// pooled buffer whose fill closure writes only a prefix reads as zero
    /// everywhere else, no matter what previously lived in the slab.
    fn prop_recycled_slabs_never_leak_stale_bytes(
        rounds in vec_of((ints(1usize..4096), ints(0usize..4096), any_u8()), 1..40),
    ) {
        let pool = BufPool::slab_only();
        for (len, filled, fill) in rounds {
            let filled = filled.min(len);
            // Dirty a slab end to end, then drop it back to the free list.
            drop(pool.seg_filled(4096, |b| b.fill(fill.wrapping_add(1))));
            let seg = pool.seg_filled(len, |b| b[..filled].fill(fill));
            let bytes = seg.as_slice();
            prop_assert_eq!(bytes.len(), len);
            prop_assert!(bytes[..filled].iter().all(|&b| b == fill));
            prop_assert!(
                bytes[filled..].iter().all(|&b| b == 0),
                "stale bytes leaked through the free list"
            );
            drop(seg);
            prop_assert_eq!(pool.check_invariants(), Ok(()), "free list");
        }
    }

    /// The same, with two threads churning one pool: a slab is scrubbed
    /// outside the pool's mutex (between the capacity check and the
    /// push), so a take on one thread can interleave with a recycle on
    /// the other — and must still never see a byte the other left behind.
    /// A barrier starts every round together, so the threads really
    /// overlap on the free list.
    fn prop_recycled_slabs_never_leak_stale_bytes_across_threads(
        rounds in vec_of((ints(1usize..4096), ints(0usize..4096), any_u8()), 1..24),
    ) {
        let pool = BufPool::slab_only();
        let start = std::sync::Barrier::new(2);
        let leaks: Vec<usize> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2u8)
                .map(|t| {
                    let (pool, start, rounds) = (&pool, &start, &rounds);
                    s.spawn(move || {
                        let mut leaks = 0;
                        for &(len, filled, fill) in rounds {
                            let (filled, fill) = (filled.min(len), fill ^ (t << 7));
                            start.wait();
                            for _ in 0..8 {
                                drop(pool.seg_filled(4096, |b| b.fill(fill.wrapping_add(1))));
                                let seg = pool.seg_filled(len, |b| b[..filled].fill(fill));
                                let bytes = seg.as_slice();
                                let clean = bytes.len() == len
                                    && bytes[..filled].iter().all(|&b| b == fill)
                                    && bytes[filled..].iter().all(|&b| b == 0);
                                leaks += usize::from(!clean);
                            }
                        }
                        leaks
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("worker panicked"))
                .collect()
        });
        prop_assert_eq!(leaks, vec![0, 0], "stale bytes leaked through the free list");
        prop_assert_eq!(pool.check_invariants(), Ok(()), "free list");
        let stats = pool.slab_stats();
        prop_assert_eq!(stats.allocs + stats.recycles, rounds.len() as u64 * 2 * 8 * 2);
        prop_assert_eq!(stats.returns, stats.allocs + stats.recycles, "every slab came home");
    }

    /// The dirty-extent bookkeeping, constructor against constructor: any
    /// interleaving of the four ways to build on a slab — over slabs whose
    /// previous owner was one of the others, or a block of `0xFF` end to
    /// end — yields views byte-identical to the same build on a slab
    /// fresh from the allocator.
    fn prop_every_constructor_builds_on_recycled_slabs_as_on_fresh_ones(
        steps in vec_of((slab_build(), any_bool()), 1..60),
    ) {
        let pool = BufPool::slab_only();
        for (build, redirty) in steps {
            if redirty {
                drop(pool.seg_from_slice(&[0xFF; 4096]));
            }
            prop_assert!(
                build.run(&pool) == build.run(&BufPool::slab_only()),
                "{:?} on a recycled slab differs from a fresh one", build
            );
            prop_assert_eq!(pool.check_invariants(), Ok(()), "free list after {:?}", build);
        }
        let stats = pool.slab_stats();
        prop_assert_eq!(stats.allocs, 1, "one slab served every build");
    }

    /// The same with two threads building on one pool, so a slab's extent
    /// crosses threads with it. A barrier starts every step together.
    fn prop_every_constructor_builds_on_recycled_slabs_as_on_fresh_ones_across_threads(
        steps in vec_of((slab_build(), any_bool()), 1..24),
    ) {
        let pool = BufPool::slab_only();
        let start = std::sync::Barrier::new(2);
        let leaks: Vec<usize> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let (pool, start, steps) = (&pool, &start, &steps);
                    s.spawn(move || {
                        let mut leaks = 0;
                        for &(build, redirty) in steps {
                            let want = build.run(&BufPool::slab_only());
                            start.wait();
                            for _ in 0..8 {
                                if redirty {
                                    drop(pool.seg_from_slice(&[0xFF; 4096]));
                                }
                                leaks += usize::from(build.run(pool) != want);
                            }
                        }
                        leaks
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("worker panicked"))
                .collect()
        });
        prop_assert_eq!(leaks, vec![0, 0], "a recycled slab differed from a fresh one");
        prop_assert_eq!(pool.check_invariants(), Ok(()), "free list");
        let stats = pool.slab_stats();
        prop_assert_eq!(stats.returns, stats.allocs + stats.recycles, "every slab came home");
    }

    /// The last two clones of one pooled segment, dropped on two threads
    /// at once: whichever drop sees the other gone files the store, and if
    /// both still see each other the store's own drop sends the slab home.
    /// Either way the slab comes home exactly once.
    fn prop_racing_final_drops_return_a_slab_exactly_once(
        rounds in ints(1usize..64),
        len in ints(1usize..4097),
    ) {
        let pool = BufPool::slab_only();
        let start = std::sync::Barrier::new(2);
        for round in 0..rounds {
            let seg = pool.seg_written(len, |w| w.put(&vec![round as u8; len]));
            let twin = seg.clone();
            std::thread::scope(|s| {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    drop(twin);
                });
                start.wait();
                drop(seg);
            });
            let stats = pool.slab_stats();
            prop_assert_eq!((stats.returns, stats.free), (round as u64 + 1, 1), "round {}", round);
            prop_assert_eq!(stats.allocs, 1, "every round reused the one slab");
            prop_assert_eq!(pool.check_invariants(), Ok(()), "free list");
        }
    }

    /// Pooling is invisible to copy accounting: the same appends through
    /// the heap path and the pooled path charge byte-identical ledgers and
    /// carry byte-identical payloads.
    fn prop_ledgers_reconcile_with_pooling_on_and_off(
        chunks in vec_of(vec_of(any_u8(), 1..600), 1..20),
    ) {
        let pool = BufPool::slab_only();
        let plain_ledger = CopyLedger::new();
        let pooled_ledger = CopyLedger::new();
        let mut plain = NetBuf::new(&plain_ledger);
        let mut pooled = NetBuf::new(&pooled_ledger);
        for chunk in &chunks {
            plain.append_bytes(chunk);
            pooled.append_pooled(&pool, chunk);
        }
        prop_assert_eq!(plain.payload_len(), pooled.payload_len());
        prop_assert_eq!(plain.copy_payload_to_vec(), pooled.copy_payload_to_vec());
        prop_assert_eq!(plain_ledger.snapshot(), pooled_ledger.snapshot());
    }
}

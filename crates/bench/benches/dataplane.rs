//! Host-performance micro-benchmarks of the core data-plane operations —
//! the operations whose counts drive the simulated CPU model. These time
//! the *library*, not the simulated hardware: a regression here means the
//! Rust implementation itself got slower. Timings land in
//! `BENCH_dataplane.json` for trajectory tracking.

use check::bench::Harness;
use ncache::cache::NetCache;
use ncache::shards::NetCacheShards;
use ncache::substitute::substitute_payload;
use ncache::{NcacheConfig, NcacheModule};
use netbuf::key::{Fho, FileHandle, KeyStamp, Lbn};
use netbuf::{BufPool, CopyLedger, NetBuf, Segment};

const BLOCK: usize = 4096;

fn block_segs(tag: u8) -> Vec<Segment> {
    vec![Segment::from_vec(vec![tag; BLOCK])]
}

fn bench_cache_ops(h: &mut Harness) {
    let mut g = h.group("netcache");
    // Payload fabrication (a 4 KiB alloc + memset per block) and LRU
    // eviction used to run *inside* the measured routine, burying the
    // insert itself: segments are now built in setup and the capacity
    // holds the whole batch, so the routine times exactly 256 inserts
    // of ready-made segments into an unpressured cache.
    g.bench_batched(
        "insert_lbn",
        || {
            let segs: Vec<(Lbn, Vec<Segment>)> = (0..256u64)
                .map(|i| (Lbn(i), block_segs(i as u8)))
                .collect();
            (NetCache::new(BufPool::new(1 << 30), 128), segs)
        },
        |(mut cache, segs)| {
            for (lbn, s) in segs {
                cache.insert_lbn(lbn, s, BLOCK, false).expect("fits");
            }
            cache
        },
    );
    {
        let mut cache = NetCache::new(BufPool::new(1 << 30), 128);
        for i in 0..1024u64 {
            cache
                .insert_lbn(Lbn(i), block_segs(i as u8), BLOCK, false)
                .expect("fits");
        }
        let mut i = 0u64;
        g.bench("lookup_hit", move || {
            i = (i + 1) % 1024;
            cache.lookup(Lbn(i).into()).is_some()
        });
    }
    // The decomposed read path under contention: N threads hammer
    // lookups on a warm sharded cache, each inside an epoch window —
    // exactly how the lane-parallel engine runs it (recency stamps come
    // from thread-local windows, not the shared clock, so a hit touches
    // only its shard's read lock and its entry's atomic). One routine
    // invocation is `threads x 4096` hits. On a multi-core host the
    // per-shard read locks let contended8 finish in far less than 4x
    // contended2's time; on a single-CPU host the threads time-slice
    // and the ratio approaches the 4x work ratio — the number tracked
    // here is the trajectory, not an absolute scaling claim.
    for threads in [2usize, 8] {
        let cache = NetCacheShards::new(BufPool::new(1 << 30), 128, 8);
        for i in 0..1024u64 {
            cache
                .insert_lbn(Lbn(i), block_segs(i as u8), BLOCK, false)
                .expect("fits");
        }
        g.bench(&format!("lookup_hit_contended{threads}"), move || {
            std::thread::scope(|s| {
                for t in 0..threads as u64 {
                    let cache = &cache;
                    s.spawn(move || {
                        let _w = sim::epoch::enter_window(
                            sim::epoch::stamp_base(1, t),
                        );
                        let mut hits = 0u64;
                        for k in 0..4096u64 {
                            let i = k.wrapping_mul(2654435761).wrapping_add(t * 7) % 1024;
                            hits += u64::from(cache.lookup(Lbn(i).into()).is_some());
                        }
                        hits
                    });
                }
            });
        });
    }
    g.bench_batched(
        "remap",
        || {
            let mut cache = NetCache::new(BufPool::new(1 << 30), 128);
            for i in 0..128u64 {
                cache
                    .insert_fho(Fho::new(FileHandle(1), i * BLOCK as u64), block_segs(1), BLOCK)
                    .expect("fits");
            }
            cache
        },
        |mut cache| {
            for i in 0..128u64 {
                cache.remap(Fho::new(FileHandle(1), i * BLOCK as u64), Lbn(i));
            }
            cache
        },
    );
}

fn bench_substitution(h: &mut Harness) {
    let mut g = h.group("substitution");
    g.throughput_bytes(8 * BLOCK as u64);
    let cache = NetCacheShards::new(BufPool::new(1 << 30), 128, 4);
    for i in 0..8u64 {
        cache
            .insert_lbn(Lbn(i), block_segs(i as u8), BLOCK, false)
            .expect("fits");
    }
    let ledger = CopyLedger::new();
    g.bench_batched(
        "substitute_8_blocks",
        || {
            let mut pkt = NetBuf::new(&ledger);
            for i in 0..8u64 {
                let mut junk = vec![0u8; BLOCK];
                KeyStamp::new().with_lbn(Lbn(i)).encode_into(&mut junk);
                pkt.append_segment(Segment::from_vec(junk));
            }
            pkt
        },
        |mut pkt| substitute_payload(&mut pkt, &cache),
    );
}

fn bench_checksum(h: &mut Harness) {
    let mut g = h.group("checksum");
    g.throughput_bytes(32 * 1024);
    {
        let ledger = CopyLedger::new();
        let mut pkt = NetBuf::new(&ledger);
        pkt.append_segment(Segment::from_vec(vec![0xA5; 32 << 10]));
        g.bench("compute_32k", move || pkt.compute_csum());
    }
    {
        // The vectorized one's-complement sum alone (u64 lanes, 4-way
        // unroll), without the NetBuf segment walk around it.
        let data = vec![0xA5u8; 32 << 10];
        g.bench("compute_32k_u64", move || proto::csum::sum_words(&data));
    }
    {
        let ledger = CopyLedger::new();
        let mut pkt = NetBuf::new(&ledger);
        pkt.append_segment(Segment::from_vec(vec![0xA5; 32 << 10]));
        g.bench("inherit", move || pkt.inherit_csum());
    }
}

fn bench_module_hooks(h: &mut Harness) {
    let mut g = h.group("module_hooks");
    let ledger = CopyLedger::new();
    g.bench_batched(
        "on_data_in",
        || NcacheModule::new(NcacheConfig::with_capacity(1 << 30), &ledger),
        |mut m| {
            for i in 0..128u64 {
                m.on_data_in(Lbn(i), block_segs(i as u8), BLOCK).expect("fits");
            }
            m
        },
    );
}

fn main() {
    let mut h = Harness::new("dataplane");
    bench_cache_ops(&mut h);
    bench_substitution(&mut h);
    bench_checksum(&mut h);
    bench_module_hooks(&mut h);
    h.finish();
}

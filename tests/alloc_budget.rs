//! Heap allocations per request, pinned exactly.
//!
//! The paper's bargain is per-byte work traded for per-packet pointer
//! surgery, so the per-packet cost has to stay small on the host too. One
//! warmed request through `*_request → stack::deliver → handle_message →
//! parse_*_reply` (the rigs' `read`/`write`/`getattr`/`get` are exactly
//! that chain) makes a deterministic number of heap allocations on a
//! single thread; this binary counts them with its own global allocator
//! and pins the numbers. The timing engine is pinned the same way, over a
//! rig whose requests allocate nothing. It holds a single `#[test]` so no
//! other test thread allocates while a request is being counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ncache_repro::servers::ServerMode;
use ncache_repro::sim::costs::CostModel;
use ncache_repro::testbed::khttpd_rig::{KhttpdRig, KhttpdRigParams};
use ncache_repro::testbed::nfs_rig::{NfsRig, NfsRigParams};
use ncache_repro::testbed::openloop::{run_open_loop, OpenLoopOptions};
use ncache_repro::testbed::runner::{DriverOp, RigDriver};
use ncache_repro::testbed::sessions::{run_sessions, SessionsOptions};
use ncache_repro::testbed::timing::{Observation, Transport};

/// The system allocator with a call counter in front of it.
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's layout obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` is the
        // caller's obligation and passes through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocator calls (`alloc` + `alloc_zeroed` + `realloc`) made by `f`.
fn allocs<T>(f: impl FnOnce() -> T) -> u64 {
    let before = CALLS.load(Ordering::Relaxed);
    let out = f();
    let n = CALLS.load(Ordering::Relaxed) - before;
    drop(out);
    n
}

const READ: u32 = 32 << 10;

/// A rig with a warmed 1 MiB file: every block resident in the buffer
/// cache (and, under NCache, its chunk in the network-centric cache).
fn warmed_nfs(mode: ServerMode) -> (NfsRig, u64) {
    let mut rig = NfsRig::new(mode, NfsRigParams::default());
    let fh = rig.create_file("f", 1 << 20);
    rig.getattr(fh);
    for off in (0..1 << 20).step_by(READ as usize) {
        rig.read(fh, off, READ);
    }
    (rig, fh)
}

/// The all-hit 32 KiB READ of `nfs_hit`, one request.
fn read_allocs(mode: ServerMode) -> u64 {
    let (mut rig, fh) = warmed_nfs(mode);
    let want = NfsRig::pattern(fh, u64::from(READ), READ as usize);
    let mut got = Vec::new();
    let n = allocs(|| got = rig.read(fh, READ, READ));
    if mode != ServerMode::Baseline {
        assert_eq!(
            got, want,
            "{mode}: the counted request returned the file's bytes"
        );
    }
    // The count repeats to the digit.
    assert_eq!(allocs(|| rig.read(fh, 2 * READ, READ)), n, "{mode}");
    n
}

const BLOCK: u32 = 4096;

/// A rig whose caches are small beside the sparse file it creates: 64
/// blocks of buffer cache, 128 chunks of network-centric cache, no
/// read-ahead, so every READ of a block not read before misses both.
fn cold_nfs(mode: ServerMode) -> (NfsRig, u64) {
    let params = NfsRigParams {
        fs_cache_blocks: 64,
        ncache_bytes: 128 * u64::from(BLOCK),
        read_ahead_blocks: 0,
        ..NfsRigParams::default()
    };
    let mut rig = NfsRig::new(mode, params);
    let fh = rig.create_sparse_file("cold", 2048 * u64::from(BLOCK));
    (rig, fh)
}

/// `reads` cold 4 KiB READs in steady state: every block misses the buffer
/// cache *and* the network-centric cache (the file is 16x both), so each
/// request walks initiator -> target -> Data-In -> `on_data_in`, and every
/// insert evicts — the per-block shape of `nfs_miss` (Baseline has no
/// network-centric cache and ships junk, but misses the same). Counted as
/// a batch because the caches' recency heaps grow or compact every few
/// inserts, not every insert; the batch total repeats to the digit.
fn miss_read_allocs(mode: ServerMode, reads: u32) -> u64 {
    let (mut rig, fh) = cold_nfs(mode);
    // Several passes over the caches' capacity: both are evicting, and
    // the placeholder blocks they drop are coming back as slabs.
    for blk in 0..700 {
        rig.read(fh, blk * BLOCK, BLOCK);
    }
    let got = rig.read(fh, 700 * BLOCK, BLOCK);
    if mode != ServerMode::Baseline {
        assert_eq!(
            got,
            rig.expected_sparse(fh, 700 * u64::from(BLOCK), BLOCK as usize),
            "a steady-state miss returns the volume's bytes"
        );
    }
    let pools = |rig: &mut NfsRig| {
        let initiator = rig.server_mut().fs_mut().store_mut().pool_stats();
        (initiator, rig.target().borrow().pool_stats())
    };
    let (initiator, target) = pools(&mut rig);
    let n = allocs(|| {
        for blk in 701..701 + reads {
            rig.read(fh, blk * BLOCK, BLOCK);
        }
    });
    // No missed block takes fresh storage from a pool either: every
    // Data-In payload of the batch rode a slab an evicted one had
    // returned to the target. The initiator's slabs are not touched at
    // all: NCache placeholders ride the module's list of stamp-sized
    // stores, and the junk blocks the Baseline initiator hands up store
    // nothing.
    let (initiator_after, target_after) = pools(&mut rig);
    assert_eq!(
        (initiator_after.allocs, target_after.allocs),
        (initiator.allocs, target.allocs),
        "{mode}: a steady-state miss takes no fresh slab"
    );
    assert!(
        target_after.recycles - target.recycles >= u64::from(reads),
        "{mode}"
    );
    assert_eq!(initiator_after.recycles, initiator.recycles, "{mode}");
    n
}

/// One steady-state 32 KiB READ that misses both caches on all eight
/// blocks — the request `nfs_miss` is made of — checked for its bytes and
/// for repeating to the digit.
fn miss_read32_allocs(mode: ServerMode) -> u64 {
    let (mut rig, fh) = cold_nfs(mode);
    // 800 blocks: six passes over the network-centric cache's capacity.
    for req in 0..100 {
        rig.read(fh, req * READ, READ);
    }
    let mut got = Vec::new();
    let n = allocs(|| got = rig.read(fh, 100 * READ, READ));
    assert_eq!(
        got,
        rig.expected_sparse(fh, 100 * u64::from(READ), READ as usize),
        "{mode}: a steady-state miss returns the volume's bytes"
    );
    assert_eq!(allocs(|| rig.read(fh, 101 * READ, READ)), n, "{mode}");
    n
}

/// A kHTTPd rig (NCache build) whose root directory holds `pages` pages of
/// `size` bytes, every one of them warmed.
fn warmed_web(pages: usize, size: u64) -> KhttpdRig {
    let mut web = KhttpdRig::new(ServerMode::NCache, KhttpdRigParams::default());
    for i in 0..pages {
        web.publish(&format!("page{i}"), size);
    }
    for i in 0..pages {
        web.get(&format!("/page{i}"));
    }
    web
}

/// One warmed GET of the *last* page published, checked for its bytes.
fn last_page_get_allocs(pages: usize, size: u64) -> u64 {
    let mut web = warmed_web(pages, size);
    let name = format!("page{}", pages - 1);
    let (path, want) = (format!("/{name}"), web.expected(&name, size));
    let mut got = Vec::new();
    let n = allocs(|| got = web.get(&path).1);
    assert_eq!(got, want, "the counted GET returned the page");
    assert_eq!(allocs(|| web.get(&path)), n, "the count repeats");
    n
}

/// One NFS LOOKUP of the last name in a root directory of `files` names.
fn last_name_lookup_allocs(files: usize) -> u64 {
    let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
    let fhs: Vec<u64> = (0..files).map(|i| rig.create_file(&format!("f{i}"), 0)).collect();
    let name = format!("f{}", files - 1);
    rig.lookup(&name);
    let mut found = None;
    let n = allocs(|| found = rig.lookup(&name));
    assert_eq!(found, fhs.last().copied(), "the counted LOOKUP found the file");
    n
}

/// One write-behind flush of the `blocks` oldest dirty blocks of a warmed
/// NCache rig, every one of which the storage server already holds: the
/// file's first 64 blocks are overwritten and synced, then overwritten
/// again, and the flush is counted alone.
fn flush_allocs(blocks: usize) -> u64 {
    let (mut rig, fh) = warmed_nfs(ServerMode::NCache);
    let data = vec![0x5Au8; READ as usize];
    let overwrite = |rig: &mut NfsRig| {
        for off in (0..64 * BLOCK).step_by(READ as usize) {
            rig.write(fh, off, &data);
        }
    };
    overwrite(&mut rig);
    rig.server_mut().fs_mut().sync().expect("sync");
    overwrite(&mut rig);
    let held = rig.target().borrow().written_blocks();
    let fs = rig.server_mut().fs_mut();
    assert!(fs.dirty_blocks() >= blocks, "{blocks} dirty blocks to flush");
    let n = allocs(|| fs.sync_some(blocks).expect("flush"));
    assert_eq!(
        rig.target().borrow().written_blocks(),
        held,
        "the flush overwrote blocks the target held"
    );
    n
}

/// A rig whose operations cost the data plane nothing: every request is
/// a small message each way and a fixed 10 µs of CPU, so only the timing
/// engine allocates.
struct NoOpRig;

impl RigDriver for NoOpRig {
    fn run_op(&mut self, _op: &DriverOp) -> (Observation, u64) {
        let obs = Observation {
            request_bytes: 128,
            reply_bytes: 128,
            ..Observation::default()
        };
        (obs, 0)
    }

    fn transport(&self) -> Transport {
        Transport::Udp
    }

    fn per_request_ns(&self, _costs: &CostModel) -> u64 {
        10_000
    }
}

/// Allocator calls of `ops` GETATTRs through the closed per-session loop
/// (64 sessions) and through the open loop, recorder off, each counted
/// around the engine call alone.
fn engine_allocs(ops: usize) -> (u64, u64) {
    let op = DriverOp::Getattr { fh: 1 };
    let mut sessions = vec![Vec::new(); 64];
    for k in 0..ops {
        sessions[k % 64].push(op.clone());
    }
    let closed = allocs(|| run_sessions(NoOpRig, sessions, &SessionsOptions::default(), None));
    let arrivals = vec![op; ops];
    let open = allocs(|| run_open_loop(NoOpRig, arrivals, &OpenLoopOptions::default()));
    (closed, open)
}

#[test]
fn allocations_per_request_are_pinned() {
    // Per request, not per block, in every build, and the client's copy
    // of the data in each. Original adds the daemon's buffer of copied
    // bytes and its segment handle (one segment, which every chain holds
    // inline). NCache adds the reply's chain of eight placeholders — the
    // resolved payload is moved into its buffer, the resolution itself
    // riding the cache's reused one — and the client's receive chain.
    let ncache = read_allocs(ServerMode::NCache);
    let original = read_allocs(ServerMode::Original);
    let baseline = read_allocs(ServerMode::Baseline);
    assert_eq!(
        (ncache, original, baseline),
        (3, 3, 3),
        "all-hit 32 KiB READ (ncache, original, baseline)"
    );
    assert!(ncache <= 16, "NCache READ budget");
    assert!(
        ncache <= original,
        "pointer surgery must not out-allocate copying"
    );

    // A missed block costs the allocator nothing: the Data-In PDU's and
    // the placeholder's slabs file in their pools' free lists with their
    // `Arc` handles, the one-segment chains of the PDU, its delivery and
    // its chunk live inline, the resolution rides the cache's reused
    // buffer, the fetched blocks ride the server's kept list, and the
    // caches' recency heaps grow to their steady state and stay there.
    // What is left is the client's copy of the data, one per READ in both
    // builds (two while the fetched blocks were a fresh vector).
    assert_eq!(
        miss_read_allocs(ServerMode::NCache, 64),
        65,
        "64 one-block all-miss READs"
    );
    assert_eq!(
        miss_read_allocs(ServerMode::Baseline, 64),
        65,
        "64 one-block all-miss READs, Baseline"
    );
    // Four times the batch adds only the client's copies: at capacity the
    // caches' recency indexes reuse the slots their victims vacate, so
    // neither the slot arena, nor the key index, nor a heap grows.
    assert_eq!(
        (
            miss_read_allocs(ServerMode::NCache, 256),
            miss_read_allocs(ServerMode::Baseline, 256)
        ),
        (257, 257),
        "256 one-block all-miss READs (ncache, baseline)"
    );
    // So a 32 KiB all-miss READ — eight blocks fetched, eight chunks
    // admitted, eight evicted — allocates no more than the all-hit READ:
    // the storage I/O log and the fetched-block list keep their capacity
    // between requests.
    assert_eq!(
        miss_read32_allocs(ServerMode::NCache),
        ncache,
        "32 KiB all-miss READ against the all-hit READ"
    );

    let (mut rig, fh) = warmed_nfs(ServerMode::NCache);
    assert_eq!(allocs(|| rig.getattr(fh)), 0, "GETATTR");
    // Each block's wire segment — a slab of the client's own pool — is
    // cached inline in its FHO chunk, and its placeholder rides a
    // stamp-sized store of the file system's pool. The first write plants
    // placeholders over real blocks; it makes the client's pool and stocks
    // it with two writes' worth of slabs, because a write's slabs come
    // home only as the write after it, already landed, replaces its
    // chunks. So the first overwrite takes no fresh slab: it builds its
    // first placeholder on a fresh store and grows the file system pool's
    // free list for the placeholder it displaces — every later block rides
    // the store the block before it released, and every later overwrite
    // finds the lists grown. (7 while the inode update built its block as
    // a fresh vector and handle.)
    let data = vec![0xA5u8; READ as usize];
    rig.write(fh, 0, &data);
    assert_eq!(
        allocs(|| rig.write(fh, 0, &data)),
        5,
        "aligned 32 KiB WRITE, the first overwrite"
    );
    // Steady state: the request's chain and its delivery's (eight
    // segments each), nothing else. The payload costs nothing — each
    // block rides a slab a replaced chunk sent home — the per-block groups
    // are cut one at a time, each inline, the stamps go in the server's
    // kept list, and the inode update builds its block on the slab the
    // one it replaced sent home (6 when the payload was one heap buffer
    // and its handle, and the groups and the stamps each a vector; 4 while
    // the inode block was a fresh vector and handle).
    let write = allocs(|| rig.write(fh, 0, &data));
    assert_eq!(write, 2, "aligned 32 KiB WRITE, steady state");
    assert_eq!(
        allocs(|| rig.write(fh, 0, &data)),
        write,
        "the count repeats"
    );
    // The client's side of it: a steady-state 32 KiB WRITE takes no fresh
    // slab (all eight come home from the network-centric cache), and its
    // request allocates only its chain — one buffer more than a one-block
    // request, whose single segment lives inline.
    let pool = |rig: &mut NfsRig| {
        let client = rig.client_mut();
        client.pool().expect("made by the first WRITE").slab_stats()
    };
    let slabs = pool(&mut rig);
    rig.write(fh, 0, &data);
    let after = pool(&mut rig);
    assert_eq!(after.allocs, slabs.allocs, "a steady-state WRITE takes no fresh slab");
    assert_eq!(after.recycles - slabs.recycles, 8, "its eight blocks ride recycled slabs");
    assert_eq!(after.returns - slabs.returns, 8, "and the eight it replaced came home");
    let client = rig.client_mut();
    let one_block = allocs(|| client.write_request(fh, 0, &data[..BLOCK as usize]));
    assert_eq!(one_block, 0, "a one-block WRITE request");
    assert_eq!(
        allocs(|| client.write_request(fh, 0, &data)),
        one_block + 1,
        "a 32 KiB WRITE request against a one-block one: its chain, not its payload"
    );

    // The inode update of that WRITE builds its block on the slab the
    // block it replaces sent home (2 while it was a fresh vector and its
    // handle).
    let ino = ncache_repro::servers::nfs::fh_to_ino(fh);
    let fs = rig.server_mut().fs_mut();
    fs.set_size(ino, 1 << 20).expect("a file");
    assert_eq!(allocs(|| fs.set_size(ino, 1 << 20)), 0, "a steady-state inode update");

    // The storage side allocates nothing per block: a flushed block the
    // target already holds is overwritten where it lies (one vector per
    // block while every write replaced the block with a fresh one: 9 and
    // 65), and the flush fills the list the file system keeps (the
    // `sync()` before it grew the list; 1 while each flush built a fresh
    // one), so flushing 8 or 64 blocks allocates nothing.
    let flush = flush_allocs(8);
    assert_eq!(flush, 0, "an 8-block flush of held blocks");
    assert_eq!(flush_allocs(64), flush, "a 64-block flush against an 8-block one");
    // And the I/O log is drained in place: a drained and dropped log
    // allocates nothing (1 while each drain left a fresh vector behind).
    let (mut rig, fh) = cold_nfs(ServerMode::NCache);
    let _ = rig.server_mut().fs_mut().store_mut().take_io_log();
    rig.read(fh, 0, READ);
    let mut logged = 0;
    let drained = allocs(|| logged = rig.server_mut().fs_mut().store_mut().take_io_log().len());
    assert!(logged >= 8, "the log held the miss's eight blocks: {logged}");
    assert_eq!(drained, 0, "a drained and dropped I/O log");

    assert_eq!(last_page_get_allocs(1, u64::from(READ)), 5, "kHTTPd all-hit GET");

    // Per request — not per directory entry scanned, not per 4 KiB of body.
    // The last of 500 names sits four directory blocks in, behind 499
    // entries the lookup walks past.
    assert_eq!(
        last_name_lookup_allocs(500),
        last_name_lookup_allocs(1),
        "LOOKUP of the last of 500 names against the only name"
    );
    let one_block = last_page_get_allocs(1, 4096);
    assert_eq!(
        last_page_get_allocs(500, 4096),
        one_block,
        "GET of the last of 500 pages against the only page"
    );
    // A body of one block rides chains of one segment, which live inline;
    // a longer body adds the response's chain and the client's receive
    // chain, each one buffer however many blocks it holds.
    assert_eq!(
        last_page_get_allocs(1, 2 * 4096),
        one_block + 2,
        "GET of a 2-block page against a 1-block page"
    );
    assert_eq!(
        last_page_get_allocs(1, 19 * 4096),
        one_block + 2,
        "GET of a 19-block page against a 1-block page"
    );

    // The timing engine allocates nothing per request: its chains live in
    // a slab whose slots keep their stage vectors, a completed flight's
    // breakdown vector serves the next flight, and the open-loop schedule
    // is read by a cursor, never queued. Doubling the requests adds
    // nothing: neither sink keeps anything per request (the open loop's
    // were 80 and 83 while it kept every busy interval for a utilization
    // timeline nothing read; the closed loop's 167 while its sink kept a
    // per-session op count only a test read).
    let (closed, open) = engine_allocs(2_000);
    assert_eq!((closed, open), (166, 35), "2 000 requests (closed, open loop)");
    let (closed_2x, open_2x) = engine_allocs(4_000);
    assert_eq!((closed_2x, open_2x), (166, 35), "4 000 requests (closed, open loop)");
    assert!(closed_2x == closed && open_2x == open, "no allocation per request");
}

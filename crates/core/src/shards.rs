//! Hash-sharded front for the two-part network-centric cache.
//!
//! A pass-through server fielding many simultaneous clients wants to touch
//! only one lock-striped partition of the buffer hash per request (the
//! kHTTPd/TUX lineage). [`NetCacheShards`] gives the reproduction that
//! shape — N independent LBN+FHO shards selected by a deterministic
//! [`shard_of`] — while preserving, byte for byte, the behaviour of the
//! single [`NetCache`]:
//!
//! * **one pool**: every shard pins from the same [`BufPool`], so capacity
//!   pressure is a global property, not N private budgets;
//! * **one recency clock**: shards share a `SeqSource`, so "least
//!   recently used" is defined across the whole shard set;
//! * **global victim selection**: when an insert cannot pin, the shard set
//!   reclaims from whichever shard holds the globally oldest *reclaimable*
//!   chunk — the exact chunk the single cache would have evicted;
//! * **cross-shard remap**: `remap(fho, lbn)` moves the chunk from the
//!   FHO key's shard to the LBN key's shard (the pin travels with it) and
//!   still overwrites any stale LBN copy wherever it lives.
//!
//! Since the concurrent-data-plane refactor the shard set is an
//! internally locked **handle**: each shard sits behind its own
//! spin-then-block [`LaneLock`], the handle is `Clone + Send + Sync`, and
//! every method takes `&self`. Lane worker threads clone the handle and
//! touch only the lock of the shard a key hashes to. **Lookups and
//! resolves take the shard's read lock**: hit promotion is an atomic
//! `fetch_max` on the entry's recency stamp and the counters are
//! lane-private ([`sim::LaneCounters`]), so concurrent cache-hit
//! reads of one shard proceed fully in parallel (the LRU index is lazy;
//! mutators settle it against the true stamps before picking victims —
//! see [`NetCache::lookup`]). Mutations (insert, remap,
//! reclaim, invalidate, checksum/dirty metadata) take the write lock.
//! The locking discipline is strict: no method holds two shard locks at
//! once, with one exception — a cross-shard [`NetCacheShards::remap`]
//! write-locks the FHO and LBN shards together (in shard-index order, so
//! lock order is acyclic) so a concurrent resolve can never observe the
//! remove→insert gap while a chunk migrates. On a single thread every
//! lock is uncontended and the behaviour is byte-identical to the
//! pre-refactor shard set.
//!
//! The shard-invariance property test (tests/shard_invariance.rs) pins all
//! of this down: for arbitrary workloads, N ∈ {1, 2, 8} shards produce
//! identical merged stats, hit ratios, read-back bytes, and writeback
//! sequences as the single-shard oracle.

use std::fmt;
use std::sync::{Arc, Mutex};

use netbuf::key::{CacheKey, Fho, Lbn};
use netbuf::{BufPool, NetBuf, SegChain, Segment};
use sim::mix64;
use sim::sync::{LaneCounters, LaneLock, LaneReadGuard, LaneWriteGuard};

use crate::cache::{
    resolution_order, CacheFull, Entry, NetCache, NetCacheStats, SeqSource, WritebackChunk,
};
use crate::substitute::{substitute_payload, Resolved, SubstitutionReport};

// Counter indices into the shard set's substitution totals, one per
// [`SubstitutionReport`] field.
const SUBSTITUTED: usize = 0;
const PASSED_THROUGH: usize = 1;
const MISSING: usize = 2;

/// The shard a key lives in, for a set of `shards` shards. Deterministic
/// across runs and platforms (no `RandomState`): the same key always maps
/// to the same shard, which the determinism gates rely on.
pub fn shard_of(key: CacheKey, shards: usize) -> usize {
    debug_assert!(shards > 0, "shard count must be positive");
    let h = match key {
        CacheKey::Lbn(Lbn(block)) => mix64(block),
        CacheKey::Fho(Fho { fh, offset }) => mix64(mix64(fh.0) ^ offset),
    };
    (h % shards as u64) as usize
}

/// N independent LBN+FHO cache shards behaving, in the aggregate, exactly
/// like one [`NetCache`] (see the module docs for the sharing and locking
/// discipline). Cloning yields another handle to the same shard set.
///
/// # Examples
///
/// ```
/// use ncache::NetCacheShards;
/// use netbuf::key::Lbn;
/// use netbuf::{BufPool, Segment};
///
/// let cache = NetCacheShards::new(BufPool::new(1 << 20), 256, 8);
/// cache.insert_lbn(Lbn(9), vec![Segment::from_vec(vec![1; 4096])], 4096, false)?;
/// assert!(cache.lookup(Lbn(9).into()).is_some());
/// assert_eq!(cache.stats().hits, 1);
/// # Ok::<(), ncache::CacheFull>(())
/// ```
#[derive(Clone)]
pub struct NetCacheShards {
    shards: Arc<Vec<LaneLock<NetCache>>>,
    pool: BufPool,
    fho_first: Arc<std::sync::atomic::AtomicBool>,
    seq: SeqSource,
    /// Totals of every [`NetCacheShards::transmit`], lane-striped so
    /// concurrent lanes count on their own lines.
    substitutions: Arc<LaneCounters<3>>,
    /// The buffer replies are resolved into, kept between replies: the
    /// resolution is moved into the reply's own chain and the emptied
    /// buffer filed back here, so resolving a reply allocates nothing once
    /// the buffer has grown to a reply's length. A lane that finds it
    /// taken by another resolves into a fresh one.
    resolve_buf: Arc<Mutex<Vec<Segment>>>,
}

impl NetCacheShards {
    /// A shard set over `shards` partitions, all pinning from one shared
    /// `pool` with `per_chunk_overhead` descriptor bytes per chunk.
    /// `shards` must be at least 1.
    pub fn new(pool: BufPool, per_chunk_overhead: u64, shards: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        let seq = SeqSource::default();
        let parts = (0..shards)
            .map(|_| {
                LaneLock::new(NetCache::with_seq_source(
                    pool.clone(),
                    per_chunk_overhead,
                    seq.clone(),
                ))
            })
            .collect();
        NetCacheShards {
            shards: Arc::new(parts),
            pool,
            fho_first: Arc::new(std::sync::atomic::AtomicBool::new(true)),
            seq,
            substitutions: Arc::default(),
            resolve_buf: Arc::default(),
        }
    }

    /// The resolution buffer, empty — or a fresh one while another lane
    /// holds it.
    pub(crate) fn take_resolve_buf(&self) -> Vec<Segment> {
        self.resolve_buf
            .try_lock()
            .map(|mut buf| std::mem::take(&mut *buf))
            .unwrap_or_default()
    }

    /// Files an emptied resolution buffer for the next reply.
    pub(crate) fn file_resolve_buf(&self, buf: Vec<Segment>) {
        debug_assert!(buf.is_empty(), "a filed resolution buffer holds no segment");
        if let Ok(mut slot) = self.resolve_buf.try_lock() {
            *slot = buf;
        }
    }

    /// Shared access to one shard: lookups, resolves, and every pure
    /// inspection run under this guard, so cache-hit reads in different
    /// lanes never serialize against each other (only against a mutation
    /// of the same shard).
    fn read(&self, shard: usize) -> LaneReadGuard<'_, NetCache> {
        self.shards[shard].read()
    }

    /// Exclusive access to one shard: inserts, remaps, reclaims, and
    /// metadata mutation.
    fn write(&self, shard: usize) -> LaneWriteGuard<'_, NetCache> {
        self.shards[shard].write()
    }

    /// Ablation knob: resolve LBN before FHO (see
    /// [`NetCache::set_resolve_lbn_first`]).
    pub fn set_resolve_lbn_first(&self, lbn_first: bool) {
        self.fho_first
            .store(!lbn_first, std::sync::atomic::Ordering::Relaxed);
    }

    /// Advances the shared recency clock past `stamp`. The parallel
    /// engine calls this after a run with the largest epoch stamp it
    /// could have issued, so later sequential accesses still promote to
    /// most-recently-used.
    pub fn advance_clock_past(&self, stamp: u64) {
        self.seq.advance_past(stamp);
    }

    /// Chunks currently resident across all shards.
    pub fn len(&self) -> usize {
        (0..self.shards.len()).map(|i| self.read(i).len()).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        (0..self.shards.len()).all(|i| self.read(i).is_empty())
    }

    /// Bytes currently pinned in the shared pool.
    pub fn pinned_bytes(&self) -> u64 {
        self.pool.pinned()
    }

    /// The shared pinned-memory pool.
    pub fn pool(&self) -> &BufPool {
        &self.pool
    }

    /// Attaches one ghost LRU tail, **shared by every shard**, bounded at
    /// `cap` keys. One global tail — not per-shard bounded tails — because
    /// "the last K distinct evicted keys" is only shard-count-invariant
    /// when displacement happens against the global eviction order; the
    /// adaptive split must read the same signal at 1 shard and at 8.
    pub fn enable_ghost(&self, cap: usize) {
        let ghost = Arc::new(std::sync::Mutex::new(sim::GhostLru::new(cap)));
        for i in 0..self.shards.len() {
            self.write(i).set_ghost(Arc::clone(&ghost));
        }
    }

    /// Counters of the shared ghost tail, or `None` when no tail is
    /// attached. Shard 0's handle *is* the global tail (all shards share
    /// one `Arc`), so no merging is needed.
    pub fn ghost_stats(&self) -> Option<sim::GhostStats> {
        self.read(0).ghost_stats()
    }

    /// Evicts clean chunks in global LRU order until pinned bytes fit the
    /// pool's (possibly just-lowered) capacity. Dirty chunks are never
    /// touched — a tick-time shrink must not schedule writebacks — so the
    /// pool may stay transiently overcommitted until the demand path
    /// drains the dirty tail. Returns the number of chunks evicted.
    pub fn shrink_clean_to_capacity(&self) -> u64 {
        let mut evicted = 0u64;
        while self.pool.pinned() > self.pool.capacity() {
            let victim_shard = (0..self.shards.len())
                .filter_map(|i| self.write(i).clean_head_seq().map(|seq| (seq, i)))
                .min();
            let Some((_, i)) = victim_shard else {
                break; // everything resident is dirty
            };
            if !self.write(i).reclaim_one_clean() {
                break;
            }
            evicted += 1;
        }
        evicted
    }

    /// Merged counters across all shards.
    pub fn stats(&self) -> NetCacheStats {
        let mut merged = NetCacheStats::default();
        for i in 0..self.shards.len() {
            merged.merge(&self.read(i).stats());
        }
        merged
    }

    /// Per-shard counter snapshots, indexed by shard.
    pub fn per_shard_stats(&self) -> Vec<NetCacheStats> { // test-api: shard_equivalence sums the shards
        (0..self.shards.len()).map(|i| self.read(i).stats()).collect()
    }

    /// Hook 4, the one transmit path: an outgoing reply reached the driver
    /// boundary. Splices `resolved` — the placeholders the server resolved
    /// when it built the reply, the READ's commit point
    /// ([`crate::resolve_reply`]) — or, for a reply that carries none,
    /// substitutes its stamped placeholders from the cache; then inherits
    /// the stored checksum (`csum_inherit`) or, in the ablation, recomputes
    /// it, emits the `Substitution` event on `rec`, and counts the report
    /// into [`NetCacheShards::substitution_totals`].
    /// `&self` and lane-striped, so a lane runs it under the shared core
    /// guard like any other step of its reply.
    pub fn transmit(
        &self,
        reply: &mut NetBuf,
        resolved: Option<Resolved>,
        csum_inherit: bool,
        rec: &obs::Recorder,
    ) -> SubstitutionReport {
        let report = match resolved {
            Some(resolved) => resolved.splice(reply, self),
            None => substitute_payload(reply, self),
        };
        if report.substituted > 0 {
            if csum_inherit {
                reply.inherit_csum();
            } else {
                // Ablation: without inheritance the substituted payload
                // must be checksummed afresh — the CPU cost the paper's
                // design avoids (§1).
                reply.compute_csum();
            }
        }
        if report.substituted > 0 || report.missing > 0 {
            rec.emit(obs::EventKind::Substitution {
                substituted: report.substituted,
                missing: report.missing,
            });
        }
        let lane = self.substitutions.lane();
        lane.add(SUBSTITUTED, report.substituted);
        lane.add(PASSED_THROUGH, report.passed_through);
        lane.add(MISSING, report.missing);
        report
    }

    /// Totals of every [`NetCacheShards::transmit`] so far, summed across
    /// lanes (exact once the lanes that transmitted have joined).
    pub fn substitution_totals(&self) -> SubstitutionReport {
        let [substituted, passed_through, missing] = self.substitutions.totals();
        SubstitutionReport {
            substituted,
            passed_through,
            missing,
        }
    }

    fn shard(&self, key: CacheKey) -> usize {
        // One shard needs no hash (and no 64-bit division) to find.
        match self.shards.len() {
            1 => 0,
            n => shard_of(key, n),
        }
    }

    /// Whether `key` is resident (no LRU promotion, no counter change).
    pub fn contains(&self, key: CacheKey) -> bool {
        self.read(self.shard(key)).contains(key)
    }

    /// Whether `key` is resident and dirty.
    pub fn is_dirty(&self, key: CacheKey) -> bool {
        self.read(self.shard(key)).is_dirty(key)
    }

    /// Inserts a chunk arriving from the storage server (iSCSI Data-In).
    ///
    /// # Errors
    ///
    /// [`CacheFull`] when space cannot be reclaimed from any shard. On
    /// success, dirty chunks displaced anywhere in the set are returned
    /// for writeback.
    pub fn insert_lbn(
        &self,
        lbn: Lbn,
        segs: impl Into<SegChain>,
        len: usize,
        dirty: bool,
    ) -> Result<Vec<WritebackChunk>, CacheFull> {
        self.insert(CacheKey::Lbn(lbn), segs.into(), len, dirty)
    }

    /// Inserts a chunk arriving in an NFS write request. Always dirty.
    ///
    /// # Errors
    ///
    /// [`CacheFull`] as for [`NetCacheShards::insert_lbn`].
    pub fn insert_fho(
        &self,
        fho: Fho,
        segs: impl Into<SegChain>,
        len: usize,
    ) -> Result<Vec<WritebackChunk>, CacheFull> {
        self.insert(CacheKey::Fho(fho), segs.into(), len, true)
    }

    /// The single cache's insert sequence, with the reclaim loop lifted to
    /// the shard set: the victim is always the globally LRU reclaimable
    /// chunk, whichever shard it lives in. Only one shard lock is held at
    /// a time; the shared pool mediates capacity between racing inserts.
    fn insert(
        &self,
        key: CacheKey,
        segs: SegChain,
        len: usize,
        dirty: bool,
    ) -> Result<Vec<WritebackChunk>, CacheFull> {
        let target = self.shard(key);
        let need = {
            let mut t = self.write(target);
            t.note_insertion();
            // Replace any existing entry under this key first (its pin
            // frees before the new pin is sized).
            t.remove_entry(key);
            t.chunk_footprint(len)
        };
        let mut writebacks = Vec::new();
        let pin = loop {
            match self.pool.pin(need) {
                Ok(p) => break p,
                Err(_) => {
                    let (seq, key, shard) = (0..self.shards.len())
                        .filter_map(|i| {
                            let (seq, key) = self.write(i).reclaimable_head()?;
                            Some((seq, key, i))
                        })
                        .min_by_key(|&(seq, ..)| seq)
                        .ok_or(CacheFull)?;
                    // `None`: a racing lane got to the victim between the
                    // scan and the lock; rescan. (Unreachable on one
                    // thread: the scan just saw it.)
                    if let Some(Some(wb)) = self.write(shard).reclaim_victim(seq, key) {
                        writebacks.push(wb);
                    }
                }
            }
        };
        let chunk = crate::chunk::Chunk::new(segs, len, dirty, pin);
        self.write(target).insert_chunk_fresh(key, chunk);
        Ok(writebacks)
    }

    /// Looks `key` up in its shard, promoting it to globally
    /// most-recently-used and returning its payload segments.
    pub fn lookup(&self, key: CacheKey) -> Option<Vec<Segment>> {
        let mut out = Vec::new();
        self.lookup_into(key, usize::MAX, &mut out).then_some(out)
    }

    /// [`NetCacheShards::lookup`] sharing the hit's payload straight into
    /// `out` under the shard's read lock (see [`NetCache::lookup_into`]).
    pub fn lookup_into(&self, key: CacheKey, limit: usize, out: &mut Vec<Segment>) -> bool {
        self.read(self.shard(key)).lookup_into(key, limit, out)
    }

    /// Resolves a key stamp FHO-first (§3.4), across shards: the FHO and
    /// LBN copies of a block may live in different shards.
    pub fn resolve(&self, stamp: &netbuf::key::KeyStamp) -> Option<(CacheKey, Vec<Segment>)> {
        let mut out = Vec::new();
        self.resolve_into(stamp, usize::MAX, &mut out)
            .map(|key| (key, out))
    }

    /// [`NetCacheShards::resolve`] through
    /// [`NetCacheShards::lookup_into`]: the winning key's payload is
    /// appended to `out`, clipped to `limit` bytes — how packet
    /// substitution fills the outgoing chain.
    pub fn resolve_into(
        &self,
        stamp: &netbuf::key::KeyStamp,
        limit: usize,
        out: &mut Vec<Segment>,
    ) -> Option<CacheKey> {
        let fho_first = self.fho_first.load(std::sync::atomic::Ordering::Relaxed);
        resolution_order(stamp, fho_first)
            .into_iter()
            .flatten()
            .find(|&key| self.lookup_into(key, limit, out))
    }

    /// Resolves every placeholder of a reply in one batched pass
    /// (DESIGN.md §9.2). `reply` is the payload in order: each block as
    /// the buffer cache holds it (its stamp, if any, heads the *whole*
    /// block) and the number of its bytes the reply carries; unstamped
    /// blocks pass through, clipped.
    ///
    /// Phase 1 takes the read guard of every shard a candidate key hashes
    /// to — once each, in ascending order, so it cannot deadlock against
    /// [`NetCacheShards::remap`] — and finds each stamp's winning entry,
    /// FHO then LBN, with plain probes. Phase 2 counts and promotes in
    /// reply order exactly as one [`NetCacheShards::resolve_into`] per
    /// stamp would, through the entries phase 1 holds, appending the
    /// payload to `out`.
    ///
    /// # Errors
    ///
    /// When `strict`, the index of the first stamp neither of whose keys
    /// is resident — after phase 1, with *no* side effect: no lookup,
    /// tally, stamp or ghost probe, `out` untouched. Otherwise such a
    /// block ships as it is and is reported `missing`.
    pub fn resolve_all<'s, I>(
        &self,
        reply: I,
        strict: bool,
        out: &mut Vec<Segment>,
    ) -> Result<SubstitutionReport, usize>
    where
        I: ExactSizeIterator<Item = (&'s Segment, usize)> + Clone,
    {
        let fho_first = self.fho_first.load(std::sync::atomic::Ordering::Relaxed);
        let keys = |block: &Segment| {
            block
                .stamp()
                .map_or([None, None], |stamp| resolution_order(&stamp, fho_first))
                .into_iter()
                .flatten()
        };
        let shards = self.shards.len();
        // The needed shards, as a mask (one shard is always the needed
        // one; past 64 the bits alias, which only ever takes a guard too
        // many).
        let mut needed = u64::from(shards == 1);
        if shards > 1 {
            for key in reply.clone().flat_map(|(block, _)| keys(block)) {
                needed |= 1 << (self.shard(key) % 64);
            }
        }
        let (mut held, mut held_spill) = ([const { None }; 8], Vec::new());
        let guards: &mut [Option<LaneReadGuard<'_, NetCache>>] = if shards <= held.len() {
            &mut held[..shards]
        } else {
            held_spill.resize_with(shards, || None);
            &mut held_spill
        };
        for (shard, guard) in guards.iter_mut().enumerate() {
            if needed >> (shard % 64) & 1 == 1 {
                *guard = Some(self.read(shard));
            }
        }
        let guards = &*guards;
        let shard = |key| guards[self.shard(key)].as_deref().expect("guard taken above");
        // The probed entries of any hit-path reply live on the stack.
        let (mut inline, mut spill) = ([Slot::Plain; SLOTS_INLINE], Vec::new());
        let slots: &mut [Slot<'_>] = match reply.len() {
            n if n <= inline.len() => &mut inline[..n],
            n => {
                spill.resize(n, Slot::Plain);
                &mut spill
            }
        };
        let mut hits = 0;
        for (i, ((block, _), slot)) in reply.clone().zip(slots.iter_mut()).enumerate() {
            let mut found = keys(block).map(|key| {
                let at = shard(key);
                (at, at.probe(key))
            });
            *slot = match found.next() {
                None => continue,
                Some((at, Some(entry))) => Slot::First(at, entry),
                Some(_) => match found.next() {
                    Some((at, Some(entry))) => Slot::Second(at, entry),
                    _ if strict => return Err(i),
                    _ => Slot::Missing,
                },
            };
            hits += u64::from(!matches!(slot, Slot::Missing));
        }
        let mut stamp = self.seq.reserve(hits);
        let mut report = SubstitutionReport::default();
        for ((block, limit), slot) in reply.zip(slots.iter()) {
            let (missed, hit) = match *slot {
                Slot::Plain => (0, None),
                Slot::First(at, entry) => (0, Some((at, entry))),
                Slot::Second(at, entry) => (1, Some((at, entry))),
                Slot::Missing => (2, None),
            };
            for key in keys(block).take(missed) {
                shard(key).count_miss(key);
            }
            match hit {
                Some((at, entry)) => {
                    at.count_hit(entry, stamp, limit, out);
                    stamp += 1;
                    report.substituted += 1;
                }
                None => {
                    out.push(block.slice(0, limit));
                    report.passed_through += u64::from(missed == 0);
                    report.missing += u64::from(missed > 0);
                }
            }
        }
        Ok(report)
    }

    /// Remaps an FHO entry to an LBN key on file-system flush, moving the
    /// chunk between shards when the keys hash apart and overwriting any
    /// stale LBN copy. Returns the (still dirty) payload for the outgoing
    /// iSCSI write, or `None` if the FHO entry is absent.
    ///
    /// This is the one two-lock method: the FHO and LBN shards are locked
    /// together, in shard-index order, so concurrent resolves never see
    /// the chunk mid-migration (absent from both shards).
    pub fn remap(&self, fho: Fho, lbn: Lbn) -> Option<Vec<Segment>> {
        self.remap_chain(fho, lbn).map(Vec::from)
    }

    /// [`NetCacheShards::remap`] handing the payload over as a chain, the
    /// shape the chunk keeps it in, so a one-segment chunk's payload moves
    /// with no allocation. The flush hook's form.
    pub(crate) fn remap_chain(&self, fho: Fho, lbn: Lbn) -> Option<SegChain> {
        let fho_shard = self.shard(CacheKey::Fho(fho));
        let lbn_shard = self.shard(CacheKey::Lbn(lbn));
        if fho_shard == lbn_shard {
            return self.write(fho_shard).remap(fho, lbn);
        }
        // Cross-shard: charge the remap where the FHO entry lives (the
        // merged count matches the single cache either way), drop the
        // stale LBN copy in *its* shard, and move the chunk — its pool pin
        // travels with it, so the shared pool's accounting is unchanged.
        let (lo, hi) = (fho_shard.min(lbn_shard), fho_shard.max(lbn_shard));
        let mut guard_lo = self.write(lo);
        let mut guard_hi = self.write(hi);
        let (fho_cache, lbn_cache) = if fho_shard < lbn_shard {
            (&mut *guard_lo, &mut *guard_hi)
        } else {
            (&mut *guard_hi, &mut *guard_lo)
        };
        fho_cache.note_remap();
        let chunk = fho_cache.remove_entry(CacheKey::Fho(fho))?;
        lbn_cache.remove_entry(CacheKey::Lbn(lbn));
        let segs = chunk.share_segments();
        lbn_cache.insert_chunk_fresh(CacheKey::Lbn(lbn), chunk);
        Some(segs)
    }

    /// Marks a chunk clean after its data reached the storage server.
    pub fn mark_clean(&self, key: CacheKey) {
        self.write(self.shard(key)).mark_clean(key);
    }

    /// Records an inheritable checksum on a resident chunk.
    pub fn set_csum(&self, key: CacheKey, csum: u16) {
        self.write(self.shard(key)).set_csum(key, csum);
    }

    /// The stored checksum of a resident chunk.
    pub fn stored_csum(&self, key: CacheKey) -> Option<u16> {
        self.read(self.shard(key)).stored_csum(key)
    }

    /// Removes a chunk outright (no writeback), returning whether it was
    /// resident.
    pub fn invalidate(&self, key: CacheKey) -> bool {
        self.write(self.shard(key)).invalidate(key)
    }

    /// Materialized contents of a resident chunk (integrity checks).
    pub fn chunk_bytes(&self, key: CacheKey) -> Option<Vec<u8>> {
        self.read(self.shard(key)).chunk_bytes(key)
    }

    /// Keys of clean resident chunks in *global* LRU order — shard lists
    /// merged by shared sequence number, so fault injection picks the same
    /// corruption targets at any shard count.
    pub fn clean_keys(&self) -> Vec<CacheKey> {
        let mut tagged: Vec<(u64, CacheKey)> = (0..self.shards.len())
            .flat_map(|i| self.read(i).clean_keys_with_seq())
            .collect();
        tagged.sort_unstable_by_key(|&(seq, _)| seq);
        tagged.into_iter().map(|(_, k)| k).collect()
    }

    /// Checks every shard's recency index ([`NetCache::check_invariants`]),
    /// the shared ghost tail and the shared pool's slab free list.
    ///
    /// # Errors
    ///
    /// A description of the first violation found, naming its shard.
    pub fn check_invariants(&self) -> Result<(), String> {
        for i in 0..self.shards.len() {
            self.read(i)
                .check_invariants()
                .map_err(|e| format!("shard {i}: {e}"))?;
        }
        if let Some(ghost) = &self.read(0).ghost {
            ghost.lock().expect("ghost poisoned").check_invariants()?;
        }
        self.pool.check_invariants()
    }
}

/// Reply blocks [`NetCacheShards::resolve_all`] keeps its probe results
/// for on the stack: every NFS READ and every page the resident walk
/// serves (`simfs::fs::WALK_BLOCKS`). A longer reply spills to the heap.
const SLOTS_INLINE: usize = 32;

/// How phase 1 of [`NetCacheShards::resolve_all`] left one reply block.
#[derive(Clone, Copy)]
enum Slot<'g> {
    /// No keyed stamp: passes through.
    Plain,
    /// The stamp's first candidate key is resident: its shard and entry.
    First(&'g NetCache, &'g Entry),
    /// The first candidate missed; the second is resident.
    Second(&'g NetCache, &'g Entry),
    /// No candidate is resident.
    Missing,
}

impl fmt::Debug for NetCacheShards {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetCacheShards")
            .field("shards", &self.shards.len())
            .field("chunks", &self.len())
            .field("pinned_bytes", &self.pool.pinned())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netbuf::key::{FileHandle, KeyStamp};

    impl NetCacheShards {
        /// Shared and exclusive acquisitions of every shard lock, summed.
        pub(crate) fn lock_counters(&self) -> (u64, u64) {
            let sum = |f: fn(sim::sync::LockCounters) -> u64| {
                self.shards.iter().map(|s| f(s.counters())).sum()
            };
            (sum(|c| c.reads), sum(|c| c.writes))
        }
    }

    fn seg(tag: u8, len: usize) -> Vec<Segment> {
        vec![Segment::from_vec(vec![tag; len])]
    }

    fn shards(capacity: u64, n: usize) -> NetCacheShards {
        NetCacheShards::new(BufPool::new(capacity), 0, n)
    }

    fn fho(fh: u64, off: u64) -> Fho {
        Fho::new(FileHandle(fh), off)
    }

    #[test]
    fn shard_set_is_a_send_sync_clone_handle() {
        // The point of the locked refactor: lane worker threads share the
        // cache by cloning the handle. (Regression for the `Rc`-era shard
        // set, which was neither `Send` nor `Clone`.)
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<NetCacheShards>();
        let a = shards(1 << 20, 4);
        let b = a.clone();
        a.insert_lbn(Lbn(1), seg(1, 64), 64, false).expect("fits");
        assert!(b.contains(Lbn(1).into()), "clones alias one shard set");
    }

    #[test]
    fn concurrent_inserts_and_lookups_share_one_cache() {
        let c = shards(1 << 22, 8);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = c.clone();
                s.spawn(move || {
                    for b in 0..64u64 {
                        let block = t * 64 + b;
                        c.insert_lbn(Lbn(block), seg(t as u8, 1024), 1024, false)
                            .expect("fits");
                        assert!(c.lookup(Lbn(block).into()).is_some());
                    }
                });
            }
        });
        assert_eq!(c.len(), 256);
        let s = c.stats();
        assert_eq!(s.insertions, 256);
        assert_eq!(s.hits, 256, "every thread hits its own inserts");
    }

    #[test]
    fn shard_of_is_deterministic_and_in_range() {
        for n in [1usize, 2, 3, 8, 16] {
            for b in 0..64u64 {
                let k = CacheKey::Lbn(Lbn(b));
                let s = shard_of(k, n);
                assert!(s < n);
                assert_eq!(s, shard_of(k, n), "same key, same shard");
            }
            for f in 0..8u64 {
                for off in [0u64, 4096, 81920] {
                    let k = CacheKey::Fho(fho(f, off));
                    assert!(shard_of(k, n) < n);
                }
            }
        }
        // One shard degenerates to the single cache's routing.
        assert_eq!(shard_of(CacheKey::Lbn(Lbn(123)), 1), 0);
    }

    #[test]
    fn shard_of_is_pinned() {
        // Per-shard counters in committed traces and the oracle suites
        // assume a key's shard never moves. Expected values computed from
        // the splitmix64 definition outside this workspace.
        let lbn = |b: u64| CacheKey::Lbn(Lbn(b));
        let pins = [
            (lbn(0), 7, 1),
            (lbn(1), 1, 2),
            (lbn(7), 7, 0),
            (lbn(4096), 7, 1),
            (lbn(123_456_789), 1, 2),
            (lbn(u64::MAX), 0, 2),
            (CacheKey::Fho(fho(1, 0)), 6, 2),
            (CacheKey::Fho(fho(1, 4096)), 0, 1),
            (CacheKey::Fho(fho(0xBEEF, 81920)), 7, 2),
            (CacheKey::Fho(fho(42, 1 << 40)), 6, 2),
        ];
        for (key, of_8, of_3) in pins {
            assert_eq!((shard_of(key, 8), shard_of(key, 3)), (of_8, of_3), "{key}");
        }
    }

    #[test]
    fn shard_of_spreads_keys() {
        let mut seen = [false; 8];
        for b in 0..256u64 {
            seen[shard_of(CacheKey::Lbn(Lbn(b)), 8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "256 blocks touch all 8 shards");
    }

    #[test]
    fn insert_lookup_across_shards() {
        let c = shards(1 << 20, 8);
        for b in 0..16u64 {
            c.insert_lbn(Lbn(b), seg(b as u8, 4096), 4096, false).expect("fits");
        }
        assert_eq!(c.len(), 16);
        for b in 0..16u64 {
            let got = c.lookup(Lbn(b).into()).expect("resident");
            assert_eq!(got[0].as_slice()[0], b as u8);
        }
        let s = c.stats();
        assert_eq!(s.insertions, 16);
        assert_eq!(s.lookups, 16);
        assert_eq!(s.hits, 16);
        assert_eq!(
            s.insertions,
            c.per_shard_stats().iter().map(|p| p.insertions).sum::<u64>()
        );
    }

    #[test]
    fn eviction_picks_the_globally_oldest_victim() {
        // Pool holds two chunks. Insert A then B (different shards with
        // high probability under n=8; the assertion holds regardless):
        // inserting C must evict A — the globally LRU chunk — no matter
        // which shard C lands in.
        let c = shards(8192, 8);
        c.insert_lbn(Lbn(1), seg(1, 4096), 4096, false).expect("fits");
        c.insert_lbn(Lbn(2), seg(2, 4096), 4096, false).expect("fits");
        c.insert_lbn(Lbn(3), seg(3, 4096), 4096, false).expect("evicts");
        assert!(!c.contains(Lbn(1).into()), "globally oldest chunk evicted");
        assert!(c.contains(Lbn(2).into()));
        assert!(c.contains(Lbn(3).into()));
        assert_eq!(c.stats().evicted_clean, 1);
    }

    #[test]
    fn lookup_promotion_is_global() {
        let c = shards(8192, 8);
        c.insert_lbn(Lbn(1), seg(1, 4096), 4096, false).expect("fits");
        c.insert_lbn(Lbn(2), seg(2, 4096), 4096, false).expect("fits");
        c.lookup(Lbn(1).into());
        c.insert_lbn(Lbn(3), seg(3, 4096), 4096, false).expect("evicts");
        assert!(c.contains(Lbn(1).into()), "promoted chunk survives globally");
        assert!(!c.contains(Lbn(2).into()));
    }

    #[test]
    fn cross_shard_remap_moves_chunk_and_overwrites_stale_lbn() {
        let c = shards(1 << 20, 8);
        // A stale LBN copy and a fresher FHO copy; with 8 shards the two
        // keys almost surely hash apart (and the code path handles both).
        c.insert_lbn(Lbn(5), seg(0xAA, 4096), 4096, false).expect("fits");
        c.insert_fho(fho(7, 0), seg(0xBB, 4096), 4096).expect("fits");
        let pinned = c.pinned_bytes();
        let segs = c.remap(fho(7, 0), Lbn(5)).expect("remapped");
        assert_eq!(segs[0].as_slice(), &vec![0xBB; 4096][..]);
        assert!(!c.contains(CacheKey::Fho(fho(7, 0))));
        assert_eq!(c.chunk_bytes(Lbn(5).into()), Some(vec![0xBB; 4096]));
        assert!(c.is_dirty(Lbn(5).into()));
        assert_eq!(c.len(), 1, "stale copy dropped, one chunk remains");
        assert_eq!(
            c.pinned_bytes(),
            pinned - 4096,
            "stale LBN pin released; moved pin travelled with the chunk"
        );
        assert_eq!(c.stats().remaps, 1);
    }

    #[test]
    fn dirty_fho_chunks_are_never_victims_across_shards() {
        let c = shards(8192, 8);
        c.insert_fho(fho(1, 0), seg(1, 4096), 4096).expect("fits");
        c.insert_lbn(Lbn(2), seg(2, 4096), 4096, false).expect("fits");
        c.insert_lbn(Lbn(3), seg(3, 4096), 4096, false).expect("evicts");
        assert!(c.contains(CacheKey::Fho(fho(1, 0))), "dirty FHO pinned");
        assert!(!c.contains(Lbn(2).into()));
        // A set full of dirty FHO chunks is CacheFull, as for one shard.
        let full = shards(8192, 8);
        full.insert_fho(fho(1, 0), seg(1, 4096), 4096).expect("fits");
        full.insert_fho(fho(1, 4096), seg(2, 4096), 4096).expect("fits");
        assert!(matches!(
            full.insert_lbn(Lbn(9), seg(3, 4096), 4096, false),
            Err(CacheFull)
        ));
    }

    #[test]
    fn resolve_prefers_fho_across_shards() {
        let c = shards(1 << 20, 8);
        c.insert_lbn(Lbn(5), seg(0xAA, 4096), 4096, false).expect("fits");
        c.insert_fho(fho(7, 0), seg(0xBB, 4096), 4096).expect("fits");
        let stamp = KeyStamp::new().with_fho(fho(7, 0)).with_lbn(Lbn(5));
        let (key, segs) = c.resolve(&stamp).expect("resident");
        assert_eq!(key, CacheKey::Fho(fho(7, 0)));
        assert_eq!(segs[0].as_slice()[0], 0xBB);
        c.set_resolve_lbn_first(true);
        let (key, _) = c.resolve(&stamp).expect("resident");
        assert_eq!(key, CacheKey::Lbn(Lbn(5)), "ablation flips the order");
    }

    #[test]
    fn clean_keys_are_globally_lru_ordered() {
        let c = shards(1 << 20, 8);
        for b in 0..12u64 {
            c.insert_lbn(Lbn(b), seg(b as u8, 4096), 4096, false).expect("fits");
        }
        // Promote a few out of insertion order.
        c.lookup(Lbn(3).into());
        c.lookup(Lbn(0).into());
        let keys = c.clean_keys();
        assert_eq!(keys.len(), 12);
        assert_eq!(keys[10], CacheKey::Lbn(Lbn(3)));
        assert_eq!(keys[11], CacheKey::Lbn(Lbn(0)));
        // And it matches the single cache run step for step.
        let oracle = shards(1 << 20, 1);
        for b in 0..12u64 {
            oracle.insert_lbn(Lbn(b), seg(b as u8, 4096), 4096, false).expect("fits");
        }
        oracle.lookup(Lbn(3).into());
        oracle.lookup(Lbn(0).into());
        assert_eq!(keys, oracle.clean_keys());
    }

    #[test]
    fn epoch_windows_make_victim_sets_interleaving_invariant() {
        // Two lanes each touch their own block inside (epoch, tie)
        // windows. Whatever order the touches actually execute in, the
        // final LRU order is the (epoch, tie) order — so the eviction
        // victim is the same.
        use sim::epoch::{enter_window, stamp_base};
        let run = |flip: bool| {
            let c = shards(3 * 4096, 4);
            for b in 0..3u64 {
                c.insert_lbn(Lbn(b), seg(b as u8, 4096), 4096, false).expect("fits");
            }
            // Lane 0 (tie 0) touches block 0; lane 1 (tie 1) touches
            // block 1 — executed in either order.
            let touches: [(u64, u64); 2] = if flip { [(1, 1), (0, 0)] } else { [(0, 0), (1, 1)] };
            for (tie, block) in touches {
                let _g = enter_window(stamp_base(0, tie));
                c.lookup(Lbn(block).into());
            }
            c.advance_clock_past(stamp_base(1, 0));
            c.insert_lbn(Lbn(9), seg(9, 4096), 4096, false).expect("evicts");
            let mut resident: Vec<bool> = (0..3).map(|b| c.contains(Lbn(b).into())).collect();
            resident.push(c.contains(Lbn(9).into()));
            resident
        };
        let a = run(false);
        let b = run(true);
        assert_eq!(a, b, "victim set must not depend on execution order");
        assert_eq!(a, vec![true, true, false, true], "block 2 (untouched) evicted");
    }
}

//! The two-part network-centric cache: LBN cache + FHO cache on one LRU.
//!
//! §3.4 of the paper, mechanised:
//!
//! * two key spaces, one chunk store: iSCSI read responses are indexed by
//!   logical block number, NFS write payloads by ⟨file handle, offset⟩;
//! * one global LRU order of chunks; reclaiming prefers the LRU end, frees
//!   clean chunks silently, and writes dirty LBN chunks back to the storage
//!   server first. The chunks live in a [`sim::RecencyMap`] with one
//!   class per reclaimable kind — clean chunks and dirty LBN chunks — and
//!   the victim is the older of the two class heads;
//! * dirty FHO chunks are *not* evictable — they have no storage address
//!   until the file system flush remaps them (the paper sizes the FS cache
//!   small precisely so remapping always happens before the LBN copy would
//!   be flushed); they are in neither class;
//! * `remap` moves an FHO entry into the LBN space, overwriting any stale
//!   LBN entry ("data in the FHO cache is always more up-to-date");
//! * `resolve` consults FHO before LBN so clients always see fresh data.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use netbuf::key::{CacheKey, Fho, Lbn};
use netbuf::{BufPool, SegChain, Segment};
use sim::{mix64, LaneCounters, RecencyClass, RecencyHead, RecencyMap, Resident};

use sim::GhostLru;
use crate::chunk::Chunk;

/// Encodes a cache key into the ghost tail's u64 key space: LBN keys map
/// losslessly (block ≪ 1), FHO keys hash through the workspace mixer with
/// the low bit set so the two spaces never collide. Deterministic across
/// runs, platforms, and shard counts.
fn ghost_key(key: CacheKey) -> u64 {
    match key {
        CacheKey::Lbn(Lbn(block)) => block << 1,
        CacheKey::Fho(Fho { fh, offset }) => {
            (mix64(mix64(fh.0) ^ offset) << 1) | 1
        }
    }
}

/// Monotone recency-sequence source. Every shard of one logical cache
/// shares a single source so the LRU order is *global* across shards —
/// the property that makes [`crate::shards::NetCacheShards`] byte-identical
/// to a single-shard [`NetCache`] (same victims, same stats, same
/// writeback order).
///
/// Sequentially this is the old `Cell<u64>` counter verbatim: `next()`
/// returns the current value and bumps it by one. When the calling thread
/// is inside an epoch window (the lane-parallel engine,
/// [`crate::epoch`]), stamps come from the window instead, so recency
/// order is a pure function of lane program order rather than thread
/// interleaving.
#[derive(Clone, Debug, Default)]
pub(crate) struct SeqSource(Arc<AtomicU64>);

impl SeqSource {
    fn next(&self) -> u64 {
        self.reserve(1)
    }

    /// Reserves `n` consecutive stamps and returns the first — what `n`
    /// calls of [`SeqSource::next`] with nothing in between would draw.
    pub(crate) fn reserve(&self, n: u64) -> u64 {
        sim::epoch::window_stamps(n).unwrap_or_else(|| self.0.fetch_add(n, Ordering::Relaxed))
    }

    /// Advances the counter past `stamp` (no-op if already beyond). The
    /// parallel engine calls this after a run so sequential accesses that
    /// follow still stamp as most recent despite the high epoch stamps.
    pub(crate) fn advance_past(&self, stamp: u64) {
        self.0.fetch_max(stamp + 1, Ordering::Relaxed);
    }
}

/// Error returned when a chunk cannot be admitted: every resident chunk is
/// a dirty, unremapped FHO entry, so nothing can be reclaimed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheFull;

impl fmt::Display for CacheFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "network-centric cache full of unremapped dirty chunks")
    }
}

impl std::error::Error for CacheFull {}

/// A dirty chunk evicted from the LBN cache; the caller must write it back
/// to the storage server.
#[derive(Debug)]
pub struct WritebackChunk {
    /// The block's storage address.
    pub lbn: Lbn,
    /// The payload, shared (logical copy) for attaching to an iSCSI write.
    pub segs: SegChain,
    /// Payload length.
    pub len: usize,
}

/// Operation counters; the testbed charges NCache management CPU time per
/// counted operation, which is exactly the overhead separating NFS-NCache
/// from NFS-baseline in Figures 4-7.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetCacheStats {
    /// Key lookups (hits + misses).
    pub lookups: u64,
    /// Lookup hits.
    pub hits: u64,
    /// Chunk insertions.
    pub insertions: u64,
    /// FHO→LBN remappings.
    pub remaps: u64,
    /// Clean chunks reclaimed.
    pub evicted_clean: u64,
    /// Dirty chunks written back and reclaimed.
    pub evicted_dirty: u64,
}

impl obs::StatsSnapshot for NetCacheStats {
    fn source(&self) -> &'static str {
        "ncache"
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("lookups", self.lookups),
            ("hits", self.hits),
            ("insertions", self.insertions),
            ("remaps", self.remaps),
            ("evicted_clean", self.evicted_clean),
            ("evicted_dirty", self.evicted_dirty),
        ]
    }
}

impl NetCacheStats {
    /// Hit ratio in `[0, 1]`: hits over *lookups only*. Insertions and
    /// remaps are management traffic, not cache accesses — including them
    /// in the denominator would make per-shard ratios impossible to merge
    /// (each shard sees a different ops mix). With the lookup-only
    /// denominator, [`NetCacheStats::merge`]d shard counters reproduce the
    /// single-cache ratio exactly.
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Accumulates `other` into `self` field-wise. Merging every shard's
    /// counters yields the whole-cache stats: all six fields are pure
    /// event counts, so addition is exact.
    pub fn merge(&mut self, other: &NetCacheStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.insertions += other.insertions;
        self.remaps += other.remaps;
        self.evicted_clean += other.evicted_clean;
        self.evicted_dirty += other.evicted_dirty;
    }
}

// The recency classes of resident chunks.
/// Clean, under either key: reclaimed silently.
const CLEAN: usize = 0;
/// Dirty LBN: reclaimed after a writeback.
const DIRTY_LBN: usize = 1;

/// A dirty FHO chunk is in no class: it cannot be reclaimed until it is
/// remapped.
impl RecencyClass<CacheKey> for Chunk {
    fn class(&self, key: &CacheKey) -> Option<usize> {
        match (self.is_dirty(), key) {
            (false, _) => Some(CLEAN),
            (true, CacheKey::Lbn(_)) => Some(DIRTY_LBN),
            (true, CacheKey::Fho(_)) => None,
        }
    }
}

/// A resident chunk with its recency stamps.
pub(crate) type Entry = Resident<Chunk>;

/// A reclaimable chunk named by its settled stamp, key and slot.
pub(crate) type Victim = RecencyHead<CacheKey>;

// Counter indices into a cache's [`LaneCounters`], one per
// [`NetCacheStats`] field.
const LOOKUPS: usize = 0;
const HITS: usize = 1;
const INSERTIONS: usize = 2;
const REMAPS: usize = 3;
const EVICTED_CLEAN: usize = 4;
const EVICTED_DIRTY: usize = 5;

/// Interior-mutable operation counters, so hit lookups can count through
/// a shared reference — lane-striped, so concurrent hit lookups of one
/// shard count on their own cache lines. Relaxed adds: each field is an
/// independent event count, and [`NetCache::stats`] snapshots are only
/// compared at quiescent points (every load then reads a settled value).
type StatsCells = LaneCounters<6>;

/// The keys a stamp resolves through, in order: FHO before LBN (§3.4)
/// unless the ablation knob flips it.
pub(crate) fn resolution_order(
    stamp: &netbuf::key::KeyStamp,
    fho_first: bool,
) -> [Option<CacheKey>; 2] {
    let fho_key = stamp.fho.map(CacheKey::Fho);
    let lbn_key = stamp.lbn.map(CacheKey::Lbn);
    if fho_first {
        [fho_key, lbn_key]
    } else {
        [lbn_key, fho_key]
    }
}

/// The network-centric cache.
///
/// # Examples
///
/// ```
/// use ncache::cache::NetCache;
/// use netbuf::key::Lbn;
/// use netbuf::{BufPool, Segment};
///
/// let mut cache = NetCache::new(BufPool::new(1 << 20), 256);
/// cache.insert_lbn(Lbn(9), vec![Segment::from_vec(vec![1; 4096])], 4096, false)?;
/// assert!(cache.lookup(Lbn(9).into()).is_some());
/// # Ok::<(), ncache::CacheFull>(())
/// ```
pub struct NetCache {
    /// The chunks, in the classes [`CLEAN`] and [`DIRTY_LBN`].
    map: RecencyMap<CacheKey, Chunk, 2>,
    seq: SeqSource,
    pool: BufPool,
    per_chunk_overhead: u64,
    stats: StatsCells,
    /// Shadow tail of recently evicted keys; `None` until the adaptive
    /// split is enabled. Shards of one logical cache share a single tail
    /// (the `Arc`), so ghost membership is a function of the *global*
    /// eviction sequence — shard-count-invariant even under displacement.
    /// Pure observer: recording and probing never draw stamps, never bump
    /// tallies, never influence victim selection.
    pub(crate) ghost: Option<Arc<Mutex<GhostLru>>>,
}

impl NetCache {
    /// A cache pinning memory from `pool`; each chunk additionally pins
    /// `per_chunk_overhead` bytes of descriptor memory (the metadata cost
    /// visible in Figure 6(a)'s working-set sweep).
    pub fn new(pool: BufPool, per_chunk_overhead: u64) -> Self { // test-api: the plain cache shard_equivalence holds the shard set to
        Self::with_seq_source(pool, per_chunk_overhead, SeqSource::default())
    }

    /// A shard of a larger logical cache: `pool` is the *shared* pinned
    /// pool and `seq` the *shared* recency source, so capacity pressure
    /// and LRU age are global properties of the shard set.
    pub(crate) fn with_seq_source(pool: BufPool, per_chunk_overhead: u64, seq: SeqSource) -> Self {
        NetCache {
            map: RecencyMap::new(),
            seq,
            pool,
            per_chunk_overhead,
            stats: StatsCells::default(),
            ghost: None,
        }
    }

    /// Installs a (possibly shared) ghost tail.
    pub(crate) fn set_ghost(&mut self, ghost: Arc<Mutex<GhostLru>>) {
        self.ghost = Some(ghost);
    }

    /// The ghost tail's hits so far (0 when no tail is attached).
    pub fn ghost_hits(&self) -> u64 {
        self.ghost
            .as_ref()
            .map_or(0, |g| g.lock().expect("ghost poisoned").hits())
    }

    /// Chunks currently resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> NetCacheStats {
        let t = self.stats.totals();
        NetCacheStats {
            lookups: t[LOOKUPS],
            hits: t[HITS],
            insertions: t[INSERTIONS],
            remaps: t[REMAPS],
            evicted_clean: t[EVICTED_CLEAN],
            evicted_dirty: t[EVICTED_DIRTY],
        }
    }

    /// Whether `key` is resident (no LRU promotion, no counter change).
    pub fn contains(&self, key: CacheKey) -> bool {
        self.map.contains_key(&key)
    }

    /// Whether `key` is resident and dirty.
    pub fn is_dirty(&self, key: CacheKey) -> bool {
        self.map.get(&key).is_some_and(|e| e.is_dirty())
    }

    /// Inserts a chunk arriving from the storage server (iSCSI Data-In).
    ///
    /// # Errors
    ///
    /// [`CacheFull`] when space cannot be reclaimed. On success, any dirty
    /// chunks displaced by the LRU are returned for writeback.
    pub fn insert_lbn(
        &mut self,
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
    /// [`CacheFull`] as for [`NetCache::insert_lbn`].
    pub fn insert_fho(
        &mut self,
        fho: Fho,
        segs: impl Into<SegChain>,
        len: usize,
    ) -> Result<Vec<WritebackChunk>, CacheFull> {
        self.insert(CacheKey::Fho(fho), segs.into(), len, true)
    }

    fn insert(
        &mut self,
        key: CacheKey,
        segs: SegChain,
        len: usize,
        dirty: bool,
    ) -> Result<Vec<WritebackChunk>, CacheFull> {
        self.note_insertion();
        // Replace any existing entry under this key first (its pin frees).
        self.remove_entry(key);
        let need = len as u64 + self.per_chunk_overhead;
        let mut writebacks = Vec::new();
        let pin = loop {
            match self.pool.pin(need) {
                Ok(p) => break p,
                Err(_) => {
                    if let Some(wb) = self.reclaim_one()? {
                        writebacks.push(wb);
                    }
                }
            }
        };
        let chunk = Chunk::new(segs, len, dirty, pin);
        self.insert_chunk_fresh(key, chunk);
        Ok(writebacks)
    }

    /// Looks `key` up, promoting it to most-recently-used and returning
    /// its payload segments (a logical copy).
    ///
    /// Promotion is *via max*: the entry keeps the larger of its current
    /// stamp and the fresh one. Sequentially the fresh stamp is always
    /// larger (the counter is monotone), so this is the classic LRU
    /// promotion byte for byte; under epoch windows it makes a chunk's
    /// final LRU position the maximum over its access stamps — a function
    /// of the access multiset, not of thread interleaving.
    ///
    /// This is the read fast path: it takes `&self` (shared), mutates no
    /// map, and leaves the lazy recency index untouched. The promotion
    /// (`fetch_max`) and the counters are atomics; everything else is a
    /// read. The shard set exploits this by serving lookups under a read
    /// lock, so concurrent hit lookups never serialize against each
    /// other.
    pub fn lookup(&self, key: CacheKey) -> Option<Vec<Segment>> {
        let mut out = Vec::new();
        self.lookup_into(key, usize::MAX, &mut out).then_some(out)
    }

    /// [`NetCache::lookup`] sharing the hit's payload straight into `out`
    /// (appended, clipped to `limit` bytes) instead of a fresh vector —
    /// packet substitution resolves every placeholder of a reply into one
    /// outgoing chain this way, with no allocation per chunk. Returns
    /// whether `key` was resident; a miss leaves `out` untouched.
    pub fn lookup_into(&self, key: CacheKey, limit: usize, out: &mut Vec<Segment>) -> bool {
        let entry = self.probe(key);
        match entry {
            Some(entry) => self.count_hit(entry, self.seq.next(), limit, out),
            None => self.count_miss(key),
        }
        entry.is_some()
    }

    /// The entry under `key`, found with a plain probe: no counter, tally,
    /// stamp or ghost probe. Batched resolution probes a whole reply this
    /// way before counting any of it
    /// ([`crate::shards::NetCacheShards::resolve_all`]).
    pub(crate) fn probe(&self, key: CacheKey) -> Option<&Entry> {
        self.map.get(&key)
    }

    /// The counted half of a lookup that hit `entry`: promotes it to
    /// `stamp` (drawn from this cache's [`SeqSource`]) and shares its
    /// payload into `out`, clipped to `limit` bytes.
    pub(crate) fn count_hit(
        &self,
        entry: &Entry,
        stamp: u64,
        limit: usize,
        out: &mut Vec<Segment>,
    ) {
        let counts = self.stats.lane();
        counts.add(LOOKUPS, 1);
        counts.add(HITS, 1);
        sim::epoch::bump_ncache_tally();
        entry.promote(stamp);
        entry.share_segments_into(limit, out);
    }

    /// The counted half of a lookup that missed. A miss consults the
    /// ghost tail: a hit there is a request a larger NCache quota would
    /// have served. Observation only — no stamp, no admission.
    pub(crate) fn count_miss(&self, key: CacheKey) {
        self.stats.add(LOOKUPS, 1);
        sim::epoch::bump_ncache_tally();
        if let Some(g) = &self.ghost {
            g.lock().expect("ghost poisoned").probe(ghost_key(key));
        }
    }

    /// Remaps an FHO entry to an LBN key when the file system flushes the
    /// corresponding dirty buffer, overwriting any stale LBN entry.
    /// Returns the (still dirty) payload for the outgoing iSCSI write, or
    /// `None` if the FHO entry is absent.
    pub fn remap(&mut self, fho: Fho, lbn: Lbn) -> Option<SegChain> {
        self.note_remap();
        let chunk = self.remove_entry(CacheKey::Fho(fho))?;
        // Overwrite any stale LBN copy — "data in the FHO cache is always
        // more up-to-date" (§3.4).
        self.remove_entry(CacheKey::Lbn(lbn));
        let segs = chunk.share_segments();
        self.insert_chunk_fresh(CacheKey::Lbn(lbn), chunk);
        Some(segs)
    }

    /// Marks a chunk clean after its data reached the storage server.
    /// The map files it clean under its true stamp (it may have been
    /// promoted since it was filed dirty, or never filed at all).
    pub fn mark_clean(&mut self, key: CacheKey) {
        self.map.update(&key, Chunk::mark_clean);
    }

    /// Records an inheritable checksum on a resident chunk.
    pub fn set_csum(&mut self, key: CacheKey, csum: u16) {
        self.map.update(&key, |chunk| chunk.set_csum(csum));
    }

    /// The stored checksum of a resident chunk.
    pub fn stored_csum(&self, key: CacheKey) -> Option<u16> {
        self.map.get(&key).and_then(|e| e.stored_csum())
    }

    /// Removes a chunk outright (no writeback), returning whether it was
    /// resident.
    pub fn invalidate(&mut self, key: CacheKey) -> bool {
        self.remove_entry(key).is_some()
    }

    /// Materialized contents of a resident chunk (integrity checks).
    pub fn chunk_bytes(&self, key: CacheKey) -> Option<Vec<u8>> {
        self.map.get(&key).map(|e| e.to_bytes())
    }

    pub(crate) fn remove_entry(&mut self, key: CacheKey) -> Option<Chunk> {
        self.map.remove(&key)
    }

    /// Inserts an already-built chunk at a fresh (most-recently-used)
    /// sequence number. The chunk's pool pin travels with it.
    pub(crate) fn insert_chunk_fresh(&mut self, key: CacheKey, chunk: Chunk) {
        self.map.insert(key, chunk, self.seq.next());
    }

    /// Counts an insertion attempt (the shard set charges the target
    /// shard before running the global reclaim loop, exactly as
    /// [`NetCache::insert`] charges itself).
    pub(crate) fn note_insertion(&mut self) {
        self.stats.add(INSERTIONS, 1);
        sim::epoch::bump_ncache_tally();
    }

    /// Counts a remap (the shard set charges the shard the FHO entry
    /// lives in when the move crosses shards).
    pub(crate) fn note_remap(&mut self) {
        self.stats.add(REMAPS, 1);
        sim::epoch::bump_ncache_tally();
    }

    /// The least-recently-used *reclaimable* chunk — the older of the
    /// settled heads of the clean class and, unless `clean_only`, the
    /// dirty-LBN class. Each head is the true minimum of its class
    /// ([`RecencyMap::head`]), so the victim is exactly the chunk one
    /// eagerly ordered index over every reclaimable chunk would have
    /// picked.
    fn lru_victim(&mut self, clean_only: bool) -> Option<Victim> {
        let clean = self.map.head(CLEAN);
        if clean_only {
            return clean;
        }
        let dirty = self.map.head(DIRTY_LBN);
        [clean, dirty].into_iter().flatten().min_by_key(|h| h.stamp)
    }

    /// This cache's least-recently-used *reclaimable* chunk (clean, or
    /// dirty LBN), or `None` when every resident chunk is a pinned dirty
    /// FHO entry. The shard set takes the minimum stamp across shards as
    /// the global victim and hands it back to
    /// [`NetCache::reclaim_victim`]. Takes `&mut` because it settles the
    /// lazy recency index (see [`NetCache::lru_victim`]).
    pub(crate) fn reclaimable_head(&mut self) -> Option<Victim> {
        self.lru_victim(false)
    }

    /// The sequence number of this cache's least-recently-used *clean*
    /// chunk, or `None` when every resident chunk is dirty. The shard set
    /// uses this during tick-time quota shrinks, which must not trigger
    /// writebacks (writeback timing belongs to request chains, not to the
    /// controller).
    pub(crate) fn clean_head_seq(&mut self) -> Option<u64> {
        self.lru_victim(true).map(|h| h.stamp)
    }

    /// Bytes a chunk of `len` payload bytes pins (payload + descriptor).
    pub(crate) fn chunk_footprint(&self, len: usize) -> u64 {
        len as u64 + self.per_chunk_overhead
    }

    /// Clean resident keys tagged with their *true* LRU sequence, for the
    /// shard set to merge into one globally LRU-ordered list. Reads the
    /// true stamps directly (no settling needed), so it stays `&self`;
    /// callers sort by stamp.
    pub(crate) fn clean_keys_with_seq(&self) -> Vec<(u64, CacheKey)> {
        self.map.members(CLEAN).collect()
    }

    /// Reclaims the least-recently-used reclaimable chunk. Clean chunks
    /// free silently (`Ok(None)`); dirty LBN chunks are removed and
    /// returned for writeback; dirty FHO chunks are skipped (they must be
    /// remapped first).
    ///
    /// # Errors
    ///
    /// [`CacheFull`] when every resident chunk is an unremapped dirty FHO
    /// entry.
    pub(crate) fn reclaim_one(&mut self) -> Result<Option<WritebackChunk>, CacheFull> {
        let victim = self.lru_victim(false).ok_or(CacheFull)?;
        Ok(self
            .reclaim_victim(victim)
            .expect("a head just named is live"))
    }

    /// Reclaims the chunk a [`NetCache::reclaimable_head`] scan named, by
    /// its slot, without searching for it again: ghost record, counters,
    /// and the writeback if it was a dirty LBN chunk. `None` means the
    /// scan's answer expired before the lock came back — a racing lane
    /// removed, replaced, re-filed or promoted the chunk — and the caller
    /// rescans. (On one thread it never does.)
    pub(crate) fn reclaim_victim(&mut self, victim: Victim) -> Option<Option<WritebackChunk>> {
        let chunk = self.map.take(victim)?;
        let RecencyHead { stamp, key, .. } = victim;
        if let Some(g) = &self.ghost {
            g.lock()
                .expect("ghost poisoned")
                .record(ghost_key(key), stamp);
        }
        if !chunk.is_dirty() {
            self.stats.add(EVICTED_CLEAN, 1);
            return Some(None);
        }
        self.stats.add(EVICTED_DIRTY, 1);
        let CacheKey::Lbn(lbn) = key else {
            unreachable!("dirty FHO chunks are never victims");
        };
        Some(Some(WritebackChunk {
            lbn,
            segs: chunk.share_segments(),
            len: chunk.len(),
        }))
    }

    /// Reclaims the least-recently-used *clean* chunk (LBN or FHO),
    /// recording it in the ghost tail like any other eviction. Returns
    /// `false` when every resident chunk is dirty — the tick-time shrink
    /// then leaves the overshoot for the demand path to drain. Never
    /// produces a writeback.
    pub(crate) fn reclaim_one_clean(&mut self) -> bool {
        let Some(victim) = self.lru_victim(true) else {
            return false;
        };
        let writeback = self
            .reclaim_victim(victim)
            .expect("a head just named is live");
        debug_assert!(writeback.is_none(), "clean victim selection");
        true
    }

    /// Checks the recency index against the chunks
    /// ([`RecencyMap::check`]): every clean and every dirty LBN chunk is
    /// filed live exactly once, in its class, and dirty FHO chunks are
    /// filed nowhere.
    ///
    /// # Errors
    ///
    /// A description of the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.map.check().map_err(|e| format!("ncache: {e}"))
    }
}

impl fmt::Debug for NetCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetCache")
            .field("chunks", &self.map.len())
            .field("pinned_bytes", &self.pool.pinned())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The winning key of `stamp` and its payload (FHO first, §3.4).
    fn resolve(c: &NetCache, stamp: &netbuf::key::KeyStamp) -> Option<(CacheKey, Vec<Segment>)> {
        let mut out = Vec::new();
        let mut keys = resolution_order(stamp, true).into_iter().flatten();
        keys.find(|&key| c.lookup_into(key, usize::MAX, &mut out)).map(|key| (key, out))
    }
    use netbuf::key::{FileHandle, KeyStamp};

    fn seg(tag: u8, len: usize) -> Vec<Segment> {
        vec![Segment::from_vec(vec![tag; len])]
    }

    fn cache(capacity: u64) -> NetCache {
        NetCache::new(BufPool::new(capacity), 0)
    }

    fn fho(fh: u64, off: u64) -> Fho {
        Fho::new(FileHandle(fh), off)
    }

    #[test]
    fn insert_and_lookup_lbn() {
        let mut c = cache(1 << 20);
        c.insert_lbn(Lbn(1), seg(1, 4096), 4096, false).expect("fits");
        let got = c.lookup(Lbn(1).into()).expect("resident");
        assert_eq!(got[0].as_slice(), &vec![1u8; 4096][..]);
        assert!(c.lookup(Lbn(2).into()).is_none());
        let s = c.stats();
        assert_eq!(s.lookups, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.insertions, 1);
    }

    #[test]
    fn lru_evicts_clean_silently() {
        let mut c = cache(8192);
        c.insert_lbn(Lbn(1), seg(1, 4096), 4096, false).expect("fits");
        c.insert_lbn(Lbn(2), seg(2, 4096), 4096, false).expect("fits");
        let wb = c.insert_lbn(Lbn(3), seg(3, 4096), 4096, false).expect("evicts");
        assert!(wb.is_empty(), "clean eviction needs no writeback");
        assert!(!c.contains(Lbn(1).into()), "LRU chunk reclaimed");
        assert!(c.contains(Lbn(2).into()));
        assert!(c.contains(Lbn(3).into()));
        assert_eq!(c.stats().evicted_clean, 1);
    }

    #[test]
    fn lookup_promotes() {
        let mut c = cache(8192);
        c.insert_lbn(Lbn(1), seg(1, 4096), 4096, false).expect("fits");
        c.insert_lbn(Lbn(2), seg(2, 4096), 4096, false).expect("fits");
        c.lookup(Lbn(1).into());
        c.insert_lbn(Lbn(3), seg(3, 4096), 4096, false).expect("evicts");
        assert!(c.contains(Lbn(1).into()), "promoted chunk survives");
        assert!(!c.contains(Lbn(2).into()));
    }

    #[test]
    fn dirty_lbn_eviction_returns_writeback() {
        let mut c = cache(8192);
        c.insert_lbn(Lbn(1), seg(1, 4096), 4096, true).expect("fits");
        c.insert_lbn(Lbn(2), seg(2, 4096), 4096, false).expect("fits");
        let wb = c.insert_lbn(Lbn(3), seg(3, 4096), 4096, false).expect("evicts");
        assert_eq!(wb.len(), 1);
        assert_eq!(wb[0].lbn, Lbn(1));
        assert_eq!(wb[0].len, 4096);
        assert_eq!(wb[0].segs[0].as_slice(), &vec![1u8; 4096][..]);
        assert_eq!(c.stats().evicted_dirty, 1);
    }

    #[test]
    fn dirty_fho_chunks_are_never_victims() {
        let mut c = cache(8192);
        c.insert_fho(fho(1, 0), seg(1, 4096), 4096).expect("fits");
        c.insert_lbn(Lbn(2), seg(2, 4096), 4096, false).expect("fits");
        // Inserting a third must evict the *clean LBN* chunk even though
        // the FHO chunk is older.
        c.insert_lbn(Lbn(3), seg(3, 4096), 4096, false).expect("evicts");
        assert!(c.contains(CacheKey::Fho(fho(1, 0))));
        assert!(!c.contains(Lbn(2).into()));
    }

    #[test]
    fn cache_full_of_dirty_fho_errors() {
        let mut c = cache(8192);
        c.insert_fho(fho(1, 0), seg(1, 4096), 4096).expect("fits");
        c.insert_fho(fho(1, 4096), seg(2, 4096), 4096).expect("fits");
        assert!(matches!(
            c.insert_lbn(Lbn(9), seg(3, 4096), 4096, false),
            Err(CacheFull)
        ));
        assert!(CacheFull.to_string().contains("unremapped"));
    }

    #[test]
    fn remap_moves_fho_to_lbn_and_overwrites() {
        let mut c = cache(1 << 20);
        // Stale LBN copy and a fresher FHO copy of the same block.
        c.insert_lbn(Lbn(5), seg(0xAA, 4096), 4096, false).expect("fits");
        c.insert_fho(fho(7, 0), seg(0xBB, 4096), 4096).expect("fits");
        let segs = c.remap(fho(7, 0), Lbn(5)).expect("remapped");
        assert_eq!(segs[0].as_slice(), &vec![0xBB; 4096][..]);
        assert!(!c.contains(CacheKey::Fho(fho(7, 0))));
        // The LBN entry now holds the fresh data and stays dirty until
        // writeback completes.
        assert_eq!(c.chunk_bytes(Lbn(5).into()), Some(vec![0xBB; 4096]));
        assert!(c.is_dirty(Lbn(5).into()));
        c.mark_clean(Lbn(5).into());
        assert!(!c.is_dirty(Lbn(5).into()));
        assert_eq!(c.stats().remaps, 1);
    }

    #[test]
    fn remap_missing_fho_is_none() {
        let mut c = cache(1 << 20);
        assert!(c.remap(fho(1, 0), Lbn(1)).is_none());
    }

    #[test]
    fn resolve_prefers_fho_over_lbn() {
        let mut c = cache(1 << 20);
        c.insert_lbn(Lbn(5), seg(0xAA, 4096), 4096, false).expect("fits");
        c.insert_fho(fho(7, 0), seg(0xBB, 4096), 4096).expect("fits");
        let stamp = KeyStamp::new().with_fho(fho(7, 0)).with_lbn(Lbn(5));
        let (key, segs) = resolve(&c, &stamp).expect("resident");
        assert_eq!(key, CacheKey::Fho(fho(7, 0)));
        assert_eq!(segs[0].as_slice()[0], 0xBB, "client sees the fresh write");
    }

    #[test]
    fn resolve_falls_back_to_lbn() {
        let mut c = cache(1 << 20);
        c.insert_lbn(Lbn(5), seg(0xAA, 4096), 4096, false).expect("fits");
        let stamp = KeyStamp::new().with_fho(fho(9, 0)).with_lbn(Lbn(5));
        let (key, _) = resolve(&c, &stamp).expect("resident");
        assert_eq!(key, CacheKey::Lbn(Lbn(5)));
        assert!(resolve(&c, &KeyStamp::new()).is_none());
    }

    #[test]
    fn reinsert_replaces_and_releases_pin() {
        let mut c = cache(1 << 20);
        c.insert_lbn(Lbn(1), seg(1, 4096), 4096, false).expect("fits");
        let pinned = c.pool.pinned();
        c.insert_lbn(Lbn(1), seg(9, 4096), 4096, false).expect("fits");
        assert_eq!(c.pool.pinned(), pinned, "old pin released");
        assert_eq!(c.len(), 1);
        assert_eq!(c.chunk_bytes(Lbn(1).into()), Some(vec![9u8; 4096]));
    }

    #[test]
    fn per_chunk_overhead_shrinks_effective_capacity() {
        // With 256 B of metadata per chunk, a 12 KiB pool holds only two
        // 4 KiB chunks instead of three — Figure 6(a)'s effect.
        let mut with_overhead = NetCache::new(BufPool::new(3 * 4096 + 256), 256);
        for i in 0..3u64 {
            with_overhead
                .insert_lbn(Lbn(i), seg(i as u8, 4096), 4096, false)
                .expect("insert");
        }
        assert_eq!(with_overhead.len(), 2);
        let mut without = NetCache::new(BufPool::new(3 * 4096 + 256), 0);
        for i in 0..3u64 {
            without
                .insert_lbn(Lbn(i), seg(i as u8, 4096), 4096, false)
                .expect("insert");
        }
        assert_eq!(without.len(), 3);
    }

    #[test]
    fn invalidate_and_csum() {
        let mut c = cache(1 << 20);
        c.insert_lbn(Lbn(1), seg(1, 64), 64, false).expect("fits");
        c.set_csum(Lbn(1).into(), 0x1234);
        assert_eq!(c.stored_csum(Lbn(1).into()), Some(0x1234));
        assert!(c.invalidate(Lbn(1).into()));
        assert!(!c.invalidate(Lbn(1).into()));
        assert_eq!(c.stored_csum(Lbn(1).into()), None);
        assert!(c.is_empty());
    }

    #[test]
    fn stats_count_ops_and_hit_ratio() {
        let mut c = cache(1 << 20);
        c.insert_lbn(Lbn(1), seg(1, 64), 64, false).expect("fits");
        c.lookup(Lbn(1).into());
        c.lookup(Lbn(2).into());
        let s = c.stats();
        assert_eq!((s.lookups, s.insertions, s.remaps), (2, 1, 0));
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(NetCacheStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn hit_ratio_excludes_non_lookup_ops() {
        // Regression: the ratio must divide by lookups only. If insertions
        // or remaps leaked into the denominator, per-shard ratios could
        // not be merged (shards see different insert/lookup mixes).
        let mut s = NetCacheStats {
            lookups: 4,
            hits: 3,
            ..NetCacheStats::default()
        };
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
        // Pile on management traffic: the ratio must not move.
        s.insertions = 1000;
        s.remaps = 500;
        s.evicted_clean = 200;
        s.evicted_dirty = 100;
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);

        // Merging shard counters reproduces the whole-cache ratio even
        // when the per-shard mixes differ wildly.
        let shard_a = NetCacheStats {
            lookups: 10,
            hits: 9,
            insertions: 700,
            ..NetCacheStats::default()
        };
        let shard_b = NetCacheStats {
            lookups: 90,
            hits: 21,
            remaps: 3,
            ..NetCacheStats::default()
        };
        let mut merged = NetCacheStats::default();
        merged.merge(&shard_a);
        merged.merge(&shard_b);
        assert_eq!(merged.lookups, 100);
        assert_eq!(merged.hits, 30);
        assert_eq!(merged.insertions, 700);
        assert_eq!(merged.remaps, 3);
        assert!((merged.hit_ratio() - 0.30).abs() < 1e-12);
    }

    #[test]
    fn multi_segment_chunks_round_trip() {
        // A 4 KiB block arriving as three wire segments (1448+1448+1200).
        let mut c = cache(1 << 20);
        let segs = vec![
            Segment::from_vec(vec![1; 1448]),
            Segment::from_vec(vec![2; 1448]),
            Segment::from_vec(vec![3; 1200]),
        ];
        c.insert_lbn(Lbn(4), segs, 4096, false).expect("fits");
        let bytes = c.chunk_bytes(Lbn(4).into()).expect("resident");
        assert_eq!(bytes.len(), 4096);
        assert_eq!(bytes[0], 1);
        assert_eq!(bytes[1448], 2);
        assert_eq!(bytes[2896], 3);
    }
}

//! The file-system buffer cache.
//!
//! A bounded block cache with LRU ordering and the paper's reclamation
//! policy (§3.4): "When the file system buffer cache is full, first clean
//! buffers are reclaimed and then dirty buffers are flushed and reclaimed."
//! Blocks are stored as shareable [`Segment`]s so the zero-copy send paths
//! can attach a cached block to an outgoing packet without moving bytes.
//!
//! The cache's *capacity* is set from whatever RAM the NCache module has
//! not pinned (§4.1) — see `BufPool` in the `netbuf` crate.
//!
//! Since the concurrent-data-plane refactor, [`BufferCache::get`] takes
//! `&self`: hit promotion is an atomic `fetch_max` on the entry's recency
//! stamp and the counters are atomics, so concurrent hit lookups under a
//! shared reference (the NFS READ fast path holds only a read guard on
//! the rig) never serialize. The blocks live in a [`sim::RecencyMap`]
//! with three classes — clean data, clean metadata, dirty — whose lazy
//! index reproduces the eager LRU ordering exactly.
//!
//! Each counted access or insertion also bumps the calling thread's FS
//! op tally ([`sim::epoch::bump_fs_tally`]): the lane-parallel engine
//! charges buffer-cache CPU per op from it, since an op's accesses all
//! happen on its lane's thread.

use std::sync::atomic::{AtomicU64, Ordering};

use netbuf::Segment;
use sim::epoch::bump_fs_tally;
use sim::{LaneCounters, RecencyClass, RecencyMap, Resident};

use crate::store::BlockClass;

/// A block evicted (or flushed) from the cache that must be written to the
/// backing store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Writeback {
    /// Volume block address.
    pub lbn: u64,
    /// Metadata or regular data.
    pub class: BlockClass,
    /// Block contents.
    pub seg: Segment,
}

/// Cache hit/miss/eviction counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the block.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Blocks inserted.
    pub insertions: u64,
    /// Clean blocks reclaimed.
    pub evicted_clean: u64,
    /// Dirty blocks flushed-then-reclaimed.
    pub evicted_dirty: u64,
}

impl obs::StatsSnapshot for CacheStats {
    fn source(&self) -> &'static str {
        "fs-cache"
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("hits", self.hits),
            ("misses", self.misses),
            ("insertions", self.insertions),
            ("evicted_clean", self.evicted_clean),
            ("evicted_dirty", self.evicted_dirty),
        ]
    }
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; zero when no lookups happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Entry {
    seg: Segment,
    dirty: bool,
    class: BlockClass,
}

// The three eviction classes, in reclaim order.
const CLEAN_DATA: usize = 0;
const CLEAN_META: usize = 1;
const DIRTY: usize = 2;

impl RecencyClass<u64> for Entry {
    fn class(&self, _: &u64) -> Option<usize> {
        Some(match (self.dirty, self.class) {
            (true, _) => DIRTY,
            (false, BlockClass::Meta) => CLEAN_META,
            (false, BlockClass::Data) => CLEAN_DATA,
        })
    }
}

/// A resident block that has been probed but not yet counted: no tally,
/// stamp, counter or event has been spent on it. The multi-block read
/// walk collects these for a whole range and only then decides whether
/// to count the accesses ([`BufferCache::count_hits`]) or to walk away
/// leaving no trace.
#[derive(Clone, Copy, Debug)]
pub struct Probed<'a>(&'a Resident<Entry>);

impl<'a> Probed<'a> {
    /// The cached block; cloning it shares storage (a logical copy).
    pub fn seg(&self) -> &'a Segment {
        &self.0.seg
    }

    /// Promotes the block to recency `stamp` (one of a reservation made
    /// with [`BufferCache::count_hits`]). Promotion is via max, so a block
    /// accessed several times in one walk needs only its last stamp.
    pub fn promote(&self, stamp: u64) {
        self.0.promote(stamp);
    }
}

// Counter indices into the cache's [`LaneCounters`], one per
// [`CacheStats`] field.
const HITS: usize = 0;
const MISSES: usize = 1;
const INSERTIONS: usize = 2;
const EVICTED_CLEAN: usize = 3;
const EVICTED_DIRTY: usize = 4;

/// Interior-mutable counters so hits/misses can count through `&self`,
/// lane-striped so concurrent fast-path reads count on their own lines.
type StatsCells = LaneCounters<5>;

/// A bounded LRU block cache with clean-first eviction.
///
/// # Examples
///
/// ```
/// use netbuf::Segment;
/// use simfs::{BlockClass, BufferCache};
///
/// let mut cache = BufferCache::new(2);
/// cache.insert(1, Segment::zeroed(4096), BlockClass::Data, false);
/// cache.insert(2, Segment::zeroed(4096), BlockClass::Data, false);
/// let evicted = cache.insert(3, Segment::zeroed(4096), BlockClass::Data, false);
/// assert!(evicted.is_empty(), "clean evictions need no writeback");
/// assert!(cache.get(1).is_none(), "LRU block 1 was reclaimed");
/// ```
#[derive(Debug)]
pub struct BufferCache {
    capacity: usize,
    map: RecencyMap<u64, Entry, 3>,
    next_seq: AtomicU64,
    stats: StatsCells,
    recorder: Option<obs::Recorder>,
    /// Ghost tail of recently evicted LBNs, keyed by the raw block
    /// number (the FS cache has a single key space). Pure observer: it
    /// draws no stamps, bumps no tallies, and never changes a victim.
    ghost: Option<std::sync::Mutex<sim::GhostLru>>,
}

impl BufferCache {
    /// A cache holding at most `capacity` blocks.
    pub fn new(capacity: usize) -> Self {
        BufferCache {
            capacity,
            map: RecencyMap::new(),
            next_seq: AtomicU64::new(0),
            stats: StatsCells::default(),
            recorder: None,
            ghost: None,
        }
    }

    /// Draws the next `n` consecutive recency stamps, returning the first.
    /// Inside a lane's epoch window they come from the window's FS half (`base + FS_CURSOR_BASE + k`,
    /// a pure function of the lane's program order), so parallel replays
    /// stamp blocks schedule-invariantly; outside any window it is the
    /// plain fetch-add counter, byte-identical to the pre-adaptive build.
    fn draw_seqs(&self, n: u64) -> u64 {
        sim::epoch::window_fs_stamps(n)
            .unwrap_or_else(|| self.next_seq.fetch_add(n, Ordering::Relaxed))
    }

    /// Advances the plain stamp counter past `stamp`. The parallel engine
    /// calls this after a run with the largest window stamp it could have
    /// issued, so later sequential accesses still promote to
    /// most-recently-used.
    pub fn advance_seq_past(&self, stamp: u64) {
        self.next_seq.fetch_max(stamp + 1, Ordering::Relaxed);
    }

    /// Attaches a ghost LRU tail bounded at `cap` evicted block numbers.
    pub fn enable_ghost(&mut self, cap: usize) {
        self.ghost = Some(std::sync::Mutex::new(sim::GhostLru::new(cap)));
    }

    /// The ghost tail's hits so far (0 when none is attached).
    pub fn ghost_hits(&self) -> u64 {
        self.ghost
            .as_ref()
            .map_or(0, |g| g.lock().expect("ghost poisoned").hits())
    }

    /// Emits every subsequent access, insertion and eviction on `rec`.
    pub fn set_recorder(&mut self, rec: obs::Recorder) {
        self.recorder = Some(rec);
    }

    fn emit(&self, kind: obs::EventKind) {
        if let Some(rec) = &self.recorder {
            rec.emit(kind);
        }
    }

    /// Capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Dirty fraction of the cache's capacity, in permille (0..=1000).
    /// The overload control plane reads this as its write-backpressure
    /// signal (DESIGN.md §15).
    pub fn dirty_permille(&self) -> u32 {
        if self.capacity == 0 {
            return 0;
        }
        ((self.dirty_len().saturating_mul(1000)) / self.capacity).min(1000) as u32
    }

    /// Blocks currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let t = self.stats.totals();
        CacheStats {
            hits: t[HITS],
            misses: t[MISSES],
            insertions: t[INSERTIONS],
            evicted_clean: t[EVICTED_CLEAN],
            evicted_dirty: t[EVICTED_DIRTY],
        }
    }

    /// Whether `lbn` is resident (does not touch LRU order or counters).
    pub fn contains(&self, lbn: u64) -> bool {
        self.map.contains_key(&lbn)
    }

    /// Finds a resident block *without* promotion, counters, or events —
    /// a side-effect-free probe (see [`Probed`]). `None` if `lbn` is not
    /// resident.
    pub fn probe(&self, lbn: u64) -> Option<Probed<'_>> {
        self.map.get(&lbn).map(Probed)
    }

    /// Counts `n` hits in one go — op tally and hit counter — and reserves
    /// their `n` consecutive recency stamps, returning the first. This is
    /// what `n` hit [`BufferCache::get`]s with nothing in between would
    /// tally, count and draw; the caller completes each with
    /// [`Probed::promote`] and [`BufferCache::emit_hits`].
    pub fn count_hits(&self, n: u64) -> u64 {
        bump_fs_tally(n);
        self.stats.add(HITS, n);
        self.draw_seqs(n)
    }

    /// Emits the access events of `n` counted hits.
    pub fn emit_hits(&self, n: usize) {
        for _ in 0..n {
            self.emit(obs::EventKind::CacheAccess {
                tier: "fs",
                hit: true,
            });
        }
    }

    /// Looks up a block, promoting it to most-recently-used. The returned
    /// segment shares storage with the cached copy (a logical copy).
    pub fn get(&self, lbn: u64) -> Option<Segment> {
        self.access(lbn).map(|e| e.seg().clone())
    }

    /// The counted access behind [`BufferCache::get`].
    ///
    /// Takes `&self`: the stamp draw is a `fetch_add`, the promotion a
    /// `fetch_max` on the entry's atomic stamp, and the counters are
    /// atomics. The class indexes are left stale (lazy); eviction and
    /// flush normalize them. Sequentially this draws the same stamps and
    /// counts the same events as the old exclusive version, byte for
    /// byte.
    fn access(&self, lbn: u64) -> Option<Probed<'_>> {
        let entry = self.probe(lbn);
        if let Some(entry) = entry {
            entry.promote(self.count_hits(1));
            self.emit_hits(1);
        } else {
            bump_fs_tally(1);
            self.stats.add(MISSES, 1);
            // A miss consults the ghost tail: a hit there is a block a
            // larger FS quota would have kept. Observation only.
            if let Some(g) = &self.ghost {
                g.lock().expect("ghost poisoned").probe(lbn);
            }
            self.emit(obs::EventKind::CacheAccess {
                tier: "fs",
                hit: false,
            });
        }
        entry
    }

    /// Inserts (or replaces) a block, returning any dirty blocks that had
    /// to be flushed to make room. Clean blocks are reclaimed silently,
    /// per the paper's policy.
    pub fn insert(
        &mut self,
        lbn: u64,
        seg: Segment,
        class: BlockClass,
        dirty: bool,
    ) -> Vec<Writeback> {
        self.stats.add(INSERTIONS, 1);
        bump_fs_tally(1);
        self.emit(obs::EventKind::CacheInsert { tier: "fs", dirty });
        // Overwriting a resident block drops its predecessor: a dirty one
        // needs no writeback, since callers in this reproduction always
        // supersede its data.
        let seq = self.draw_seqs(1);
        self.map.insert(lbn, Entry { seg, dirty, class }, seq);
        self.evict_to_capacity()
    }

    /// Replaces the contents of a resident block (marking it dirty).
    ///
    /// # Panics
    ///
    /// Panics if the block is not resident.
    pub fn update(&mut self, lbn: u64, seg: Segment) {
        self.map
            .update(&lbn, |e| {
                e.seg = seg;
                e.dirty = true;
            })
            .expect("block not resident");
    }

    /// Removes a block without writeback (e.g. after file deletion),
    /// returning its contents.
    pub fn discard(&mut self, lbn: u64) -> Option<Segment> {
        self.map.remove(&lbn).map(|e| e.seg)
    }

    /// Marks every dirty block clean and appends them to `out` for
    /// writing to the backing store, in LRU order.
    pub fn flush_dirty(&mut self, out: &mut Vec<Writeback>) {
        self.flush_oldest(usize::MAX, out);
    }

    /// Marks up to `n` of the oldest dirty blocks clean and appends them
    /// to `out` for writing, in LRU order — incremental write-behind
    /// (bdflush-style), which keeps flush work spread across requests
    /// instead of spiking. The order is the blocks' *true*-stamp order
    /// ([`RecencyMap::head`]), as writeback order is observable (it is the
    /// iSCSI write sequence).
    pub fn flush_oldest(&mut self, n: usize, out: &mut Vec<Writeback>) {
        for _ in 0..n {
            let Some(head) = self.map.head(DIRTY) else {
                break;
            };
            out.push(self.clean(head.key));
        }
    }

    /// Marks the dirty block `lbn` clean and returns it for writing.
    fn clean(&mut self, lbn: u64) -> Writeback {
        self.map
            .update(&lbn, |e| {
                e.dirty = false;
                Writeback {
                    lbn,
                    class: e.class,
                    seg: e.seg.clone(),
                }
            })
            .expect("dirty blocks are resident")
    }

    /// Dirty blocks currently resident.
    pub fn dirty_len(&self) -> usize {
        self.map.live(DIRTY)
    }

    /// Changes the capacity (shrinking evicts immediately; returned dirty
    /// blocks must be written back).
    pub fn set_capacity(&mut self, capacity: usize) -> Vec<Writeback> {
        self.capacity = capacity;
        self.evict_to_capacity()
    }

    /// Records an evicted block in the ghost tail (LRU reclaims only —
    /// discard and supersede are not capacity evictions).
    fn record_ghost(&self, lbn: u64, seq: u64) {
        if let Some(g) = &self.ghost {
            g.lock().expect("ghost poisoned").record(lbn, seq);
        }
    }

    fn evict_to_capacity(&mut self) -> Vec<Writeback> {
        let mut out = Vec::new();
        while self.map.len() > self.capacity {
            // Paper §3.4: reclaim clean LRU first, then flush dirty LRU.
            // Within clean blocks, data goes before metadata — modelling
            // the kernel's separate inode/dentry caches, which page data
            // does not displace.
            let (seq, lbn, entry) = [CLEAN_DATA, CLEAN_META, DIRTY]
                .into_iter()
                .find_map(|class| self.map.pop_head(class))
                .expect("a non-empty cache has a filed block");
            self.record_ghost(lbn, seq);
            let class = if entry.class == BlockClass::Meta {
                "meta"
            } else {
                "data"
            };
            self.stats.add(
                if entry.dirty {
                    EVICTED_DIRTY
                } else {
                    EVICTED_CLEAN
                },
                1,
            );
            self.emit(obs::EventKind::Eviction {
                tier: "fs",
                class,
                dirty: entry.dirty,
            });
            if entry.dirty {
                out.push(Writeback {
                    lbn,
                    class: entry.class,
                    seg: entry.seg,
                });
            }
        }
        out
    }

    /// Checks the recency index ([`RecencyMap::check`]), that nothing is
    /// resident past the capacity, and the ghost tail.
    ///
    /// # Errors
    ///
    /// A description of the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.map.len() > self.capacity {
            return Err(format!(
                "{} blocks over capacity {}",
                self.map.len(),
                self.capacity
            ));
        }
        self.map.check().map_err(|e| format!("fs cache: {e}"))?;
        match &self.ghost {
            Some(g) => g.lock().expect("ghost poisoned").check_invariants(),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `lbn` is resident and dirty.
    fn dirty(c: &BufferCache, lbn: u64) -> bool {
        c.map.get(&lbn).is_some_and(|e| e.dirty)
    }
    use check::gen::*;
    use check::{prop_assert, prop_assert_eq, property};

    fn seg(tag: u8) -> Segment {
        Segment::from_vec(vec![tag; 8])
    }

    #[test]
    fn get_promotes_lru() {
        let mut c = BufferCache::new(2);
        c.insert(1, seg(1), BlockClass::Data, false);
        c.insert(2, seg(2), BlockClass::Data, false);
        assert!(c.get(1).is_some()); // promote 1; LRU is now 2
        c.insert(3, seg(3), BlockClass::Data, false);
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
    }

    #[test]
    fn clean_evicted_before_dirty() {
        let mut c = BufferCache::new(2);
        c.insert(1, seg(1), BlockClass::Data, true); // dirty, older
        c.insert(2, seg(2), BlockClass::Data, false); // clean, newer
        let wb = c.insert(3, seg(3), BlockClass::Data, false);
        // The *clean* newer block 2 goes, not the dirty older block 1.
        assert!(wb.is_empty());
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert_eq!(c.stats().evicted_clean, 1);
    }

    #[test]
    fn dirty_eviction_returns_writeback() {
        let mut c = BufferCache::new(1);
        c.insert(1, seg(1), BlockClass::Data, true);
        let wb = c.insert(2, seg(2), BlockClass::Meta, true);
        assert_eq!(wb.len(), 1);
        assert_eq!(wb[0].lbn, 1);
        assert_eq!(wb[0].class, BlockClass::Data);
        assert_eq!(wb[0].seg, seg(1));
        assert_eq!(c.stats().evicted_dirty, 1);
    }

    #[test]
    fn zero_capacity_holds_nothing() {
        let mut c = BufferCache::new(0);
        let wb = c.insert(1, seg(1), BlockClass::Data, true);
        assert_eq!(wb.len(), 1, "dirty block immediately flushed");
        assert!(c.is_empty());
        assert!(c.get(1).is_none());
    }

    #[test]
    fn reinsert_supersedes_without_writeback() {
        let mut c = BufferCache::new(4);
        c.insert(1, seg(1), BlockClass::Data, true);
        let wb = c.insert(1, seg(9), BlockClass::Data, true);
        assert!(wb.is_empty());
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(1), Some(seg(9)));
    }

    #[test]
    fn mark_dirty_and_flush() {
        let mut c = BufferCache::new(4);
        c.insert(1, seg(1), BlockClass::Data, false);
        c.insert(2, seg(2), BlockClass::Meta, false);
        assert!(!dirty(&c, 1));
        c.map.update(&1, |e| e.dirty = true).expect("resident");
        assert!(dirty(&c, 1));
        let mut flushed = Vec::new();
        c.flush_dirty(&mut flushed);
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].lbn, 1);
        assert!(!dirty(&c, 1), "flush leaves blocks clean");
        c.flush_dirty(&mut flushed);
        assert_eq!(flushed.len(), 1, "nothing left to flush");
    }

    #[test]
    fn update_replaces_and_dirties() {
        let mut c = BufferCache::new(4);
        c.insert(1, seg(1), BlockClass::Data, false);
        c.update(1, seg(7));
        assert!(dirty(&c, 1));
        assert_eq!(c.get(1), Some(seg(7)));
    }

    #[test]
    fn discard_skips_writeback() {
        let mut c = BufferCache::new(4);
        c.insert(1, seg(1), BlockClass::Data, true);
        assert_eq!(c.discard(1), Some(seg(1)));
        assert!(c.is_empty());
        assert_eq!(c.discard(1), None);
    }

    #[test]
    fn shrink_capacity_evicts() {
        let mut c = BufferCache::new(4);
        for i in 0..4 {
            c.insert(i, seg(i as u8), BlockClass::Data, i == 0);
        }
        let wb = c.set_capacity(1);
        assert_eq!(c.len(), 1);
        // Three evictions: clean ones first (silently), dirty block 0 last
        // only if needed. With capacity 1 and 3 clean + 1 dirty, the three
        // clean blocks go and the dirty one stays.
        assert!(wb.is_empty());
        assert!(c.contains(0));
    }

    #[test]
    fn stats_and_hit_ratio() {
        let mut c = BufferCache::new(2);
        c.insert(1, seg(1), BlockClass::Data, false);
        assert!(c.get(1).is_some());
        assert!(c.get(2).is_none());
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.insertions, 1);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn cached_segment_shares_storage() {
        let mut c = BufferCache::new(2);
        let s = seg(5);
        c.insert(1, s.clone(), BlockClass::Data, false);
        let got = c.get(1).expect("resident");
        assert!(got.same_storage(&s), "get must be a logical copy");
    }

    #[test]
    fn recorder_sees_accesses_and_evictions() {
        let rec = obs::Recorder::new();
        rec.enable(obs::TraceConfig::default());
        let mut c = BufferCache::new(1);
        c.set_recorder(rec.clone());
        c.insert(1, seg(1), BlockClass::Data, true);
        c.get(1);
        c.get(9);
        // Clean-first policy: no clean blocks resident, so the dirty
        // block 1 is flushed-and-reclaimed to admit dirty block 2.
        c.insert(2, seg(2), BlockClass::Meta, true);
        assert_eq!(rec.counter("cache.fs.hits"), 1);
        assert_eq!(rec.counter("cache.fs.misses"), 1);
        assert_eq!(rec.counter("cache.fs.insertions"), 2);
        assert_eq!(rec.counter("cache.fs.evicted_dirty"), 1);
    }

    property! {
        /// Model-based test: the cache agrees with a naive reference model
        /// on residency and eviction choice across random op sequences.
        fn prop_matches_reference_model(
            capacity in ints(1usize..8),
            ops in vec_of((ints(0u64..16), any_bool(), ints(0u8..3)), 0..200),
        ) {
            let mut cache = BufferCache::new(capacity);
            // Reference: Vec of (lbn, dirty) in LRU order (front = oldest).
            let mut model: Vec<(u64, bool)> = Vec::new();
            for (lbn, dirty, op) in ops {
                match op {
                    0 => {
                        // insert
                        model.retain(|&(l, _)| l != lbn);
                        model.push((lbn, dirty));
                        while model.len() > capacity {
                            if let Some(pos) = model.iter().position(|&(_, d)| !d) {
                                model.remove(pos);
                            } else {
                                model.remove(0);
                            }
                        }
                        cache.insert(lbn, seg(lbn as u8), BlockClass::Data, dirty);
                    }
                    1 => {
                        // get
                        let hit_model = model.iter().position(|&(l, _)| l == lbn);
                        let hit_cache = cache.get(lbn).is_some();
                        prop_assert_eq!(hit_model.is_some(), hit_cache);
                        if let Some(pos) = hit_model {
                            let e = model.remove(pos);
                            model.push(e);
                        }
                    }
                    _ => {
                        // flush
                        for e in &mut model {
                            e.1 = false;
                        }
                        cache.flush_dirty(&mut Vec::new());
                    }
                }
                // Residency must agree.
                for l in 0u64..16 {
                    prop_assert_eq!(
                        cache.contains(l),
                        model.iter().any(|&(m, _)| m == l),
                        "divergence on block {}", l
                    );
                }
                prop_assert!(cache.len() <= capacity);
            }
        }
    }
}

//! The NCache loadable-module facade.
//!
//! The Linux prototype inserts NCache "into the layer between the network
//! stack and the Ethernet device driver" (§4.1); the server code calls it
//! at four hook points, all exposed here:
//!
//! 1. [`NcacheModule::on_data_in`] — an iSCSI Data-In PDU carrying regular
//!    file data arrived: park the payload in the LBN cache, hand the file
//!    system a key-stamped placeholder block.
//! 2. [`NcacheModule::on_nfs_write`] — an NFS write request's payload
//!    arrived: park it in the FHO cache, hand back the stamp the server
//!    plants in the buffer cache.
//! 3. [`NcacheModule::on_flush_stamp`] — the file system is flushing a
//!    dirty placeholder block to storage: remap FHO→LBN by the block's
//!    stamp and return the real payload for the outgoing iSCSI write.
//! 4. [`NetCacheShards::transmit`] — an outgoing reply is about to hit
//!    the driver: splice (or substitute) cached payload for its stamped
//!    placeholders. The hook is `&self` on the shard set rather than on
//!    the module, so the server finishes every reply in step through its
//!    own cache handle ([`NcacheModule::resolver`]), never the module's
//!    mutex.

use netbuf::key::{CacheKey, Fho, KeyStamp, Lbn};
use netbuf::{BufPool, CopyLedger, SegChain, Segment};

use crate::cache::{CacheFull, NetCacheStats, WritebackChunk};
use crate::shards::NetCacheShards;
use crate::substitute::SubstitutionReport;
use crate::{CHUNK_OVERHEAD, CHUNK_PAYLOAD};

/// Configuration of the NCache module.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NcacheConfig {
    /// Pinned memory available to the cache, in bytes. This memory is
    /// unavailable to the file-system buffer cache (§4.1).
    pub capacity_bytes: u64,
    /// Whether outgoing packets are substituted (disabled only by the
    /// ablation studies).
    pub substitution: bool,
    /// Whether stored checksums are inherited instead of recomputed.
    pub csum_inherit: bool,
    /// Number of hash-selected cache shards (≥ 1). Sharding changes only
    /// which partition a key lives in — all shards share one pool and one
    /// LRU clock, so every observable (stats, evictions, bytes) is
    /// identical at any shard count.
    pub shards: usize,
}

impl NcacheConfig {
    /// A default-tuned module with the given pinned capacity.
    pub fn with_capacity(capacity_bytes: u64) -> Self {
        NcacheConfig {
            capacity_bytes,
            substitution: true,
            csum_inherit: true,
            shards: 1,
        }
    }

    /// The same configuration with `shards` cache shards.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }
}

/// The module: cache + configuration + pending writebacks.
///
/// See the crate-level example for typical use.
#[derive(Debug)]
pub struct NcacheModule {
    cache: NetCacheShards,
    config: NcacheConfig,
    ledger: CopyLedger,
    /// Stamp-sized stores for Data-In placeholder blocks (nothing is
    /// pinned from it; cache residency pins from the cache's own pool).
    stamps: BufPool,
    pending_writebacks: Vec<WritebackChunk>,
    recorder: Option<obs::Recorder>,
    invalidations: u64,
}

impl NcacheModule {
    /// Creates a module, pinning its memory from a fresh pool.
    pub fn new(config: NcacheConfig, ledger: &CopyLedger) -> Self {
        let pool = BufPool::new(config.capacity_bytes);
        NcacheModule {
            cache: NetCacheShards::new(pool, CHUNK_OVERHEAD, config.shards.max(1)),
            config,
            ledger: ledger.clone(),
            stamps: BufPool::stamp_only(),
            pending_writebacks: Vec::new(),
            recorder: None,
            invalidations: 0,
        }
    }

    /// Emits every subsequent hook-level event (insertions, evictions,
    /// remaps, substitutions) on `rec`.
    pub fn set_recorder(&mut self, rec: obs::Recorder) {
        self.recorder = Some(rec);
    }

    fn emit(&self, kind: obs::EventKind) {
        if let Some(rec) = &self.recorder {
            rec.emit(kind);
        }
    }

    /// Merged stats before an insert, taken only when a recorder is
    /// attached *and* recording: merging costs a lock acquisition and six
    /// loads per shard, inside the exclusive write section, and nobody
    /// reads it otherwise.
    fn eviction_baseline(&self) -> Option<NetCacheStats> {
        let live = self.recorder.as_ref().is_some_and(|rec| rec.is_enabled());
        live.then(|| self.cache.stats())
    }

    /// Emits one [`obs::EventKind::Eviction`] per chunk the cache
    /// reclaimed since `before` (inserts evict silently inside the cache;
    /// the stats delta recovers them).
    fn emit_eviction_delta(&self, before: Option<NetCacheStats>) {
        let Some(before) = before else {
            return;
        };
        let after = self.cache.stats();
        for _ in before.evicted_clean..after.evicted_clean {
            self.emit(obs::EventKind::Eviction {
                tier: "ncache",
                class: "data",
                dirty: false,
            });
        }
        for _ in before.evicted_dirty..after.evicted_dirty {
            self.emit(obs::EventKind::Eviction {
                tier: "ncache",
                class: "data",
                dirty: true,
            });
        }
    }

    /// The module's configuration.
    pub fn config(&self) -> NcacheConfig {
        self.config
    }

    /// Cache operation counters, merged across shards (the CPU model
    /// charges per op).
    pub fn stats(&self) -> NetCacheStats {
        self.cache.stats()
    }

    /// Totals of every substitution performed (the shard set counts them
    /// at [`NetCacheShards::transmit`]).
    pub fn substitution_totals(&self) -> SubstitutionReport {
        self.cache.substitution_totals()
    }

    /// Bytes currently pinned by the cache.
    pub fn pinned_bytes(&self) -> u64 {
        self.cache.pinned_bytes()
    }

    /// Chunks resident.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Revalidates a stamped placeholder before it rides a reply under
    /// fault recovery: verifies each candidate chunk against its stored
    /// checksum (FHO first, so the freshness order of §3.4 holds even
    /// under faults). A mismatched chunk is corrupt: it is invalidated on
    /// the spot and the next key — or, if none resolves, the copying FS
    /// path — serves the request instead. Chunks with no stored checksum
    /// are stamped lazily here, so the fault-free fast path never pays
    /// for hashing.
    pub fn verify_resolvable(&mut self, stamp: &KeyStamp) -> bool {
        let keys = [
            stamp.fho.map(CacheKey::from),
            stamp.lbn.map(CacheKey::from),
        ];
        for key in keys.into_iter().flatten() {
            let Some(bytes) = self.cache.chunk_bytes(key) else {
                continue;
            };
            let computed = proto::csum::checksum(&bytes);
            match self.cache.stored_csum(key) {
                Some(stored) if stored != computed => {
                    self.cache.invalidate(key);
                    self.invalidations += 1;
                    if let Some(rec) = &self.recorder {
                        rec.add_counter("fault.invalidations", 1);
                    }
                }
                Some(_) => return true,
                None => {
                    self.cache.set_csum(key, computed);
                    return true;
                }
            }
        }
        false
    }

    /// Corrupt (checksum-mismatched) entries dropped by
    /// [`NcacheModule::verify_resolvable`].
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Fault injection: damages the stored checksum of the `pick`-th clean
    /// resident chunk (LRU order, wrapping), so the next verification
    /// covering it detects the corruption and invalidates. Dirty chunks
    /// are never poisoned — they are the sole copy of their data. Returns
    /// whether a chunk was poisoned.
    pub fn poison_clean_chunk(&mut self, pick: usize) -> bool {
        let keys = self.cache.clean_keys();
        if keys.is_empty() {
            return false;
        }
        let key = keys[pick % keys.len()];
        let bytes = self.cache.chunk_bytes(key).expect("clean key is resident");
        self.cache.set_csum(key, !proto::csum::checksum(&bytes));
        true
    }

    /// Direct access to the sharded cache (ablations and tests).
    pub fn cache_mut(&mut self) -> &mut NetCacheShards {
        &mut self.cache
    }

    /// The cache handle replies resolve and transmit through
    /// ([`NetCacheShards::transmit`]), or `None` when substitution is
    /// disabled (the ablation ships placeholders).
    pub fn resolver(&self) -> Option<NetCacheShards> {
        self.config.substitution.then(|| self.cache.clone())
    }

    /// A clone of the internally locked cache handle: it reaches the same
    /// shard set the module mutates, without the module's mutex.
    pub fn cache_handle(&self) -> NetCacheShards {
        self.cache.clone()
    }

    /// Advances the cache's shared recency clock past `stamp` (see
    /// [`NetCacheShards::advance_clock_past`]).
    pub fn advance_clock_past(&self, stamp: u64) {
        self.cache.advance_clock_past(stamp);
    }

    /// Attaches a ghost LRU tail shared across all cache shards (see
    /// [`NetCacheShards::enable_ghost`]).
    pub fn enable_ghost(&self, cap: usize) {
        self.cache.enable_ghost(cap);
    }

    /// The shared ghost tail's hits so far (0 when none is attached).
    pub fn ghost_hits(&self) -> u64 {
        self.cache.ghost_hits()
    }

    /// Current pool capacity in bytes (the NCache side of the split).
    pub fn pool_capacity(&self) -> u64 {
        self.cache.pool().capacity()
    }

    /// Resizes the cache's pinned-memory quota and immediately evicts
    /// clean chunks (global LRU order) until residency fits. Dirty chunks
    /// are left for the demand path — a controller tick must not schedule
    /// writebacks. Returns the number of chunks evicted.
    pub fn set_pool_capacity(&self, bytes: u64) -> u64 {
        self.cache.pool().set_capacity(bytes);
        self.cache.shrink_clean_to_capacity()
    }

    /// Hook 1: regular-data iSCSI Data-In payload arrived. Caches the
    /// wire segments under `lbn` and returns the placeholder block the
    /// initiator hands the file system.
    ///
    /// # Errors
    ///
    /// [`CacheFull`] when the cache cannot admit the chunk.
    pub fn on_data_in(
        &mut self,
        lbn: Lbn,
        segs: impl Into<SegChain>,
        len: usize,
    ) -> Result<Segment, CacheFull> {
        let before = self.eviction_baseline();
        let wbs = self.cache.insert_lbn(lbn, segs, len, false)?;
        self.emit_eviction_delta(before);
        self.emit(obs::EventKind::CacheInsert {
            tier: "ncache-lbn",
            dirty: false,
        });
        self.pending_writebacks.extend(wbs);
        Ok(placeholder_block(
            &self.ledger,
            &self.stamps,
            KeyStamp::new().with_lbn(lbn),
        ))
    }

    /// Hook 2: an NFS write request's payload arrived. Caches the wire
    /// segments under `fho` (dirty) and returns the stamp for the
    /// placeholder the server writes into the buffer cache.
    ///
    /// # Errors
    ///
    /// [`CacheFull`] when the cache cannot admit the chunk.
    pub fn on_nfs_write(
        &mut self,
        fho: Fho,
        segs: impl Into<SegChain>,
        len: usize,
    ) -> Result<KeyStamp, CacheFull> {
        let before = self.eviction_baseline();
        let wbs = self.cache.insert_fho(fho, segs, len)?;
        self.emit_eviction_delta(before);
        self.emit(obs::EventKind::CacheInsert {
            tier: "ncache-fho",
            dirty: true,
        });
        self.pending_writebacks.extend(wbs);
        Ok(KeyStamp::new().with_fho(fho))
    }

    /// Hook 3: the file system is flushing a dirty placeholder stamped
    /// `stamp` ([`Segment::stamp`]) to `lbn`. Remaps its FHO entry to `lbn`
    /// and returns the real payload for the outgoing iSCSI write (the entry
    /// stays resident, now clean — the write is on its way to storage), or
    /// serves an LBN-only stamp from the LBN cache. `None` when neither key
    /// is resident.
    pub fn on_flush_stamp(&mut self, stamp: KeyStamp, lbn: Lbn) -> Option<SegChain> {
        if let Some(fho) = stamp.fho {
            if let Some(segs) = self.cache.remap_chain(fho, lbn) {
                self.cache.mark_clean(lbn.into());
                self.emit(obs::EventKind::Remap);
                return Some(segs);
            }
        }
        // FHO absent (already remapped) or LBN-only stamp: serve from the
        // LBN cache if resident.
        if let Some(segs) = self.cache.lookup(lbn.into()) {
            self.cache.mark_clean(lbn.into());
            self.emit(obs::EventKind::CacheAccess {
                tier: "ncache-lbn",
                hit: true,
            });
            return Some(segs.into());
        }
        None
    }

    /// Drains dirty chunks displaced by cache pressure; the server must
    /// write each to the storage server.
    pub fn take_writebacks(&mut self) -> Vec<WritebackChunk> {
        std::mem::take(&mut self.pending_writebacks)
    }
}

/// Builds the placeholder block the file system caches in place of a
/// chunk's payload: `stamp` at the head of [`CHUNK_PAYLOAD`] bytes of
/// zeros, on a store recycled through `pool` — a [`BufPool::stamp_only`]
/// pool stores the stamp and nothing else ([`BufPool::placeholder`]).
/// Writing the stamp is the server's only per-block byte work under
/// NCache, and it is charged to `ledger` as header bytes.
pub fn placeholder_block(ledger: &CopyLedger, pool: &BufPool, stamp: KeyStamp) -> Segment {
    ledger.charge_header_bytes(KeyStamp::LEN as u64);
    pool.placeholder(&stamp, CHUNK_PAYLOAD)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netbuf::key::FileHandle;
    use netbuf::NetBuf;

    #[test]
    fn module_is_send() {
        // The module lives in a shared mutex handle cloned into every
        // lane; that handle is `Send + Sync` only if the module itself
        // is `Send`.
        fn assert_send<T: Send>() {}
        assert_send::<NcacheModule>();
    }

    fn module(capacity: u64) -> (NcacheModule, CopyLedger) {
        let ledger = CopyLedger::new();
        let m = NcacheModule::new(NcacheConfig::with_capacity(capacity), &ledger);
        (m, ledger)
    }

    fn block_segs(tag: u8) -> Vec<Segment> {
        vec![Segment::from_vec(vec![tag; CHUNK_PAYLOAD])]
    }

    #[test]
    fn data_in_caches_and_returns_placeholder() {
        let (mut m, _l) = module(1 << 20);
        let ph = m.on_data_in(Lbn(3), block_segs(7), CHUNK_PAYLOAD).expect("fits");
        assert!(m.cache_handle().contains(Lbn(3).into()));
        let stamp = ph.stamp().expect("stamped");
        assert_eq!(stamp.lbn, Some(Lbn(3)));
        assert_eq!(stamp.fho, None);
        assert_eq!(ph.len(), CHUNK_PAYLOAD);
    }

    #[test]
    fn nfs_write_caches_dirty_fho() {
        let (mut m, _l) = module(1 << 20);
        let fho = Fho::new(FileHandle(1), 8192);
        let stamp = m.on_nfs_write(fho, block_segs(9), CHUNK_PAYLOAD).expect("fits");
        assert_eq!(stamp.fho, Some(fho));
        assert!(m.cache_handle().contains(fho.into()));
        assert!(m.cache_mut().is_dirty(fho.into()));
    }

    #[test]
    fn flush_write_remaps_and_returns_payload() {
        let (mut m, _l) = module(1 << 20);
        let fho = Fho::new(FileHandle(1), 0);
        let stamp = m.on_nfs_write(fho, block_segs(0xCC), CHUNK_PAYLOAD).expect("fits");
        let segs = m.on_flush_stamp(stamp, Lbn(42)).expect("remapped");
        assert_eq!(segs[0].as_slice(), &vec![0xCC; CHUNK_PAYLOAD][..]);
        assert!(!m.cache_handle().contains(fho.into()), "entry moved to the LBN cache");
        assert!(m.cache_handle().contains(Lbn(42).into()));
        assert!(
            !m.cache_mut().is_dirty(Lbn(42).into()),
            "clean once the write is issued"
        );
    }

    #[test]
    fn flush_of_real_data_passes_through() {
        // A real-data block carries no stamp, so it never reaches the
        // hook; a stamp naming no resident key is passed through too.
        let (mut m, _l) = module(1 << 20);
        assert!(Segment::from_vec(vec![0x55u8; CHUNK_PAYLOAD]).stamp().is_none());
        let stamp = KeyStamp::new().with_fho(Fho::new(FileHandle(1), 0));
        assert!(m.on_flush_stamp(stamp, Lbn(1)).is_none());
    }

    #[test]
    fn flush_serves_lbn_cache_when_fho_already_remapped() {
        let (mut m, _l) = module(1 << 20);
        m.on_data_in(Lbn(8), block_segs(0xEE), CHUNK_PAYLOAD).expect("fits");
        m.cache_mut().lookup(Lbn(8).into());
        let stamp = KeyStamp::new().with_lbn(Lbn(8));
        let segs = m.on_flush_stamp(stamp, Lbn(8)).expect("served");
        assert_eq!(segs[0].as_slice()[0], 0xEE);
    }

    #[test]
    fn transmit_substitutes_and_inherits_csum() {
        let (mut m, ledger) = module(1 << 20);
        let ph = m.on_data_in(Lbn(1), block_segs(0x77), CHUNK_PAYLOAD).expect("fits");
        let mut pkt = NetBuf::new(&ledger);
        pkt.append_segment(ph);
        let before = ledger.snapshot();
        let r = m
            .cache_handle()
            .transmit(&mut pkt, None, true, &obs::Recorder::new());
        assert_eq!(r.substituted, 1);
        let d = ledger.snapshot().delta_since(&before);
        assert_eq!((d.csum_inherited, d.csum_bytes), (1, 0));
        assert_eq!(pkt.copy_payload_to_vec(), vec![0x77; CHUNK_PAYLOAD]);
        assert_eq!(m.substitution_totals().substituted, 1);
    }

    #[test]
    fn substitution_can_be_disabled() {
        let ledger = CopyLedger::new();
        let mut config = NcacheConfig::with_capacity(1 << 20);
        config.substitution = false;
        let m = NcacheModule::new(config, &ledger);
        // No cache to transmit through: the server ships its placeholder
        // junk unmodified (the ablation's behaviour).
        assert!(m.resolver().is_none());
        config.substitution = true;
        assert!(NcacheModule::new(config, &ledger).resolver().is_some());
    }

    #[test]
    fn evictions_surface_as_writebacks() {
        // Capacity for two chunks (plus overhead); the third insert evicts
        // the dirty FHO chunk? No — dirty FHO is pinned; use dirty LBN.
        let ledger = CopyLedger::new();
        let config = NcacheConfig {
            capacity_bytes: 2 * (CHUNK_PAYLOAD as u64 + CHUNK_OVERHEAD),
            substitution: true,
            csum_inherit: true,
            shards: 1,
        };
        let mut m = NcacheModule::new(config, &ledger);
        m.cache_mut()
            .insert_lbn(Lbn(1), block_segs(1), CHUNK_PAYLOAD, true)
            .expect("fits");
        m.on_data_in(Lbn(2), block_segs(2), CHUNK_PAYLOAD).expect("fits");
        m.on_data_in(Lbn(3), block_segs(3), CHUNK_PAYLOAD).expect("evicts");
        let wbs = m.take_writebacks();
        assert_eq!(wbs.len(), 1);
        assert_eq!(wbs[0].lbn, Lbn(1));
        assert!(m.take_writebacks().is_empty(), "drained");
    }

    #[test]
    fn recorder_sees_hook_events() {
        let (mut m, ledger) = module(1 << 20);
        let rec = obs::Recorder::new();
        rec.enable(obs::TraceConfig::default());
        m.set_recorder(rec.clone());

        let fho = Fho::new(FileHandle(1), 0);
        let stamp = m.on_nfs_write(fho, block_segs(0xAB), CHUNK_PAYLOAD).expect("fits");
        m.on_flush_stamp(stamp, Lbn(5)).expect("remapped");

        let ph = m.on_data_in(Lbn(9), block_segs(0x11), CHUNK_PAYLOAD).expect("fits");
        let mut pkt = NetBuf::new(&ledger);
        pkt.append_segment(ph);
        m.cache_handle().transmit(&mut pkt, None, true, &rec);

        assert_eq!(rec.counter("cache.ncache-fho.insertions"), 1);
        assert_eq!(rec.counter("cache.ncache-lbn.insertions"), 1);
        assert_eq!(rec.counter("ncache.remaps"), 1);
        assert_eq!(rec.counter("ncache.substituted"), 1);
        assert_eq!(rec.counter("ncache.substitution_missing"), 0);
    }

    #[test]
    fn recorder_sees_insert_pressure_evictions() {
        let ledger = CopyLedger::new();
        let config = NcacheConfig {
            capacity_bytes: 2 * (CHUNK_PAYLOAD as u64 + CHUNK_OVERHEAD),
            substitution: true,
            csum_inherit: true,
            shards: 1,
        };
        let mut m = NcacheModule::new(config, &ledger);
        let rec = obs::Recorder::new();
        rec.enable(obs::TraceConfig::default());
        m.set_recorder(rec.clone());
        m.on_data_in(Lbn(1), block_segs(1), CHUNK_PAYLOAD).expect("fits");
        m.on_data_in(Lbn(2), block_segs(2), CHUNK_PAYLOAD).expect("fits");
        m.on_data_in(Lbn(3), block_segs(3), CHUNK_PAYLOAD).expect("evicts");
        assert_eq!(rec.counter("cache.ncache.evicted_clean"), 1);
        assert_eq!(rec.counter("cache.ncache-lbn.insertions"), 3);
    }

    #[test]
    fn untraced_inserts_take_only_the_locks_insert_needs() {
        // Eight shards, room to spare: an insert write-locks its target
        // shard twice (count + displace, then file the chunk) and reads
        // nothing. Merging all-shard stats "before" for a recorder that is
        // absent — or attached but not recording, as in every untraced
        // rig — used to add a read acquisition per shard.
        let ledger = CopyLedger::new();
        let config = NcacheConfig::with_capacity(1 << 20).with_shards(8);
        let mut m = NcacheModule::new(config, &ledger);
        let locks = |m: &NcacheModule| m.cache_handle().lock_counters();
        m.on_data_in(Lbn(1), block_segs(1), CHUNK_PAYLOAD).expect("fits");
        assert_eq!(locks(&m), (0, 2));
        m.set_recorder(obs::Recorder::new());
        let fho = Fho::new(FileHandle(1), 0);
        m.on_nfs_write(fho, block_segs(2), CHUNK_PAYLOAD).expect("fits");
        assert_eq!(locks(&m), (0, 4));
        // A live recorder does pay for its eviction delta.
        let rec = obs::Recorder::new();
        rec.enable(obs::TraceConfig::default());
        m.set_recorder(rec);
        m.on_data_in(Lbn(2), block_segs(3), CHUNK_PAYLOAD).expect("fits");
        assert_eq!(locks(&m).0, 16, "before + after, merged per shard");
    }

    #[test]
    fn placeholders_are_keys_on_recycled_stores() {
        let (mut m, ledger) = module(1 << 20);
        let before = ledger.snapshot();
        let ph = m.on_data_in(Lbn(3), block_segs(7), CHUNK_PAYLOAD).expect("fits");
        assert!(ph.is_pooled());
        assert_eq!(
            ledger.snapshot().delta_since(&before).header_bytes,
            KeyStamp::LEN as u64
        );
        // A whole block that stores its stamp and nothing else: past the
        // stamp it reads as zeros, also on a store that held another
        // placeholder before.
        assert_eq!((ph.len(), ph.stored_len()), (CHUNK_PAYLOAD, KeyStamp::LEN));
        assert!(ph.runs().flatten().skip(KeyStamp::LEN).all(|&b| b == 0));
        drop(ph);
        let again = m.on_data_in(Lbn(4), block_segs(8), CHUNK_PAYLOAD).expect("fits");
        let stamp = again.stamp().expect("stamped");
        assert_eq!((stamp.lbn, stamp.fho), (Some(Lbn(4)), None));
        assert_eq!(again.stored_len(), KeyStamp::LEN);
        assert_eq!(m.stamps.slab_stats().recycles, 1);
        assert_eq!(m.stamps.check_invariants(), Ok(()));
    }

    #[test]
    fn verify_resolvable_stamps_then_accepts() {
        let (mut m, _l) = module(1 << 20);
        let ph = m.on_data_in(Lbn(4), block_segs(0x42), CHUNK_PAYLOAD).expect("fits");
        let stamp = ph.stamp().expect("stamped");
        assert!(m.verify_resolvable(&stamp), "first pass stamps the csum");
        assert!(m.verify_resolvable(&stamp), "second pass verifies it");
        assert_eq!(m.invalidations(), 0);
        assert!(m.cache_handle().contains(Lbn(4).into()));
    }

    #[test]
    fn verify_resolvable_invalidates_poisoned_chunks() {
        let (mut m, _l) = module(1 << 20);
        let ph = m.on_data_in(Lbn(4), block_segs(0x42), CHUNK_PAYLOAD).expect("fits");
        let stamp = ph.stamp().expect("stamped");
        let rec = obs::Recorder::new();
        rec.enable(obs::TraceConfig::default());
        m.set_recorder(rec.clone());
        assert!(m.poison_clean_chunk(0));
        assert!(!m.verify_resolvable(&stamp), "corrupt entry must not resolve");
        assert!(!m.cache_handle().contains(Lbn(4).into()), "corrupt entry dropped");
        assert_eq!(m.invalidations(), 1);
        assert_eq!(rec.counter("fault.invalidations"), 1);
        // Refetch repopulates; the fresh entry verifies clean again.
        let ph = m.on_data_in(Lbn(4), block_segs(0x42), CHUNK_PAYLOAD).expect("fits");
        let stamp = ph.stamp().expect("stamped");
        assert!(m.verify_resolvable(&stamp));
    }

    #[test]
    fn poison_skips_dirty_chunks() {
        let (mut m, _l) = module(1 << 20);
        let fho = Fho::new(FileHandle(3), 0);
        m.on_nfs_write(fho, block_segs(0xDD), CHUNK_PAYLOAD).expect("fits");
        assert!(!m.poison_clean_chunk(0), "dirty FHO chunk is never a target");
        let stamp = KeyStamp::new().with_fho(fho);
        assert!(m.verify_resolvable(&stamp), "sole data copy stays intact");
    }

    #[test]
    fn pinned_accounting_visible() {
        let (mut m, _l) = module(1 << 20);
        assert_eq!(m.pinned_bytes(), 0);
        m.on_data_in(Lbn(1), block_segs(1), CHUNK_PAYLOAD).expect("fits");
        assert_eq!(m.pinned_bytes(), CHUNK_PAYLOAD as u64 + 128);
        assert_eq!(m.cache_len(), 1);
    }
}

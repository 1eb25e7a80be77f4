//! The iSCSI initiator: the application server's path to its storage.
//!
//! Implements [`simfs::BlockStore`], so the file system is oblivious to
//! which build is running — exactly the transparency the paper claims
//! (Table 1: "buffer cache: None; NFS/Web server daemon: None"). The two
//! functions the paper *does* modify ("two functions invoking socket
//! interface changed", §4.1) are here:
//!
//! * the **receive** path ([`IscsiInitiator::read_block`]): under NCache,
//!   Data-class Data-In payloads are parked in the LBN cache unmodified
//!   and the file system gets a key-stamped placeholder — hook 1;
//! * the **send** path ([`IscsiInitiator::write_block`]): under NCache, a
//!   flushed placeholder block triggers FHO→LBN remapping and the real
//!   payload is attached to the outgoing Data-Out logically — hook 3.


use ncache::NcacheModule;
use netbuf::key::{KeyStamp, Lbn};
use netbuf::{BufPool, CopyLedger, NetBuf, SegChain, Segment, SlabStats};
use proto::iscsi::{DataOut, IscsiPdu, ScsiCommand, ScsiOp, BHS_LEN, BLOCK_SIZE};
use simfs::{BlockClass, BlockStore};

use crate::mode::ServerMode;
use crate::stack;
use crate::target::IscsiTarget;

/// One block I/O issued to the storage server, recorded for the timing
/// layer (which coalesces contiguous runs into iSCSI commands and charges
/// wire and storage-CPU time).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoRecord {
    /// Block address.
    pub lbn: u64,
    /// True for writes.
    pub is_write: bool,
    /// Metadata or regular data.
    pub class: BlockClass,
}

/// Hard cap on command (re)issues; the consecutive-fault bounds of
/// `sim::fault` and `blockdev::TransientFaults` guarantee success in at
/// most ~16 attempts even at rate 1.0, so hitting this is a logic bug.
const MAX_CMD_ATTEMPTS: u32 = 32;
/// First retry backoff (virtual µs; the data plane is untimed, so backoff
/// is accounted, not slept).
const BASE_BACKOFF_US: u64 = 100;
/// Exponential backoff cap (five doublings).
const MAX_BACKOFF_US: u64 = 3200;

/// Initiator counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InitiatorStats {
    /// Blocks read from the target.
    pub blocks_read: u64,
    /// Blocks written to the target.
    pub blocks_written: u64,
    /// Data-class reads that bypassed copying via the NCache hook.
    pub zero_copy_reads: u64,
    /// Flushes satisfied from the network-centric cache (remap path).
    pub zero_copy_writes: u64,
    /// NCache admissions that failed (cache full) and fell back to the
    /// physical path.
    pub cache_admission_failures: u64,
    /// File-system cache misses served from the network-centric cache
    /// without storage traffic (the second-level-cache effect, §3.4).
    pub second_level_hits: u64,
    /// SCSI commands re-issued after a fault (any cause).
    pub retries: u64,
    /// Retries caused by a lost or late PDU (command timer fired).
    pub timeouts: u64,
    /// Non-zero SCSI status responses (transient device or burst errors).
    pub io_errors: u64,
    /// Data-In PDUs discarded as truncated or corrupt.
    pub damaged_pdus: u64,
    /// Duplicate/reordered deliveries absorbed without recovery action.
    pub absorbed_anomalies: u64,
    /// Virtual microseconds of capped exponential backoff accumulated
    /// across all retries.
    pub backoff_us: u64,
}

impl obs::StatsSnapshot for InitiatorStats {
    fn source(&self) -> &'static str {
        "iscsi-initiator"
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("blocks_read", self.blocks_read),
            ("blocks_written", self.blocks_written),
            ("zero_copy_reads", self.zero_copy_reads),
            ("zero_copy_writes", self.zero_copy_writes),
            ("cache_admission_failures", self.cache_admission_failures),
            ("second_level_hits", self.second_level_hits),
            ("retries", self.retries),
            ("timeouts", self.timeouts),
            ("io_errors", self.io_errors),
            ("damaged_pdus", self.damaged_pdus),
            ("absorbed_anomalies", self.absorbed_anomalies),
            ("backoff_us", self.backoff_us),
        ]
    }
}

/// The iSCSI initiator.
#[derive(Debug)]
pub struct IscsiInitiator {
    target: sim::Shared<IscsiTarget>,
    ledger: CopyLedger,
    mode: ServerMode,
    module: Option<sim::Shared<NcacheModule>>,
    next_itt: u32,
    io_log: Vec<IoRecord>,
    stats: InitiatorStats,
    recorder: obs::Recorder,
    /// Slab free list for receive-copy destinations (per-packet
    /// recycling; never ledger-visible).
    pool: BufPool,
    /// Stamp-sized stores for the placeholders of second-level hits.
    stamps: BufPool,
    /// Shared fault schedule for the initiator⇄target link (None = a
    /// perfect link; every fault hook vanishes).
    fault_plan: Option<sim::Shared<sim::FaultPlan>>,
    /// The Data-Out burst and the reply PDUs of the command in flight:
    /// the lists [`IscsiTarget::handle_command_into`] drains and fills,
    /// empty between commands and never reallocated.
    burst: Vec<NetBuf>,
    replies: Vec<NetBuf>,
}

impl IscsiInitiator {
    /// An initiator for `mode`, talking to `target`, charging `ledger`
    /// (the application server's CPU). NCache mode requires `module`.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is [`ServerMode::NCache`] but no module is given.
    pub fn new(
        target: sim::Shared<IscsiTarget>,
        ledger: &CopyLedger,
        mode: ServerMode,
        module: Option<sim::Shared<NcacheModule>>,
    ) -> Self {
        assert!(
            mode != ServerMode::NCache || module.is_some(),
            "NCache mode requires the NCache module"
        );
        IscsiInitiator {
            target,
            ledger: ledger.clone(),
            mode,
            module,
            next_itt: 1,
            io_log: Vec::new(),
            stats: InitiatorStats::default(),
            recorder: obs::Recorder::new(),
            pool: BufPool::slab_only(),
            stamps: BufPool::stamp_only(),
            fault_plan: None,
            burst: Vec::new(),
            replies: Vec::new(),
        }
    }

    /// Attaches a recorder; second-level cache hits become trace events.
    pub fn set_recorder(&mut self, rec: obs::Recorder) {
        self.recorder = rec;
    }

    /// Attaches a fault schedule to the initiator⇄target link. Commands
    /// gain timeouts, PDU validation, and bounded retries with capped
    /// exponential backoff.
    pub fn set_fault_plan(&mut self, plan: sim::Shared<sim::FaultPlan>) {
        self.fault_plan = Some(plan);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> InitiatorStats {
        self.stats
    }

    /// Counters of the slab free list behind receive copies and
    /// placeholder blocks.
    pub fn pool_stats(&self) -> SlabStats { // test-api: alloc_budget reads the slab free list; the host-time benchmark should too
        self.pool.slab_stats()
    }

    /// Drains the I/O log (the timing layer calls this once per request).
    /// The log keeps its capacity, so neither the drain nor the next
    /// request's I/O allocates; dropping the drain unread empties the log.
    pub fn take_io_log(&mut self) -> std::vec::Drain<'_, IoRecord> {
        self.io_log.drain(..)
    }

    /// Writes a chunk evicted from the network-centric cache back to the
    /// storage server (dirty LBN chunk displaced by cache pressure).
    pub fn write_chunk_direct(&mut self, lbn: Lbn, segs: SegChain, len: usize) {
        assert_eq!(len, BLOCK_SIZE, "chunk writebacks are whole blocks");
        self.io_log.push(IoRecord {
            lbn: lbn.0,
            is_write: true,
            class: BlockClass::Data,
        });
        self.stats.blocks_written += 1;
        self.stats.zero_copy_writes += 1;
        let mut pdu = NetBuf::new(&self.ledger);
        pdu.reserve_segments(segs.len());
        for seg in segs {
            pdu.append_segment(seg);
        }
        self.send_write(lbn.0, pdu);
    }

    /// Flushes any writebacks the NCache module has queued (evictions).
    pub fn drain_module_writebacks(&mut self) {
        let Some(module) = self.module.clone() else {
            return;
        };
        let wbs = module.borrow_mut().take_writebacks();
        for wb in wbs {
            self.write_chunk_direct(wb.lbn, wb.segs, wb.len);
        }
    }

    fn alloc_itt(&mut self) -> u32 {
        let itt = self.next_itt;
        self.next_itt += 1;
        itt
    }

    /// Books one retry: bumps the counters and doubles the (capped)
    /// backoff the command timer would wait before re-issuing.
    fn note_retry(&mut self, backoff: &mut u64) {
        self.stats.retries += 1;
        self.stats.backoff_us += *backoff;
        *backoff = (*backoff * 2).min(MAX_BACKOFF_US);
    }

    /// Sends `cmd` (with the Data-Out burst in `self.burst`, if any) and
    /// leaves the target's reply PDUs in `self.replies`.
    fn issue(&mut self, cmd: ScsiCommand) {
        self.replies.clear();
        self.target
            .borrow_mut()
            .handle_command_into(cmd, &mut self.burst, &mut self.replies);
    }

    /// The non-zero SCSI status of a lone response PDU, if that is what
    /// `pdus` is (a transiently failed command carries no data).
    fn command_failed(pdus: &[NetBuf]) -> Option<u8> {
        let [only] = pdus else { return None };
        match IscsiPdu::decode(only.header()) {
            Ok(IscsiPdu::Response(r)) if r.status != 0 => Some(r.status),
            _ => None,
        }
    }

    /// Issues a one-block read command and returns the delivered Data-In
    /// PDU (headers pulled), ready for payload extraction. Under a fault
    /// plan the command is re-issued — with capped exponential backoff —
    /// on device errors, timeouts (lost/late PDUs), and damaged Data-In
    /// frames, until a clean delivery validates.
    fn fetch_pdu(&mut self, lbn: u64) -> NetBuf {
        let mut backoff = BASE_BACKOFF_US;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            assert!(
                attempt <= MAX_CMD_ATTEMPTS,
                "consecutive-fault bounds guarantee read progress"
            );
            let itt = self.alloc_itt();
            let cmd = ScsiCommand {
                itt,
                op: ScsiOp::Read,
                lbn,
                blocks: 1,
            };
            self.issue(cmd);
            if Self::command_failed(&self.replies).is_some() {
                self.stats.io_errors += 1;
                self.note_retry(&mut backoff);
                continue;
            }
            debug_assert_eq!(self.replies.len(), 2, "one Data-In plus the response");
            let (rx, kind) = match &self.fault_plan {
                Some(plan) => stack::deliver_faulty(
                    &self.replies[0],
                    &self.ledger,
                    &mut plan.borrow_mut(),
                    sim::FaultLink::InitiatorTarget,
                ),
                None => (Some(stack::deliver(&self.replies[0], &self.ledger)), None),
            };
            // The sent PDU is done with: its slab goes home now, not when
            // the next command overwrites the list.
            self.replies.clear();
            match kind {
                // Lost, or arriving after the command timer: retransmit.
                Some(sim::FaultKind::Drop) | Some(sim::FaultKind::Delay) => {
                    self.stats.timeouts += 1;
                    self.note_retry(&mut backoff);
                    continue;
                }
                // A duplicate or reordered Data-In for a single
                // outstanding command needs no recovery: the extra copy
                // is discarded by ITT matching.
                Some(sim::FaultKind::Duplicate) | Some(sim::FaultKind::Reorder) => {
                    self.stats.absorbed_anomalies += 1;
                }
                _ => {}
            }
            let mut rx = rx.expect("non-drop faults still deliver");
            if rx.payload_len() >= BHS_LEN {
                let hdr = rx.pull_array::<BHS_LEN>();
                if let Ok(IscsiPdu::DataIn(d)) = IscsiPdu::decode(&hdr) {
                    if d.itt == itt && d.lbn == lbn && rx.payload_len() == BLOCK_SIZE {
                        return rx;
                    }
                }
            }
            // Truncated below a BHS, undecodable, or mismatched: discard
            // the frame and retransmit the command.
            self.stats.damaged_pdus += 1;
            self.note_retry(&mut backoff);
        }
    }

    fn send_write(&mut self, lbn: u64, payload_pdu: NetBuf) {
        let mut backoff = BASE_BACKOFF_US;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            assert!(
                attempt <= MAX_CMD_ATTEMPTS,
                "consecutive-fault bounds guarantee write progress"
            );
            let itt = self.alloc_itt();
            // Each attempt re-frames the same payload segments (shared
            // storage, no copies) under a fresh ITT, exactly like a real
            // initiator retransmitting a write burst.
            let mut pdu = NetBuf::new(&self.ledger);
            pdu.reserve_segments(payload_pdu.segment_count());
            for seg in payload_pdu.segments() {
                pdu.append_segment(seg.clone());
            }
            pdu.push_header(
                &DataOut {
                    itt,
                    lbn,
                    data_len: BLOCK_SIZE as u32,
                }
                .encode(),
            );
            let cmd = ScsiCommand {
                itt,
                op: ScsiOp::Write,
                lbn,
                blocks: 1,
            };
            // Deliver into the target's memory (DMA) before it parses.
            let (delivered, kind) = match &self.fault_plan {
                Some(plan) => stack::deliver_faulty(
                    &pdu,
                    self.target.borrow().ledger(),
                    &mut plan.borrow_mut(),
                    sim::FaultLink::InitiatorTarget,
                ),
                None => (Some(stack::deliver(&pdu, self.target.borrow().ledger())), None),
            };
            let Some(delivered) = delivered else {
                // The burst never arrived; the target's R2T timer would
                // fire and the command dies on the initiator's timer.
                self.stats.timeouts += 1;
                self.note_retry(&mut backoff);
                continue;
            };
            match kind {
                Some(sim::FaultKind::Duplicate) | Some(sim::FaultKind::Reorder) => {
                    self.stats.absorbed_anomalies += 1;
                }
                _ => {}
            }
            self.burst.push(delivered);
            self.issue(cmd);
            debug_assert_eq!(self.replies.len(), 1);
            if matches!(kind, Some(sim::FaultKind::Delay)) {
                // The burst arrived — and block writes are idempotent, so
                // its effect is harmless — but the response missed the
                // command timer; the initiator re-issues.
                self.stats.timeouts += 1;
                self.note_retry(&mut backoff);
                continue;
            }
            if Self::command_failed(&self.replies).is_some() {
                // Transient device error or a damaged burst the target
                // rejected: re-send everything.
                self.stats.io_errors += 1;
                self.note_retry(&mut backoff);
                continue;
            }
            return;
        }
    }
}

/// The copying write path: `block`'s bytes — stored ones and zeros alike —
/// copied onto a slab of `pool`, charged as [`NetBuf::append_pooled`] of
/// the whole block is.
fn append_block_copy(pdu: &mut NetBuf, pool: &BufPool, block: &Segment) {
    pdu.append_written(pool, block.len(), |w| block.runs().for_each(|run| w.put(run)));
}

impl BlockStore for IscsiInitiator {
    fn read_block(&mut self, lbn: u64, class: BlockClass) -> Segment {
        // Second-level cache (§3.4): a file-system cache miss that hits the
        // network-centric cache is served without any storage traffic —
        // "most of these disk accesses are caught and serviced by a much
        // larger network-centric cache".
        if self.mode == ServerMode::NCache && class == BlockClass::Data {
            let module = self.module.clone().expect("NCache mode has a module");
            let mut m = module.borrow_mut();
            // A limit of zero shares no payload: the probe counts and
            // promotes like any lookup but builds no segment list.
            if m.cache_mut().lookup_into(Lbn(lbn).into(), 0, &mut Vec::new()) {
                self.stats.second_level_hits += 1;
                drop(m);
                self.recorder.emit(obs::EventKind::CacheAccess {
                    tier: "ncache",
                    hit: true,
                });
                return ncache::placeholder_block(
                    &self.ledger,
                    &self.stamps,
                    KeyStamp::new().with_lbn(Lbn(lbn)),
                );
            }
        }
        self.io_log.push(IoRecord {
            lbn,
            is_write: false,
            class,
        });
        self.stats.blocks_read += 1;
        let mut pdu = self.fetch_pdu(lbn);
        match (self.mode, class) {
            (ServerMode::NCache, BlockClass::Data) => {
                // Hook 1: park the wire payload in the LBN cache; the file
                // system gets a placeholder. No copy.
                let module = self.module.clone().expect("NCache mode has a module");
                let segs = pdu.take_payload();
                let result = module.borrow_mut().on_data_in(Lbn(lbn), segs, BLOCK_SIZE);
                match result {
                    Ok(placeholder) => {
                        self.stats.zero_copy_reads += 1;
                        self.drain_module_writebacks();
                        placeholder
                    }
                    Err(_) => {
                        // Cache full of unremapped dirty chunks: fall back
                        // to the copying path (payload was consumed; refetch).
                        self.stats.cache_admission_failures += 1;
                        let pdu = self.fetch_pdu(lbn);
                        pdu.copy_payload_to_pooled(&self.pool)
                    }
                }
            }
            (ServerMode::Baseline, BlockClass::Data) => {
                // The ideal bound: the receive copy is simply removed; the
                // file system gets junk — a block nobody writes, so it
                // stores nothing at all.
                Segment::zeroed(BLOCK_SIZE)
            }
            (_, BlockClass::Meta) => {
                // Metadata under every build: physically copied, but not a
                // regular-data copy (Table 2 counts only the latter).
                let bytes = pdu.peek(0, pdu.payload_len());
                self.ledger.charge_meta_copy(bytes.len() as u64);
                Segment::from_vec(bytes)
            }
            (ServerMode::Original, BlockClass::Data) => {
                // The network-stack → buffer-cache copy.
                pdu.copy_payload_to_pooled(&self.pool)
            }
        }
    }

    fn write_block(&mut self, lbn: u64, class: BlockClass, data: &Segment) {
        self.io_log.push(IoRecord {
            lbn,
            is_write: true,
            class,
        });
        self.stats.blocks_written += 1;
        let mut pdu = NetBuf::new(&self.ledger);
        match (self.mode, class) {
            (ServerMode::NCache, BlockClass::Data) => {
                // Hook 3: a flushed placeholder triggers remapping and the
                // cached payload goes out logically.
                let module = self.module.clone().expect("NCache mode has a module");
                let segs = data
                    .stamp()
                    .and_then(|stamp| module.borrow_mut().on_flush_stamp(stamp, Lbn(lbn)));
                match segs {
                    Some(segs) => {
                        self.stats.zero_copy_writes += 1;
                        pdu.reserve_segments(segs.len());
                        for seg in segs {
                            pdu.append_segment(seg);
                        }
                    }
                    None => {
                        // Not a placeholder (e.g. a physically-written
                        // block): ordinary copying path.
                        append_block_copy(&mut pdu, &self.pool, data);
                    }
                }
            }
            (ServerMode::Baseline, BlockClass::Data) => {
                // Zero-copy bound: junk goes out without a copy.
                pdu.append_segment(data.clone());
            }
            (_, BlockClass::Meta) => {
                // Metadata flush: a physical copy, charged as such.
                self.ledger.charge_meta_copy(data.len() as u64);
                pdu.append_segment(data.clone());
            }
            (ServerMode::Original, BlockClass::Data) => {
                // Buffer cache → network stack copy.
                append_block_copy(&mut pdu, &self.pool, data);
            }
        }
        self.send_write(lbn, pdu);
    }

    fn block_count(&self) -> u64 {
        self.target.borrow().block_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncache::{NcacheConfig, NcacheModule};
    use simfs::store::synthetic_block;

    fn rig(mode: ServerMode, cache_bytes: u64) -> (IscsiInitiator, sim::Shared<IscsiTarget>, CopyLedger) {
        let storage_ledger = CopyLedger::new();
        let app_ledger = CopyLedger::new();
        let target = sim::Shared::new(IscsiTarget::new(4096, &storage_ledger));
        let module = (mode == ServerMode::NCache).then(|| {
            sim::Shared::new(NcacheModule::new(
                NcacheConfig::with_capacity(cache_bytes),
                &app_ledger,
            ))
        });
        let init = IscsiInitiator::new(target.clone(), &app_ledger, mode, module);
        (init, target, app_ledger)
    }

    #[test]
    fn original_read_copies_once() {
        let (mut init, _t, ledger) = rig(ServerMode::Original, 0);
        let before = ledger.snapshot();
        let seg = init.read_block(5, BlockClass::Data);
        assert_eq!(seg.as_slice(), &synthetic_block(5)[..]);
        let d = ledger.snapshot().delta_since(&before);
        assert_eq!(d.payload_copies, 1, "the net→cache copy");
        assert_eq!(init.stats().blocks_read, 1);
    }

    #[test]
    fn ncache_read_is_zero_copy_and_stamped() {
        let (mut init, _t, ledger) = rig(ServerMode::NCache, 1 << 22);
        let before = ledger.snapshot();
        let seg = init.read_block(5, BlockClass::Data);
        let d = ledger.snapshot().delta_since(&before);
        assert_eq!(d.payload_copies, 0, "hook 1 removes the receive copy");
        let stamp = seg.stamp().expect("placeholder");
        assert_eq!((seg.len(), seg.stored_len()), (BLOCK_SIZE, KeyStamp::LEN));
        assert_eq!(stamp.lbn, Some(Lbn(5)));
        let module = init.module.clone().expect("module");
        assert!(module.borrow().cache_handle().contains(Lbn(5).into()));
        assert_eq!(init.stats().zero_copy_reads, 1);
        // The cached payload is the true block contents.
        assert_eq!(
            module.borrow_mut().cache_mut().chunk_bytes(Lbn(5).into()),
            Some(synthetic_block(5))
        );
    }

    #[test]
    fn ncache_metadata_read_still_copies() {
        let (mut init, _t, ledger) = rig(ServerMode::NCache, 1 << 22);
        let before = ledger.snapshot();
        let seg = init.read_block(3, BlockClass::Meta);
        assert_eq!(seg.as_slice(), &synthetic_block(3)[..]);
        let d = ledger.snapshot().delta_since(&before);
        assert_eq!(d.meta_copies, 1, "metadata takes the physical path");
        assert_eq!(d.payload_copies, 0, "but is not a regular-data copy");
        assert_eq!(init.stats().zero_copy_reads, 0);
    }

    #[test]
    fn baseline_read_copies_nothing_and_returns_junk() {
        let (mut init, _t, ledger) = rig(ServerMode::Baseline, 0);
        let before = ledger.snapshot();
        let seg = init.read_block(5, BlockClass::Data);
        assert_eq!(
            ledger.snapshot().delta_since(&before).payload_copies,
            0
        );
        assert_eq!(seg.as_slice(), &vec![0u8; BLOCK_SIZE][..], "junk");
        assert_eq!(seg.stored_len(), 0, "junk stores nothing");
    }

    #[test]
    fn original_write_copies_once_and_persists() {
        let (mut init, t, ledger) = rig(ServerMode::Original, 0);
        let before = ledger.snapshot();
        let data = Segment::from_vec(vec![0xEE; BLOCK_SIZE]);
        init.write_block(9, BlockClass::Data, &data);
        let d = ledger.snapshot().delta_since(&before);
        assert_eq!(d.payload_copies, 1, "the cache→net copy");
        assert_eq!(t.borrow().block_contents(9), vec![0xEE; BLOCK_SIZE]);
    }

    #[test]
    fn ncache_flush_remaps_and_sends_real_data() {
        let (mut init, t, ledger) = rig(ServerMode::NCache, 1 << 22);
        let module = init.module.clone().expect("module");
        // An NFS write parked payload in the FHO cache.
        let fho = netbuf::key::Fho::new(netbuf::key::FileHandle(7), 0);
        let stamp = module
            .borrow_mut()
            .on_nfs_write(fho, vec![Segment::from_vec(vec![0xDD; BLOCK_SIZE])], BLOCK_SIZE)
            .expect("fits");
        // The FS flushes the placeholder block to LBN 77.
        let mut placeholder = vec![0u8; BLOCK_SIZE];
        stamp.encode_into(&mut placeholder);
        let before = ledger.snapshot();
        init.write_block(77, BlockClass::Data, &Segment::from_vec(placeholder));
        let d = ledger.snapshot().delta_since(&before);
        assert_eq!(d.payload_copies, 0, "flush is zero-copy on the app server");
        // The *real* data reached storage, not the junk.
        assert_eq!(t.borrow().block_contents(77), vec![0xDD; BLOCK_SIZE]);
        assert!(module.borrow().cache_handle().contains(Lbn(77).into()), "remapped");
        assert!(!module.borrow().cache_handle().contains(fho.into()));
        assert_eq!(init.stats().zero_copy_writes, 1);
    }

    #[test]
    fn ncache_cache_full_falls_back_to_copying() {
        // A cache big enough for one chunk, filled with an unremappable
        // dirty FHO chunk: the next data read must fall back.
        let chunk = BLOCK_SIZE as u64 + 128;
        let (mut init, _t, _l) = rig(ServerMode::NCache, chunk);
        let module = init.module.clone().expect("module");
        module
            .borrow_mut()
            .on_nfs_write(
                netbuf::key::Fho::new(netbuf::key::FileHandle(1), 0),
                vec![Segment::from_vec(vec![1; BLOCK_SIZE])],
                BLOCK_SIZE,
            )
            .expect("fits");
        let seg = init.read_block(5, BlockClass::Data);
        assert_eq!(seg.as_slice(), &synthetic_block(5)[..], "correct data anyway");
        assert_eq!(init.stats().cache_admission_failures, 1);
    }

    #[test]
    fn io_log_records_and_drains() {
        let (mut init, _t, _l) = rig(ServerMode::Original, 0);
        init.read_block(1, BlockClass::Meta);
        init.write_block(2, BlockClass::Data, &Segment::zeroed(BLOCK_SIZE));
        let log: Vec<IoRecord> = init.take_io_log().collect();
        assert_eq!(
            log,
            vec![
                IoRecord {
                    lbn: 1,
                    is_write: false,
                    class: BlockClass::Meta
                },
                IoRecord {
                    lbn: 2,
                    is_write: true,
                    class: BlockClass::Data
                },
            ]
        );
        assert_eq!(init.take_io_log().len(), 0);
    }

    #[test]
    #[should_panic(expected = "requires the NCache module")]
    fn ncache_mode_without_module_panics() {
        let target = sim::Shared::new(IscsiTarget::new(16, &CopyLedger::new()));
        let _ = IscsiInitiator::new(target, &CopyLedger::new(), ServerMode::NCache, None);
    }

    fn arm(init: &mut IscsiInitiator, target: &sim::Shared<IscsiTarget>, spec: sim::FaultSpec) {
        init.set_fault_plan(sim::Shared::new(sim::FaultPlan::new(&spec, 99)));
        target
            .borrow_mut()
            .set_transient_faults(blockdev::TransientFaults::new(99, spec.io_ppm()));
    }

    #[test]
    fn reads_survive_heavy_loss_with_correct_bytes() {
        let (mut init, t, _l) = rig(ServerMode::Original, 0);
        arm(
            &mut init,
            &t,
            sim::FaultSpec {
                loss: 0.4,
                io: 0.3,
                ..sim::FaultSpec::default()
            },
        );
        for lbn in 0..32u64 {
            let seg = init.read_block(lbn, BlockClass::Data);
            assert_eq!(seg.as_slice(), &synthetic_block(lbn)[..], "lbn {lbn}");
        }
        let s = init.stats();
        assert!(s.retries > 0, "40% loss + 30% io errors forced retries");
        assert!(s.timeouts > 0);
        assert!(s.io_errors > 0);
        assert!(s.backoff_us > 0, "backoff accounted");
    }

    #[test]
    fn writes_survive_corruption_and_truncation_and_persist() {
        let (mut init, t, _l) = rig(ServerMode::Original, 0);
        arm(
            &mut init,
            &t,
            sim::FaultSpec {
                corrupt: 0.25,
                truncate: 0.25,
                loss: 0.2,
                ..sim::FaultSpec::default()
            },
        );
        for lbn in 0..24u64 {
            let data = Segment::from_vec(vec![lbn as u8 ^ 0x5A; BLOCK_SIZE]);
            init.write_block(lbn, BlockClass::Data, &data);
            assert_eq!(
                t.borrow().block_contents(lbn),
                vec![lbn as u8 ^ 0x5A; BLOCK_SIZE],
                "lbn {lbn}: the final write burst always lands intact"
            );
        }
        assert!(init.stats().retries > 0, "the faults really fired");
    }

    #[test]
    fn same_seed_same_retry_schedule() {
        let spec = sim::FaultSpec {
            loss: 0.3,
            corrupt: 0.2,
            io: 0.2,
            ..sim::FaultSpec::default()
        };
        let run = || {
            let (mut init, t, _l) = rig(ServerMode::Original, 0);
            arm(&mut init, &t, spec);
            let mut bytes = Vec::new();
            for lbn in 0..16u64 {
                bytes.extend_from_slice(init.read_block(lbn, BlockClass::Data).as_slice());
            }
            (bytes, init.stats())
        };
        let (bytes_a, stats_a) = run();
        let (bytes_b, stats_b) = run();
        assert_eq!(bytes_a, bytes_b);
        assert_eq!(stats_a, stats_b, "identical fault schedule, identical recovery");
    }
}

//! The NFS-over-iSCSI pass-through rig: client ⇄ NFS server ⇄ iSCSI
//! target, fully wired, with per-node copy ledgers.


use ncache::{NcacheConfig, NcacheModule};
use netbuf::{CopyLedger, NetBuf};
use proto::nfs::{ReadReplyHeader, WriteReply, NFS_OK};
use servers::initiator::IscsiInitiator;
use servers::nfs::{fh_to_ino, ino_to_fh, NfsClient, NfsServer};
use servers::{IscsiTarget, ServerMode};
use sim::{FaultKind, FaultLink, FaultPlan, FaultSpec, SplitMix64};
use simfs::store::synthetic_block;
use simfs::{Filesystem, FsParams};

/// Per-node copy ledgers (one per simulated machine).
#[derive(Clone, Debug, Default)]
pub struct NodeLedgers {
    /// The measurement client.
    pub client: CopyLedger,
    /// The application (NFS / web) server.
    pub app: CopyLedger,
    /// The storage server.
    pub storage: CopyLedger,
}

/// Rig geometry. Defaults are scaled to run quickly; the benchmark harness
/// widens them per experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NfsRigParams {
    /// Exported volume size in blocks.
    pub volume_blocks: u64,
    /// File-system buffer-cache capacity in blocks. Under NCache this is
    /// deliberately small (§3.4: "the file system cache is configured to
    /// be much smaller than the network-centric cache").
    pub fs_cache_blocks: usize,
    /// NCache pinned capacity in bytes (NCache build only).
    pub ncache_bytes: u64,
    /// Read-ahead window in blocks (tuned to the request size, §5.4).
    pub read_ahead_blocks: u64,
    /// Inodes to provision.
    pub inode_count: u32,
    /// NCache shard count (NCache build only). Sharding only partitions
    /// the key space; every observable is identical at any shard count.
    pub shards: usize,
}

impl Default for NfsRigParams {
    fn default() -> Self {
        NfsRigParams {
            volume_blocks: 64 << 10, // 256 MiB volume
            fs_cache_blocks: 2 << 10,
            ncache_bytes: 64 << 20,
            read_ahead_blocks: 8,
            inode_count: 4 << 10,
            shards: 1,
        }
    }
}

/// Retransmission budget per RPC before the rig reports a clean failure.
/// The fault plan forces a clean delivery after three consecutive faults
/// per link, so at any bounded fault rate requests converge well inside
/// this budget; the cap turns pathological schedules into clean errors
/// instead of livelock.
pub const MAX_RPC_ATTEMPTS: u32 = 8;

/// Client-side recovery counters for the faulted RPC exchange loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// RPCs re-sent after a lost or damaged exchange.
    pub retransmits: u64,
    /// Request datagrams the link dropped.
    pub request_drops: u64,
    /// Reply datagrams the link dropped.
    pub reply_drops: u64,
    /// Request datagrams the link duplicated (the server saw both).
    pub duplicates: u64,
    /// Exchanges where a stale request was resequenced in front.
    pub reorders: u64,
    /// Exchanges whose reply missed the client's RPC timer.
    pub timeouts: u64,
    /// In-flight damage the UDP checksum stand-in discarded at the
    /// server's doorstep.
    pub checksum_discards: u64,
    /// Replies that arrived but failed validation (damage, stale xid).
    pub damaged_replies: u64,
    /// RPCs that exhausted [`MAX_RPC_ATTEMPTS`] and failed cleanly.
    pub failed_requests: u64,
}

impl FaultCounters {
    /// Adds another counter set into this one (the lane-parallel engine
    /// merges per-lane recovery counters in lane order).
    pub fn absorb(&mut self, other: &FaultCounters) {
        self.retransmits += other.retransmits;
        self.request_drops += other.request_drops;
        self.reply_drops += other.reply_drops;
        self.duplicates += other.duplicates;
        self.reorders += other.reorders;
        self.timeouts += other.timeouts;
        self.checksum_discards += other.checksum_discards;
        self.damaged_replies += other.damaged_replies;
        self.failed_requests += other.failed_requests;
    }
}

impl obs::StatsSnapshot for FaultCounters {
    fn source(&self) -> &'static str {
        "fault-client"
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("retransmits", self.retransmits),
            ("request_drops", self.request_drops),
            ("reply_drops", self.reply_drops),
            ("duplicates", self.duplicates),
            ("reorders", self.reorders),
            ("timeouts", self.timeouts),
            ("checksum_discards", self.checksum_discards),
            ("damaged_replies", self.damaged_replies),
            ("failed_requests", self.failed_requests),
        ]
    }
}

/// The client-side state of one faulty RPC channel: the link's seeded
/// fault plan, the recovery counters it accumulates, and the slot holding
/// the previously completed request (replayed in front by reorder faults).
/// [`NfsRig`] keeps one for its own client; the lane-parallel engine keeps
/// one per session lane, each on an independently derived plan seed, so a
/// lane's fault schedule never depends on how lanes interleave.
#[derive(Debug)]
pub(crate) struct FaultChannel {
    pub(crate) plan: sim::Shared<FaultPlan>,
    pub(crate) counters: FaultCounters,
    pub(crate) replay_slot: Option<NetBuf>,
}

/// One RPC exchange over a faulty client⇄server link. Request-direction
/// faults: drops retransmit; in-flight damage is discarded by the UDP
/// checksum stand-in before it reaches the server; delays execute but
/// miss the client's timer; duplicates are handled twice (the
/// duplicate-request cache absorbs the second copy); reorders resequence
/// the previously completed request in front. Reply-direction faults
/// mirror: drops, damage, and delays all trigger retransmission, and the
/// reply's xid must match the call's.
///
/// The channel's plan is borrowed only around each `deliver_faulty` call:
/// the server's storage path may share the same plan handle for I/O
/// faults, and holding the guard across `handle_message` would deadlock.
#[allow(clippy::too_many_arguments)]
pub(crate) fn faulted_exchange<T>(
    server: &mut NfsServer,
    client: &NfsClient,
    app_ledger: &CopyLedger,
    client_ledger: &CopyLedger,
    rec: &obs::Recorder,
    chan: &mut FaultChannel,
    req: NetBuf,
    parse: impl Fn(&NfsClient, &NetBuf) -> Option<(u32, T)>,
) -> Option<T> {
    faulted_exchange_with(
        &mut |d| server.handle_message(d),
        client,
        app_ledger,
        client_ledger,
        rec,
        chan,
        req,
        parse,
    )
}

/// [`faulted_exchange`] with the server step abstracted: every delivered
/// request — including late, duplicated, and stale ones — goes through
/// `step`, which must both execute the request and finish its reply (for a
/// deferred-transmit server, run payload substitution and checksum
/// inheritance, exactly what the transmit hook would have done on every
/// reply the sequential server emits).
#[allow(clippy::too_many_arguments)]
pub(crate) fn faulted_exchange_with<T>(
    step: &mut impl FnMut(NetBuf) -> NetBuf,
    client: &NfsClient,
    app_ledger: &CopyLedger,
    client_ledger: &CopyLedger,
    rec: &obs::Recorder,
    chan: &mut FaultChannel,
    req: NetBuf,
    parse: impl Fn(&NfsClient, &NetBuf) -> Option<(u32, T)>,
) -> Option<T> {
    let xid = proto::rpc::RpcCall::decode(req.header())
        .expect("rig-built request")
        .xid;
    let mut span = None;
    for attempt in 0..MAX_RPC_ATTEMPTS {
        if attempt > 0 {
            // A recovery episode is under way; trace it as one span.
            span.get_or_insert_with(|| rec.begin_span("fault", "retransmit", 0));
            chan.counters.retransmits += 1;
            rec.add_counter("fault.retransmits", 1);
        }
        let (delivered, kind) = {
            let mut p = chan.plan.borrow_mut();
            servers::stack::deliver_faulty(&req, app_ledger, &mut p, FaultLink::ClientServer)
        };
        let reply = match (delivered, kind) {
            (None, _) => {
                chan.counters.request_drops += 1;
                rec.add_counter("fault.request_drops", 1);
                continue;
            }
            (Some(_), Some(FaultKind::Corrupt { .. } | FaultKind::Truncate { .. })) => {
                // The datagram checksum catches in-flight damage; the
                // request never reaches the server.
                chan.counters.checksum_discards += 1;
                rec.add_counter("fault.checksum_discards", 1);
                continue;
            }
            (Some(d), Some(FaultKind::Delay)) => {
                // Executed server-side, but the reply misses the RPC
                // timer; the retransmission must not re-execute.
                let _late = step(d);
                chan.counters.timeouts += 1;
                rec.add_counter("fault.timeouts", 1);
                continue;
            }
            (Some(d), Some(FaultKind::Duplicate)) => {
                chan.counters.duplicates += 1;
                rec.add_counter("fault.duplicates", 1);
                let reply = step(d);
                let dup = servers::stack::deliver(&req, app_ledger);
                let _discarded = step(dup);
                reply
            }
            (Some(d), Some(FaultKind::Reorder)) => {
                chan.counters.reorders += 1;
                rec.add_counter("fault.reorders", 1);
                if let Some(prev) = chan.replay_slot.take() {
                    // A stale retransmission of the previous request
                    // arrives first; its reply is discarded.
                    let old = servers::stack::deliver(&prev, app_ledger);
                    let _stale = step(old);
                    chan.replay_slot = Some(prev);
                }
                step(d)
            }
            (Some(d), _) => step(d),
        };
        let (rx, rkind) = {
            let mut p = chan.plan.borrow_mut();
            servers::stack::deliver_faulty(&reply, client_ledger, &mut p, FaultLink::ClientServer)
        };
        let Some(rx) = rx else {
            chan.counters.reply_drops += 1;
            rec.add_counter("fault.reply_drops", 1);
            continue;
        };
        if matches!(rkind, Some(FaultKind::Delay)) {
            // The RPC timer already fired; the late reply is dropped
            // on the floor and the retransmission hits the DRC.
            chan.counters.timeouts += 1;
            rec.add_counter("fault.timeouts", 1);
            continue;
        }
        if matches!(rkind, Some(FaultKind::Corrupt { .. })) {
            // A flipped bit anywhere in the datagram fails the UDP
            // checksum; the client never sees the damaged reply. The
            // bit flip could land in the status or payload bytes,
            // where xid/length validation alone would miss it.
            chan.counters.checksum_discards += 1;
            rec.add_counter("fault.checksum_discards", 1);
            continue;
        }
        match parse(client, &rx) {
            Some((got, v)) if got == xid => {
                if let Some(s) = span.take() {
                    rec.end_span(s);
                }
                chan.replay_slot = Some(req);
                return Some(v);
            }
            _ => {
                chan.counters.damaged_replies += 1;
                rec.add_counter("fault.damaged_replies", 1);
                continue;
            }
        }
    }
    if let Some(s) = span.take() {
        rec.end_span(s);
    }
    chan.counters.failed_requests += 1;
    rec.add_counter("fault.failed_requests", 1);
    None
}

/// The assembled rig.
#[derive(Debug)]
pub struct NfsRig {
    server: NfsServer,
    client: NfsClient,
    target: sim::Shared<IscsiTarget>,
    module: Option<sim::Shared<NcacheModule>>,
    ledgers: NodeLedgers,
    mode: ServerMode,
    params: NfsRigParams,
    recorder: obs::Recorder,
    fault_plan: Option<sim::Shared<FaultPlan>>,
    fault_spec: FaultSpec,
    fault_counters: FaultCounters,
    poison_rng: SplitMix64,
    replay_slot: Option<NetBuf>,
    adaptive: Option<ncache::SplitController>,
}

impl NfsRig {
    /// Builds the full rig for `mode`: storage server, (optionally) the
    /// NCache module, the initiator, a freshly formatted file system, the
    /// NFS server and a client.
    ///
    /// # Panics
    ///
    /// Panics if the volume is too small to format — a configuration bug.
    pub fn new(mode: ServerMode, params: NfsRigParams) -> Self {
        let ledgers = NodeLedgers::default();
        let target = sim::Shared::new(IscsiTarget::new(
            params.volume_blocks,
            &ledgers.storage,
        ));
        let module = (mode == ServerMode::NCache).then(|| {
            sim::Shared::new(NcacheModule::new(
                NcacheConfig::with_capacity(params.ncache_bytes).with_shards(params.shards),
                &ledgers.app,
            ))
        });
        let initiator = IscsiInitiator::new(
            target.clone(),
            &ledgers.app,
            mode,
            module.clone(),
        );
        let fs = Filesystem::mkfs(
            initiator,
            FsParams {
                total_blocks: params.volume_blocks,
                inode_count: params.inode_count,
                cache_blocks: params.fs_cache_blocks,
                read_ahead_blocks: params.read_ahead_blocks,
            },
            &ledgers.app,
        )
        .expect("volume large enough to format");
        let server = NfsServer::new(mode, fs, module.clone(), &ledgers.app);
        NfsRig {
            server,
            client: NfsClient::new(&ledgers.client),
            target,
            module,
            ledgers,
            mode,
            params,
            recorder: obs::Recorder::new(),
            fault_plan: None,
            fault_spec: FaultSpec::default(),
            fault_counters: FaultCounters::default(),
            poison_rng: SplitMix64::new(0),
            replay_slot: None,
            adaptive: None,
        }
    }

    /// Builds the rig and arms the whole stack with a seeded fault plan:
    /// the client⇄server link (this rig's exchange loop), the
    /// initiator⇄target link (inside the initiator), transient I/O errors
    /// at the target, and checksum-verified placeholder revalidation at
    /// the server.
    pub fn new_faulted(
        mode: ServerMode,
        params: NfsRigParams,
        spec: &FaultSpec,
        seed: u64,
    ) -> Self {
        let mut rig = Self::new(mode, params);
        let plan = sim::Shared::new(FaultPlan::new(spec, seed));
        rig.server
            .fs_mut()
            .store_mut()
            .set_fault_plan(plan.clone());
        rig.target
            .borrow_mut()
            .set_transient_faults(blockdev::TransientFaults::new(
                crate::executor::derive_seed(seed, 1),
                spec.io_ppm(),
            ));
        rig.server.set_fault_recovery(true);
        rig.poison_rng = SplitMix64::new(crate::executor::derive_seed(seed, 2));
        rig.fault_spec = *spec;
        rig.fault_plan = Some(plan);
        rig
    }

    /// Whether this rig runs with an armed fault plan.
    pub fn faults_armed(&self) -> bool {
        self.fault_plan.is_some()
    }

    /// Installs the overload control plane on the rig's server: admission
    /// gating, dirty-cache backpressure, and NCache insertion bypass
    /// (DESIGN.md §15). Off by default — an uncontrolled rig is
    /// byte-identical to the pre-control-plane build.
    pub fn enable_control(&mut self, cfg: servers::ControlConfig) {
        self.server.enable_control(cfg);
    }

    /// The server's control-plane counters, when a plane is installed.
    pub fn control_stats(&self) -> Option<servers::ControlStats> {
        self.server.control_stats()
    }

    /// Installs the adaptive cache-split plane (DESIGN.md §16): ghost LRU
    /// tails on the FS buffer cache and (under the NCache build) the
    /// NCache pool, plus the epoch-aligned [`ncache::SplitController`]
    /// seeded with the caches' *current* capacities. With
    /// [`ncache::SplitConfig::static_split`] the controller is frozen —
    /// ghosts observe but quotas never move and nothing is emitted, so
    /// the installation is byte-for-byte unobservable.
    pub fn enable_adaptive(&mut self, cfg: ncache::SplitConfig) {
        let fs = self.server.fs_mut();
        fs.enable_cache_ghost(cfg.ghost_blocks);
        let fs_blocks = fs.cache_capacity() as u64;
        let ncache_bytes = match &self.module {
            Some(m) => {
                let m = m.borrow();
                m.enable_ghost(cfg.ghost_blocks);
                m.pool_capacity()
            }
            // Without the NCache pool there is no donor and the
            // nc ghost never fires: the controller stays put.
            None => 0,
        };
        self.adaptive = Some(ncache::SplitController::new(cfg, fs_blocks, ncache_bytes));
    }

    /// The installed split controller, if any.
    pub fn adaptive_controller(&self) -> Option<&ncache::SplitController> {
        self.adaptive.as_ref()
    }

    /// The controller's epoch length in ops per session-round, when one
    /// is installed. The session engines tick [`Self::adaptive_tick`] on
    /// exactly these op-count boundaries — frozen controllers included,
    /// because a frozen tick is read-only and must stay unobservable
    /// under either schedule.
    pub fn adaptive_epoch(&self) -> Option<u64> {
        self.adaptive.as_ref().map(|c| c.config().epoch_ops)
    }

    /// One controller epoch: samples cumulative cache + ghost counters,
    /// lets the controller window them and decide, and applies any quota
    /// move *eagerly* — the FS cache evicts (flushing dirty victims)
    /// down to its new capacity and the NCache pool sheds clean chunks,
    /// all inside the tick, never lazily mid-request. Storage I/O issued
    /// by resize writebacks is drained from the store's log so it is
    /// charged to no request's burst (both engines tick at identical
    /// op-count boundaries, so both drain identically).
    pub fn adaptive_tick(&mut self) {
        if self.adaptive.is_none() {
            return;
        }
        let fs_stats = self.server.fs_mut().cache_stats();
        let fs_ghost = self
            .server
            .fs_mut()
            .cache_ghost_stats()
            .unwrap_or_default();
        let (nc_stats, nc_ghost) = match &self.module {
            Some(m) => {
                let m = m.borrow();
                (m.stats(), m.ghost_stats().unwrap_or_default())
            }
            None => Default::default(),
        };
        let sample = ncache::SplitSample {
            fs_hits: fs_stats.hits,
            fs_misses: fs_stats.misses,
            fs_ghost_hits: fs_ghost.hits,
            nc_hits: nc_stats.hits,
            nc_misses: nc_stats.lookups - nc_stats.hits,
            nc_ghost_hits: nc_ghost.hits,
        };
        let controller = self.adaptive.as_mut().expect("checked above");
        let resize = controller.tick(sample);
        if controller.is_dynamic() {
            let w = controller.window();
            if w.fs_ghost_hits > 0 {
                self.recorder.add_counter("ghost.hit.fs", w.fs_ghost_hits);
            }
            if w.nc_ghost_hits > 0 {
                self.recorder
                    .add_counter("ghost.hit.ncache", w.nc_ghost_hits);
            }
        }
        let Some(resize) = resize else { return };
        let fs = self.server.fs_mut();
        fs.set_cache_capacity(resize.fs_blocks as usize);
        if let Some(m) = &self.module {
            m.borrow().set_pool_capacity(resize.ncache_bytes);
        }
        let _ = self.server.fs_mut().store_mut().take_io_log();
        self.recorder.add_counter("adaptive.resize", 1);
    }

    /// The fault specification the rig was armed with (default when
    /// unarmed). The lane-parallel engine derives each lane's private
    /// link plan from this spec.
    pub fn fault_spec(&self) -> FaultSpec {
        self.fault_spec
    }

    /// The client-side recovery counters (all zero without faults).
    pub fn fault_counters(&self) -> FaultCounters {
        self.fault_counters
    }

    /// Folds recovery counters accumulated outside the rig (per-lane
    /// channels of the parallel engine) into the rig's own.
    pub fn absorb_fault_counters(&mut self, counters: &FaultCounters) {
        self.fault_counters.absorb(counters);
    }

    /// Attaches a recorder to the whole rig: the server span layer, the
    /// data plane below it, and every node's copy ledger.
    pub fn set_recorder(&mut self, rec: obs::Recorder) {
        self.ledgers.client.attach_recorder(&rec);
        self.ledgers.app.attach_recorder(&rec);
        self.ledgers.storage.attach_recorder(&rec);
        self.server.set_recorder(rec.clone());
        self.recorder = rec;
    }

    /// The rig's recorder (disabled unless [`Self::set_recorder`] ran).
    pub fn recorder(&self) -> &obs::Recorder {
        &self.recorder
    }

    /// Snapshots every stats struct in the rig into one unified report.
    pub fn metrics_report(&mut self) -> obs::MetricsReport {
        let mut report = obs::MetricsReport::new();
        report.add_snapshot("nfs-server", &self.server.stats());
        report.add_snapshot("fs-cache", &self.server.fs_mut().cache_stats());
        report.add_snapshot("initiator", &self.server.fs_mut().store_mut().stats());
        report.add_snapshot("target", &self.target.borrow().stats());
        if let Some(module) = &self.module {
            report.add_snapshot("ncache", &module.borrow().stats());
        }
        report.add_snapshot("ledger.client", &self.ledgers.client.snapshot());
        report.add_snapshot("ledger.app", &self.ledgers.app.snapshot());
        report.add_snapshot("ledger.storage", &self.ledgers.storage.snapshot());
        if self.fault_plan.is_some() {
            report.add_snapshot("fault-client", &self.fault_counters);
        }
        if let Some(control) = self.server.control_stats() {
            report.add_snapshot("control", &control);
        }
        if let Some(c) = self.adaptive.as_ref().filter(|c| c.is_dynamic()) {
            report.add_snapshot("adaptive", &c.split_stats());
        }
        report
    }

    /// Syncs and drops the file-system buffer cache, so measurement starts
    /// cold (setup writes would otherwise leave real data resident and
    /// mask each build's miss path). The network-centric cache is left
    /// alone — setup never touches it.
    pub fn quiesce(&mut self) {
        // Under an adaptive split the controller owns the FS quota;
        // restore its current figure, not the construction-time one.
        let blocks = self
            .adaptive
            .as_ref()
            .map_or(self.params.fs_cache_blocks, |c| c.fs_blocks() as usize);
        let fs = self.server.fs_mut();
        fs.sync().expect("sync");
        fs.set_cache_capacity(0);
        fs.set_cache_capacity(blocks);
    }

    /// The build this rig runs.
    pub fn mode(&self) -> ServerMode {
        self.mode
    }

    /// The per-node ledgers.
    pub fn ledgers(&self) -> &NodeLedgers {
        &self.ledgers
    }

    /// The NFS server (stats, file system access).
    pub fn server_mut(&mut self) -> &mut NfsServer {
        &mut self.server
    }

    /// Shared access to the server — the concurrent read fast path serves
    /// cache-hit READs through `&NfsServer` under a shared core guard.
    pub fn server(&self) -> &NfsServer {
        &self.server
    }

    /// The NCache module, under that build.
    pub fn module(&self) -> Option<sim::Shared<NcacheModule>> {
        self.module.clone()
    }

    /// The storage server (integrity inspection).
    pub fn target(&self) -> sim::Shared<IscsiTarget> {
        self.target.clone()
    }

    /// Creates a file and fills it with [`Self::pattern`] content (setup
    /// path — writes go through the server's file system directly, then
    /// sync, so measurement starts from a quiescent volume).
    pub fn create_file(&mut self, name: &str, size: u64) -> u64 {
        let fs = self.server.fs_mut();
        let ino = fs
            .create(Filesystem::<IscsiInitiator>::ROOT, name)
            .expect("fresh name");
        let mut offset = 0u64;
        while offset < size {
            let chunk = (size - offset).min(1 << 20) as usize;
            let data = Self::pattern(ino_to_fh(ino), offset, chunk);
            fs.write(ino, offset, &data).expect("volume has space");
            offset += chunk as u64;
        }
        self.quiesce();
        ino_to_fh(ino)
    }

    /// Creates a file whose blocks are *allocated but never written*: its
    /// contents are the storage server's deterministic synthetic blocks.
    /// Setup cost is O(metadata), so multi-gigabyte all-miss files are
    /// cheap. Use [`Self::expected_sparse`] for integrity checks.
    pub fn create_sparse_file(&mut self, name: &str, size: u64) -> u64 {
        let fs = self.server.fs_mut();
        let ino = fs
            .create(Filesystem::<IscsiInitiator>::ROOT, name)
            .expect("fresh name");
        fs.allocate(ino, size).expect("volume has space");
        self.quiesce();
        ino_to_fh(ino)
    }

    /// The deterministic content [`Self::create_file`] writes at
    /// `[offset, offset+len)` of the file with handle `fh`. Each 4 KiB
    /// block's stream is seeded independently, so the function is
    /// self-consistent at any offset: the generator always replays from
    /// the containing block's start.
    pub fn pattern(fh: u64, offset: u64, len: usize) -> Vec<u8> {
        let block_start = offset - offset % 4096;
        let skip = (offset - block_start) as usize;
        let mut v = Vec::with_capacity(skip + len);
        let mut x = 0u64;
        let mut at = block_start;
        while v.len() < skip + len {
            if at.is_multiple_of(4096) {
                x = fh
                    .wrapping_mul(0x100_0000_01b3)
                    .wrapping_add(at / 4096)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    | 1;
            }
            v.push((x >> ((at % 8) * 8)) as u8);
            if at % 8 == 7 {
                x = x.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(1);
            }
            at += 1;
        }
        v.split_off(skip)
    }

    /// The expected contents of a sparse file's range (the synthetic
    /// blocks at its mapped LBNs).
    pub fn expected_sparse(&mut self, fh: u64, offset: u64, len: usize) -> Vec<u8> {
        assert_eq!(offset % 4096, 0, "block-aligned expectations only");
        let fs = self.server.fs_mut();
        let mut out = Vec::with_capacity(len);
        let mut blk = offset / 4096;
        while out.len() < len {
            let lbn = fs
                .block_lbn(fh_to_ino(fh), blk)
                .expect("file exists")
                .expect("allocated");
            let block = synthetic_block(lbn);
            let take = (len - out.len()).min(4096);
            out.extend_from_slice(&block[..take]);
            blk += 1;
        }
        out
    }

    /// Issues a READ through the full request path and returns the payload
    /// the client received.
    pub fn read(&mut self, fh: u64, offset: u32, count: u32) -> Vec<u8> {
        let (hdr, data) = self.read_with_header(fh, offset, count);
        assert_eq!(hdr.status, NFS_OK, "read failed");
        data
    }

    /// As [`Self::read`], returning the reply header too.
    pub fn read_with_header(
        &mut self,
        fh: u64,
        offset: u32,
        count: u32,
    ) -> (ReadReplyHeader, Vec<u8>) {
        if self.fault_plan.is_some() {
            return self
                .try_read(fh, offset, count)
                .expect("read exhausted its retransmission budget");
        }
        let req = self.client.read_request(fh, offset, count);
        let delivered = servers::stack::deliver(&req, &self.ledgers.app);
        let reply = self.server.handle_message(delivered);
        self.client.parse_read_reply(&reply)
    }

    /// Fault-aware READ: completes through retransmission, or fails
    /// cleanly (`None`) once the retry budget is spent.
    pub fn try_read(
        &mut self,
        fh: u64,
        offset: u32,
        count: u32,
    ) -> Option<(ReadReplyHeader, Vec<u8>)> {
        let req = self.client.read_request(fh, offset, count);
        self.exchange(req, |c, r| {
            c.try_parse_read_reply(r).map(|(xid, h, d)| (xid, (h, d)))
        })
    }

    /// Issues a WRITE through the full request path.
    pub fn write(&mut self, fh: u64, offset: u32, data: &[u8]) -> WriteReply {
        if self.fault_plan.is_some() {
            return self
                .try_write(fh, offset, data)
                .expect("write exhausted its retransmission budget");
        }
        let req = self.client.write_request(fh, offset, data);
        let delivered = servers::stack::deliver(&req, &self.ledgers.app);
        let reply = self.server.handle_message(delivered);
        self.client.parse_write_reply(&reply)
    }

    /// Fault-aware WRITE: retransmissions of an executed write are served
    /// from the server's duplicate-request cache, never re-executed.
    pub fn try_write(&mut self, fh: u64, offset: u32, data: &[u8]) -> Option<WriteReply> {
        let req = self.client.write_request(fh, offset, data);
        self.exchange(req, |c, r| c.try_parse_write_reply(r))
    }

    /// Issues a GETATTR.
    pub fn getattr(&mut self, fh: u64) -> u32 {
        if self.fault_plan.is_some() {
            let req = self.client.getattr_request(fh);
            return self
                .exchange(req, |c, r| {
                    c.try_parse_getattr_reply(r).map(|(xid, s, a)| (xid, (s, a)))
                })
                .expect("getattr exhausted its retransmission budget")
                .0;
        }
        let req = self.client.getattr_request(fh);
        let delivered = servers::stack::deliver(&req, &self.ledgers.app);
        let reply = self.server.handle_message(delivered);
        self.client.parse_getattr_reply(&reply).0
    }

    /// One RPC exchange over the faulty (or clean) client⇄server link.
    /// See [`faulted_exchange`] for the recovery semantics.
    fn exchange<T>(
        &mut self,
        req: NetBuf,
        parse: impl Fn(&NfsClient, &NetBuf) -> Option<(u32, T)>,
    ) -> Option<T> {
        let Some(plan) = self.fault_plan.clone() else {
            let delivered = servers::stack::deliver(&req, &self.ledgers.app);
            let reply = self.server.handle_message(delivered);
            return parse(&self.client, &reply).map(|(_, v)| v);
        };
        self.maybe_poison();
        let mut chan = FaultChannel {
            plan,
            counters: self.fault_counters,
            replay_slot: self.replay_slot.take(),
        };
        let out = faulted_exchange(
            &mut self.server,
            &self.client,
            &self.ledgers.app,
            &self.ledgers.client,
            &self.recorder,
            &mut chan,
            req,
            parse,
        );
        self.fault_counters = chan.counters;
        self.replay_slot = chan.replay_slot;
        out
    }

    /// Occasionally corrupts a clean NCache chunk's stored checksum, at
    /// the spec's corruption rate, so placeholder revalidation exercises
    /// the invalidate-and-refetch degradation path.
    fn maybe_poison(&mut self) {
        let Some(module) = &self.module else { return };
        if self.fault_spec.corrupt > 0.0 && self.poison_rng.next_bool(self.fault_spec.corrupt) {
            let pick = self.poison_rng.next_u64() as usize;
            module.borrow_mut().poison_clean_chunk(pick);
        }
    }

    /// Issues a LOOKUP in the export root.
    pub fn lookup(&mut self, name: &str) -> Option<u64> {
        let root = self.server.root_fh();
        let req = self.client.lookup_request(root, name);
        let delivered = servers::stack::deliver(&req, &self.ledgers.app);
        let reply = self.server.handle_message(delivered);
        let parsed = self.client.parse_lookup_reply(&reply);
        (parsed.status == NFS_OK).then_some(parsed.fh)
    }

    /// Low-level access for the timing layer: handles a prepared request
    /// message and returns the raw reply.
    pub fn handle_raw(&mut self, req: NetBuf) -> NetBuf {
        let delivered = servers::stack::deliver(&req, &self.ledgers.app);
        self.server.handle_message(delivered)
    }

    /// The client-side request builder.
    pub fn client_mut(&mut self) -> &mut NfsClient {
        &mut self.client
    }

    /// Swaps the rig's client with `client`. The multi-session engine keeps
    /// one [`NfsClient`] per session (each on a disjoint xid base, so the
    /// server's duplicate-request cache never aliases requests from
    /// different sessions) and installs the active session's client around
    /// each operation.
    pub fn swap_client(&mut self, client: &mut NfsClient) {
        std::mem::swap(&mut self.client, client);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_read_original() {
        let mut rig = NfsRig::new(ServerMode::Original, NfsRigParams::default());
        let fh = rig.create_file("f", 64 << 10);
        let data = rig.read(fh, 8192, 16 << 10);
        assert_eq!(data, NfsRig::pattern(fh, 8192, 16 << 10));
    }

    #[test]
    fn end_to_end_read_ncache_substitutes_real_data() {
        let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
        let fh = rig.create_file("f", 64 << 10);
        let data = rig.read(fh, 0, 32 << 10);
        assert_eq!(
            data,
            NfsRig::pattern(fh, 0, 32 << 10),
            "the client must see real bytes, not placeholder junk"
        );
        let module = rig.module().expect("ncache build");
        assert!(module.borrow().substitution_totals().substituted > 0);
        assert_eq!(module.borrow().substitution_totals().missing, 0);
    }

    #[test]
    fn baseline_returns_junk_by_design() {
        let mut rig = NfsRig::new(ServerMode::Baseline, NfsRigParams::default());
        let fh = rig.create_file("f", 16 << 10);
        let data = rig.read(fh, 0, 4096);
        assert_eq!(data.len(), 4096);
        assert_ne!(
            data,
            NfsRig::pattern(fh, 0, 4096),
            "the baseline build sends placeholder bits (§5.1)"
        );
    }

    #[test]
    fn sparse_files_read_synthetic_content() {
        let mut rig = NfsRig::new(ServerMode::Original, NfsRigParams::default());
        let fh = rig.create_sparse_file("big", 1 << 20);
        let expect = rig.expected_sparse(fh, 64 << 10, 8 << 10);
        let data = rig.read(fh, 64 << 10, 8 << 10);
        assert_eq!(data, expect);
        // Setup wrote no data blocks to the target.
        assert!(rig.target().borrow().written_blocks() < 1000, "metadata only");
    }

    #[test]
    fn write_then_read_back_all_modes_freshness() {
        for mode in [ServerMode::Original, ServerMode::NCache] {
            let mut rig = NfsRig::new(mode, NfsRigParams::default());
            let fh = rig.create_file("f", 32 << 10);
            let new_data = vec![0xC3u8; 8 << 10];
            let reply = rig.write(fh, 8192, &new_data);
            assert_eq!(reply.status, NFS_OK, "{mode}");
            let read_back = rig.read(fh, 8192, 8 << 10);
            assert_eq!(read_back, new_data, "{mode}: freshest data wins");
            // Around the write, old content is intact.
            assert_eq!(rig.read(fh, 0, 8192), NfsRig::pattern(fh, 0, 8192), "{mode}");
        }
    }

    #[test]
    fn lookup_and_getattr() {
        let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
        let fh = rig.create_file("hello.dat", 4096);
        assert_eq!(rig.lookup("hello.dat"), Some(fh));
        assert_eq!(rig.lookup("absent"), None);
        assert_eq!(rig.getattr(fh), NFS_OK);
    }

    #[test]
    fn faulted_rig_with_zero_spec_never_recovers() {
        let mut rig = NfsRig::new_faulted(
            ServerMode::NCache,
            NfsRigParams::default(),
            &FaultSpec::default(),
            42,
        );
        assert!(rig.faults_armed());
        let fh = rig.create_file("f", 32 << 10);
        let (hdr, data) = rig.try_read(fh, 0, 16 << 10).expect("clean link");
        assert_eq!(hdr.status, NFS_OK);
        assert_eq!(data, NfsRig::pattern(fh, 0, 16 << 10));
        assert_eq!(rig.fault_counters(), FaultCounters::default());
        assert_eq!(rig.server_mut().fs_mut().store_mut().stats().retries, 0);
        assert_eq!(rig.server_mut().stats().drc_hits, 0);
    }

    #[test]
    fn faulted_rig_recovers_under_every_fault_kind() {
        for mode in [ServerMode::Original, ServerMode::NCache, ServerMode::Baseline] {
            let spec = FaultSpec {
                loss: 0.10,
                duplicate: 0.05,
                reorder: 0.05,
                delay: 0.05,
                truncate: 0.05,
                corrupt: 0.03,
                io: 0.05,
            };
            let mut rig = NfsRig::new_faulted(mode, NfsRigParams::default(), &spec, 1234);
            let fh = rig.create_file("f", 64 << 10);
            let mut completed = 0;
            for i in 0..24u32 {
                let off = (i % 16) * 4096;
                if let Some((hdr, data)) = rig.try_read(fh, off, 4096) {
                    assert_eq!(hdr.status, NFS_OK, "{mode}");
                    if mode != ServerMode::Baseline {
                        assert_eq!(
                            data,
                            NfsRig::pattern(fh, u64::from(off), 4096),
                            "{mode}: completed reads return correct bytes"
                        );
                    }
                    completed += 1;
                }
            }
            assert!(completed > 0, "{mode}: some reads complete");
            let fc = rig.fault_counters();
            assert!(
                fc.retransmits > 0,
                "{mode}: this schedule forces retransmission"
            );
        }
    }

    #[test]
    fn duplicated_writes_are_served_from_the_drc() {
        let spec = FaultSpec {
            duplicate: 0.6,
            ..FaultSpec::default()
        };
        let mut rig =
            NfsRig::new_faulted(ServerMode::Original, NfsRigParams::default(), &spec, 9);
        let fh = rig.create_file("f", 64 << 10);
        for i in 0..12u32 {
            let data = vec![i as u8; 4096];
            let reply = rig.try_write(fh, i * 4096, &data).expect("completes");
            assert_eq!(reply.status, NFS_OK);
            let (_, got) = rig.try_read(fh, i * 4096, 4096).expect("completes");
            assert_eq!(got, data, "acknowledged write visible");
        }
        assert!(rig.fault_counters().duplicates > 0, "schedule duplicated");
        assert!(
            rig.server_mut().stats().drc_hits > 0,
            "duplicate WRITEs replied from cache, not re-executed"
        );
    }

    #[test]
    fn delayed_write_replies_hit_the_drc_not_the_disk_twice() {
        let spec = FaultSpec {
            delay: 0.5,
            ..FaultSpec::default()
        };
        let mut rig =
            NfsRig::new_faulted(ServerMode::NCache, NfsRigParams::default(), &spec, 77);
        let fh = rig.create_file("f", 32 << 10);
        for i in 0..8u32 {
            let data = vec![0x40 | i as u8; 4096];
            let reply = rig.try_write(fh, i * 4096, &data).expect("completes");
            assert_eq!(reply.status, NFS_OK);
            let (_, got) = rig.try_read(fh, i * 4096, 4096).expect("completes");
            assert_eq!(got, data);
        }
        let fc = rig.fault_counters();
        assert!(fc.timeouts > 0, "delays fired");
        assert!(
            rig.server_mut().stats().drc_hits > 0,
            "retransmitted WRITEs served from the DRC"
        );
    }

    #[test]
    fn poisoned_ncache_chunks_invalidate_and_reads_stay_correct() {
        let spec = FaultSpec {
            corrupt: 0.9,
            ..FaultSpec::default()
        };
        let mut rig =
            NfsRig::new_faulted(ServerMode::NCache, NfsRigParams::default(), &spec, 5);
        let fh = rig.create_file("f", 64 << 10);
        let mut completed = 0;
        for pass in 0..3 {
            let _ = pass;
            for i in 0..16u32 {
                // At corrupt=0.9 the link itself may exhaust the retry
                // budget; a clean failure is acceptable, junk is not.
                let Some((hdr, data)) = rig.try_read(fh, i * 4096, 4096) else {
                    continue;
                };
                assert_eq!(hdr.status, NFS_OK);
                assert_eq!(
                    data,
                    NfsRig::pattern(fh, u64::from(i) * 4096, 4096),
                    "never junk, even when entries are poisoned"
                );
                completed += 1;
            }
        }
        assert!(completed > 0, "some reads complete");
        let module = rig.module().expect("ncache build");
        let inval = module.borrow().invalidations();
        assert!(inval > 0, "poisoned entries were detected and dropped");
    }

    #[test]
    fn same_seed_and_spec_replay_identically() {
        let spec = FaultSpec {
            loss: 0.15,
            duplicate: 0.05,
            delay: 0.05,
            io: 0.05,
            ..FaultSpec::default()
        };
        let run = |seed: u64| {
            let mut rig =
                NfsRig::new_faulted(ServerMode::NCache, NfsRigParams::default(), &spec, seed);
            let fh = rig.create_file("f", 32 << 10);
            let mut out = Vec::new();
            for i in 0..10u32 {
                out.push(rig.try_read(fh, (i % 8) * 4096, 4096).map(|(_, d)| d));
            }
            (out, rig.fault_counters())
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3).1, run(4).1, "different seeds, different schedules");
    }

    #[test]
    fn rig_moves_across_threads() {
        // Regression: every layer of the rig (slab pool, shard set,
        // shared target/module handles, ledgers) must stay `Send` so the
        // lane-parallel engine can drive one rig from worker threads —
        // and `Sync`, because the engine shares the rig across lanes as
        // `&LaneLock<NfsRig>` and the read fast path serves concurrent
        // READs under the read guard.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NfsRig>();
        assert_send_sync::<sim::LaneLock<NfsRig>>();
        let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
        let fh = rig.create_file("x", 16 << 10);
        let data = std::thread::spawn(move || rig.read(fh, 0, 8 << 10))
            .join()
            .expect("worker");
        assert_eq!(data, NfsRig::pattern(fh, 0, 8 << 10));
    }

    #[test]
    fn fault_counters_absorb_adds_fieldwise() {
        let mut a = FaultCounters {
            retransmits: 1,
            timeouts: 2,
            ..FaultCounters::default()
        };
        a.absorb(&FaultCounters {
            retransmits: 3,
            request_drops: 4,
            failed_requests: 5,
            ..FaultCounters::default()
        });
        assert_eq!(a.retransmits, 4);
        assert_eq!(a.timeouts, 2);
        assert_eq!(a.request_drops, 4);
        assert_eq!(a.failed_requests, 5);
    }

    #[test]
    fn pattern_is_deterministic_and_offset_consistent() {
        // Reading [0, 8192) must equal reading [0,4096) ++ [4096, 8192).
        let whole = NfsRig::pattern(7, 0, 8192);
        let a = NfsRig::pattern(7, 0, 4096);
        let b = NfsRig::pattern(7, 4096, 4096);
        assert_eq!(&whole[..4096], &a[..]);
        assert_eq!(&whole[4096..], &b[..]);
        assert_ne!(a, b);
        assert_ne!(NfsRig::pattern(7, 0, 64), NfsRig::pattern(8, 0, 64));
        // Self-consistency at arbitrary (unaligned) offsets.
        let w = NfsRig::pattern(7, 0, 8192);
        assert_eq!(&w[100..1100], &NfsRig::pattern(7, 100, 1000)[..]);
        assert_eq!(&w[4095..4097], &NfsRig::pattern(7, 4095, 2)[..]);
        assert_eq!(&w[7..8], &NfsRig::pattern(7, 7, 1)[..]);
    }
}

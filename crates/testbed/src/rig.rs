//! The pass-through rig, written once: client ⇄ application server ⇄
//! iSCSI target, fully wired, with per-node copy ledgers.
//!
//! The paper's claim is that NCache is application-independent (§1-§2,
//! Table 1); so is everything the testbed puts around a server. [`Rig`] is
//! generic over the application — the server type behind the small [`App`]
//! trait — and owns the wiring, the fault plan, the sessions (a client and
//! its link) and the one faulted exchange loop, the one op body, the
//! control and adaptive planes, the recorder, the metrics report and the
//! [`RigDriver`] the timing engines drive. What is NFS about the NFS rig
//! (files, READ/WRITE/GETATTR, the xid accept test and base) is in
//! [`crate::nfs_rig`]; what is HTTP about the web rig (pages, GET, the
//! status accept test) is in [`crate::khttpd_rig`].

use ncache::{NcacheConfig, NcacheModule};
use netbuf::{CopyLedger, NetBuf};
use servers::initiator::{IoRecord, IscsiInitiator};
use servers::{IscsiTarget, ServerHost, ServerMode};
use sim::costs::CostModel;
use sim::{FaultKind, FaultLink, FaultPlan, FaultSpec, SplitMix64};
use simfs::{Filesystem, FsParams, Ino};

use crate::executor::derive_seed;
use crate::runner::{DriverOp, RigDriver, FRAME_OVERHEAD};
use crate::timing::{Observation, OpMeter, Transport};

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

/// What a rig is assembled from, whichever application's parameter struct
/// spelled it (the two differ only in their defaults).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Geometry {
    /// The exported volume and its buffer cache.
    pub fs: FsParams,
    /// NCache pinned capacity in bytes (NCache build only).
    pub ncache_bytes: u64,
    /// NCache shard count (NCache build only).
    pub shards: usize,
}

/// The application a [`Rig`] is assembled around: a server over the shared
/// [`ServerHost`]. Only what differs between the NFS daemon and kHTTPd is
/// here — the two ends of the codec and the cost model's two constants.
pub trait App: std::ops::DerefMut<Target = ServerHost> {
    /// The parameters this application's rig is provisioned from.
    type Params: Into<Geometry>;
    /// The measurement client speaking this application's protocol.
    type Client;
    /// Client-leg transport.
    const TRANSPORT: Transport;

    /// The application's daemon over `host`.
    fn build(host: ServerHost) -> Self;

    /// A client charging `ledger`: the rig's own (`session` is `None`) or
    /// session `sid`'s (`Rig::session`).
    fn client(ledger: &CopyLedger, session: Option<usize>) -> Self::Client;

    /// Turns `op` into a request message. Also returns the payload bytes
    /// the request itself carries (a WRITE's), zero when the payload rides
    /// the reply.
    ///
    /// # Panics
    ///
    /// Panics on an operation of the other application.
    fn request(client: &mut Self::Client, op: &DriverOp) -> (NetBuf, u64);

    /// The accept test of a timed op's reply on a faulty link
    /// (`faulted_exchange_with`): for a reply that answers `request` —
    /// built for `op` — the payload bytes it accounts for; `None` for
    /// damage.
    fn accept<'a>(
        client: &'a Self::Client,
        op: &'a DriverOp,
        request: &NetBuf,
    ) -> impl Fn(&NetBuf) -> Option<u64> + 'a;

    /// Serves one delivered request and returns the reply, already passed
    /// through the driver-level hook, with the packets that hook
    /// substituted.
    fn serve(&mut self, delivered: NetBuf) -> (NetBuf, u64);

    /// The server's own counters (the first section of
    /// [`Rig::metrics_report`], labelled by their source).
    fn stats_snapshot(&self) -> Box<dyn obs::StatsSnapshot>;

    /// Fixed per-request CPU cost for this server type.
    fn per_request_ns(costs: &CostModel) -> u64;
}

/// Retransmission budget per request before the rig reports a clean
/// failure. The fault plan forces a clean delivery after three consecutive
/// faults per link, so at any bounded fault rate requests converge well
/// inside this budget; the cap turns pathological schedules into clean
/// errors instead of livelock.
pub const MAX_RPC_ATTEMPTS: u32 = 8;

/// Client-side recovery counters for the faulted exchange loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Requests re-sent after a lost or damaged exchange.
    pub retransmits: u64,
    /// Request datagrams the link dropped.
    pub request_drops: u64,
    /// Reply datagrams the link dropped.
    pub reply_drops: u64,
    /// Request datagrams the link duplicated (the server saw both).
    pub duplicates: u64,
    /// Exchanges where a stale request was resequenced in front.
    pub reorders: u64,
    /// Exchanges whose reply missed the client's timer.
    pub timeouts: u64,
    /// In-flight damage the transport checksum stand-in discarded.
    pub checksum_discards: u64,
    /// Replies that arrived but failed the application's accept test
    /// (damage the checksum missed, a stale xid, a mangled status).
    pub damaged_replies: u64,
    /// Requests that exhausted [`MAX_RPC_ATTEMPTS`] and failed cleanly.
    pub failed_requests: u64,
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

/// Seed-derivation salt of session `sid`'s link plan (salt + `sid`).
/// Disjoint from the rig's own salts (`0..=2`, [`Rig::new_faulted`]), so a
/// session's plan never replays the store, target or poison streams.
const SESSION_FAULT_SALT: u64 = 0x1000;
/// Seed-derivation salt of session `sid`'s poison stream.
const SESSION_POISON_SALT: u64 = 0x2000;

/// The client side of one client⇄server link: the link's seeded fault plan
/// (`None` is a clean link), the slot holding the previously completed
/// request (replayed in front by reorder faults) and the poison stream.
#[derive(Debug)]
struct FaultChannel {
    spec: FaultSpec,
    plan: Option<sim::Shared<FaultPlan>>,
    replay_slot: Option<NetBuf>,
    poison: SplitMix64,
}

impl FaultChannel {
    /// A channel over a clean link.
    fn clean() -> Self {
        FaultChannel {
            spec: FaultSpec::default(),
            plan: None,
            replay_slot: None,
            poison: SplitMix64::new(0),
        }
    }

    /// A channel over a link that draws `spec`'s faults from `plan`.
    fn armed(spec: &FaultSpec, plan: sim::Shared<FaultPlan>, poison_seed: u64) -> Self {
        FaultChannel {
            spec: *spec,
            plan: Some(plan),
            poison: SplitMix64::new(poison_seed),
            ..FaultChannel::clean()
        }
    }

    /// Ahead of a faulted exchange: occasionally corrupts a clean NCache
    /// chunk's stored checksum, at the spec's corruption rate, so
    /// placeholder revalidation exercises the invalidate-and-refetch
    /// degradation path.
    fn maybe_poison(&mut self, module: Option<&sim::Shared<NcacheModule>>) {
        let Some(module) = module else { return };
        if self.spec.corrupt > 0.0 && self.poison.next_bool(self.spec.corrupt) {
            let pick = self.poison.next_u64() as usize;
            module.borrow_mut().poison_clean_chunk(pick);
        }
    }
}

/// One client of a rig and the link it speaks over: what both timing
/// engines keep per session ([`Rig::session`]). The rig serves with its
/// own; the sequential engine swaps a session's in around each of its ops,
/// and the lane-parallel engine hands its lane's to [`Rig::serve_op`].
#[derive(Debug)]
pub(crate) struct Session<C> {
    pub(crate) client: C,
    link: FaultChannel,
}

impl<C> Session<C> {
    /// Whether the session's link has a fault plan.
    pub(crate) fn is_armed(&self) -> bool {
        self.link.plan.is_some()
    }
}

/// One request/reply exchange over a faulty client⇄server link — the only
/// such loop in the testbed, whichever application speaks over it.
/// Request-direction faults: drops retransmit; in-flight damage is
/// discarded by the transport checksum stand-in before it reaches the
/// server; delays execute but miss the client's timer; duplicates are
/// handled twice (NFS's duplicate-request cache absorbs the second copy,
/// a GET is idempotent); reorders resequence the previously completed
/// request in front. Reply-direction faults mirror: drops, damage, and
/// delays all trigger retransmission, and what does arrive must pass
/// `accept` — the application's own test (NFS: the reply parses and
/// carries the call's xid; HTTP: the response parses and its status is in
/// the server's vocabulary) — or it counts as a damaged reply.
///
/// Every delivered request — including late, duplicated, and stale ones —
/// is served, and the server finishes every reply it emits through its own
/// transmit hook; the second value returned is the packets those hooks
/// substituted. Recovery actions count into `counters`.
///
/// The channel's plan is borrowed only around each `deliver_faulty` call:
/// the server's storage path may share the same plan handle for I/O
/// faults, and holding the guard across a serve would deadlock.
///
/// # Panics
///
/// Panics on a channel that is not armed.
fn faulted_exchange_with<A: App, T>(
    server: &mut A,
    ledgers: &NodeLedgers,
    counters: &mut FaultCounters,
    chan: &mut FaultChannel,
    req: NetBuf,
    accept: impl Fn(&NetBuf) -> Option<T>,
) -> (Option<T>, u64) {
    chan.maybe_poison(server.module());
    let rec = server.recorder().clone();
    let mut substituted = 0;
    let mut step = |d: NetBuf| {
        let (reply, n) = server.serve(d);
        substituted += n;
        reply
    };
    let plan = chan.plan.clone().expect("a faulted exchange needs an armed channel");
    let mut span = None;
    for attempt in 0..MAX_RPC_ATTEMPTS {
        if attempt > 0 {
            // A recovery episode is under way; trace it as one span.
            span.get_or_insert_with(|| rec.begin_span("fault", "retransmit", 0));
            counters.retransmits += 1;
            rec.add_counter("fault.retransmits", 1);
        }
        let (delivered, kind) = {
            let mut p = plan.borrow_mut();
            servers::stack::deliver_faulty(&req, &ledgers.app, &mut p, FaultLink::ClientServer)
        };
        let reply = match (delivered, kind) {
            (None, _) => {
                counters.request_drops += 1;
                rec.add_counter("fault.request_drops", 1);
                continue;
            }
            (Some(_), Some(FaultKind::Corrupt { .. } | FaultKind::Truncate { .. })) => {
                // The datagram checksum catches in-flight damage; the
                // request never reaches the server.
                counters.checksum_discards += 1;
                rec.add_counter("fault.checksum_discards", 1);
                continue;
            }
            (Some(d), Some(FaultKind::Delay)) => {
                // Executed server-side, but the reply misses the client's
                // timer; the retransmission must not re-execute.
                let _late = step(d);
                counters.timeouts += 1;
                rec.add_counter("fault.timeouts", 1);
                continue;
            }
            (Some(d), Some(FaultKind::Duplicate)) => {
                counters.duplicates += 1;
                rec.add_counter("fault.duplicates", 1);
                let reply = step(d);
                let dup = servers::stack::deliver(&req, &ledgers.app);
                let _discarded = step(dup);
                reply
            }
            (Some(d), Some(FaultKind::Reorder)) => {
                counters.reorders += 1;
                rec.add_counter("fault.reorders", 1);
                if let Some(prev) = chan.replay_slot.take() {
                    // A stale retransmission of the previous request
                    // arrives first; its reply is discarded.
                    let old = servers::stack::deliver(&prev, &ledgers.app);
                    let _stale = step(old);
                    chan.replay_slot = Some(prev);
                }
                step(d)
            }
            (Some(d), _) => step(d),
        };
        let (rx, rkind) = {
            let mut p = plan.borrow_mut();
            servers::stack::deliver_faulty(&reply, &ledgers.client, &mut p, FaultLink::ClientServer)
        };
        let Some(rx) = rx else {
            counters.reply_drops += 1;
            rec.add_counter("fault.reply_drops", 1);
            continue;
        };
        if matches!(rkind, Some(FaultKind::Delay)) {
            // The client's timer already fired; the late reply is dropped
            // on the floor and the retransmission hits the DRC.
            counters.timeouts += 1;
            rec.add_counter("fault.timeouts", 1);
            continue;
        }
        if matches!(rkind, Some(FaultKind::Corrupt { .. })) {
            // A flipped bit anywhere in the datagram fails the transport
            // checksum; the client never sees the damaged reply. The bit
            // flip could land in the status or payload bytes, where the
            // accept test alone would miss it.
            counters.checksum_discards += 1;
            rec.add_counter("fault.checksum_discards", 1);
            continue;
        }
        let Some(accepted) = accept(&rx) else {
            counters.damaged_replies += 1;
            rec.add_counter("fault.damaged_replies", 1);
            continue;
        };
        if let Some(s) = span.take() {
            rec.end_span(s);
        }
        chan.replay_slot = Some(req);
        return (Some(accepted), substituted);
    }
    if let Some(s) = span.take() {
        rec.end_span(s);
    }
    counters.failed_requests += 1;
    rec.add_counter("fault.failed_requests", 1);
    (None, substituted)
}

/// The assembled rig around application `A`.
#[derive(Debug)]
pub struct Rig<A: App> {
    pub(crate) server: A,
    /// The session the rig serves with: its own client and link, unless an
    /// engine has swapped a session's in ([`Rig::swap_session`]).
    pub(crate) session: Session<A::Client>,
    target: sim::Shared<IscsiTarget>,
    pub(crate) ledgers: NodeLedgers,
    /// The construction-time FS buffer-cache quota ([`Rig::quiesce`]).
    fs_cache_blocks: usize,
    /// The fault spec and seed the rig was armed with (`None`: clean).
    armed: Option<(FaultSpec, u64)>,
    /// Every session's recovery actions, summed.
    counters: FaultCounters,
    adaptive: Option<ncache::SplitController>,
    /// The storage I/O of the request being metered: emptied after each
    /// request, never shrunk, so metering one allocates no list.
    io: Vec<IoRecord>,
}

impl<A: App> Rig<A> {
    /// Builds the full rig for `mode`: storage server, (optionally) the
    /// NCache module, the initiator, a freshly formatted file system, the
    /// application server and a client.
    ///
    /// # Panics
    ///
    /// Panics if the volume is too small to format — a configuration bug.
    pub fn new(mode: ServerMode, params: A::Params) -> Self {
        let Geometry { fs, ncache_bytes, shards } = params.into();
        Self::assemble(mode, fs, NcacheConfig::with_capacity(ncache_bytes).with_shards(shards))
    }

    /// [`Rig::new`] over the volume `fs_params`, with the NCache build's
    /// module configured as `ncache` — the ablations' variant mechanisms.
    /// The server takes its cache handle from the module it is built
    /// with, so a module is never swapped under a built rig.
    pub(crate) fn assemble(mode: ServerMode, fs_params: FsParams, ncache: NcacheConfig) -> Self {
        let ledgers = NodeLedgers::default();
        let target = sim::Shared::new(IscsiTarget::new(fs_params.total_blocks, &ledgers.storage));
        let module = (mode == ServerMode::NCache)
            .then(|| sim::Shared::new(NcacheModule::new(ncache, &ledgers.app)));
        let initiator = IscsiInitiator::new(target.clone(), &ledgers.app, mode, module.clone());
        let fs = Filesystem::mkfs(initiator, fs_params, &ledgers.app)
            .expect("volume large enough to format");
        Rig {
            server: A::build(ServerHost::new(mode, fs, module, &ledgers.app)),
            session: Session {
                client: A::client(&ledgers.client, None),
                link: FaultChannel::clean(),
            },
            target,
            ledgers,
            fs_cache_blocks: fs_params.cache_blocks,
            armed: None,
            counters: FaultCounters::default(),
            adaptive: None,
            io: Vec::new(),
        }
    }

    /// Builds the rig and arms the whole stack with a seeded fault plan:
    /// the client⇄server link (this rig's exchange loop, and every
    /// `Rig::session`'s), the initiator⇄target link (inside the
    /// initiator), transient I/O errors at the target, and
    /// checksum-verified placeholder revalidation at the server.
    pub fn new_faulted(mode: ServerMode, params: A::Params, spec: &FaultSpec, seed: u64) -> Self {
        let mut rig = Self::new(mode, params);
        let plan = sim::Shared::new(FaultPlan::new(spec, seed));
        rig.server.fs_mut().store_mut().set_fault_plan(plan.clone());
        rig.target
            .borrow_mut()
            .set_transient_faults(blockdev::TransientFaults::new(
                derive_seed(seed, 1),
                spec.io_ppm(),
            ));
        rig.server.set_fault_recovery(true);
        rig.session.link = FaultChannel::armed(spec, plan, derive_seed(seed, 2));
        rig.armed = Some((*spec, seed));
        rig
    }

    /// Whether this rig runs with an armed fault plan.
    pub fn faults_armed(&self) -> bool {
        self.armed.is_some()
    }

    /// Session `sid` of a timing engine: a client on xid base `(sid + 1)
    /// << 20` under NFS ([`App::client`]), so a million xids per session
    /// never collide in the server's duplicate-request cache, over a link
    /// of its own. On an armed rig that link draws the rig's spec from a
    /// plan and a poison stream derived from the rig's seed and `sid`, so a
    /// session's fault schedule is the same whichever engine runs it and
    /// however sessions interleave; on an unarmed one it is clean.
    pub(crate) fn session(&self, sid: usize) -> Session<A::Client> {
        let link = self.armed.map_or_else(FaultChannel::clean, |(spec, seed)| {
            let seed = |salt: u64| derive_seed(seed, salt + sid as u64);
            let plan = sim::Shared::new(FaultPlan::new(&spec, seed(SESSION_FAULT_SALT)));
            FaultChannel::armed(&spec, plan, seed(SESSION_POISON_SALT))
        });
        Session {
            client: A::client(&self.ledgers.client, Some(sid)),
            link,
        }
    }

    /// Swaps the session the rig serves with for `session` (the sequential
    /// engine's per-session hook, on the way in and on the way out).
    pub(crate) fn swap_session(&mut self, session: &mut Session<A::Client>) {
        std::mem::swap(&mut self.session, session);
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
    /// seeded with the caches' *current* capacities. With `dynamic: false`
    /// the controller is frozen —
    /// ghosts observe but quotas never move and nothing is emitted, so
    /// the installation is byte-for-byte unobservable.
    pub fn enable_adaptive(&mut self, cfg: ncache::SplitConfig) {
        let fs = self.server.fs_mut();
        fs.enable_cache_ghost(cfg.ghost_blocks);
        let fs_blocks = fs.cache_capacity() as u64;
        let ncache_bytes = match self.server.module() {
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
    pub fn adaptive_controller(&self) -> Option<&ncache::SplitController> { // test-api: the adaptive oracle reads the controller
        self.adaptive.as_ref()
    }

    /// The client-side recovery counters, summed over every session (all
    /// zero without faults).
    pub fn fault_counters(&self) -> FaultCounters {
        self.counters
    }

    /// Attaches a recorder to the whole rig: the server span layer, the
    /// data plane below it, and every node's copy ledger.
    pub fn set_recorder(&mut self, rec: obs::Recorder) {
        self.ledgers.client.attach_recorder(&rec);
        self.ledgers.app.attach_recorder(&rec);
        self.ledgers.storage.attach_recorder(&rec);
        self.server.set_recorder(rec);
    }

    /// The rig's recorder (disabled unless [`Self::set_recorder`] ran).
    pub fn recorder(&self) -> &obs::Recorder {
        self.server.recorder()
    }

    /// Snapshots every stats struct in the rig into one unified report.
    pub fn metrics_report(&mut self) -> obs::MetricsReport {
        let mut report = obs::MetricsReport::new();
        let server = self.server.stats_snapshot();
        report.add_snapshot(server.source(), &*server);
        report.add_snapshot("fs-cache", &self.server.fs_mut().cache_stats());
        report.add_snapshot("initiator", &self.server.fs_mut().store_mut().stats());
        report.add_snapshot("target", &self.target.borrow().stats());
        if let Some(module) = self.server.module() {
            report.add_snapshot("ncache", &module.borrow().stats());
        }
        report.add_snapshot("ledger.client", &self.ledgers.client.snapshot());
        report.add_snapshot("ledger.app", &self.ledgers.app.snapshot());
        report.add_snapshot("ledger.storage", &self.ledgers.storage.snapshot());
        if self.faults_armed() {
            report.add_snapshot("fault-client", &self.counters);
        }
        if let Some(control) = self.server.control_stats() {
            report.add_snapshot("control", &control);
        }
        if let Some(c) = self.adaptive.as_ref().filter(|c| c.is_dynamic()) {
            report.add_snapshot("adaptive", &c.split_stats());
        }
        report
    }

    /// Provisions `name` in the export root and returns its inode: filled
    /// with [`Self::pattern`] content keyed by the inode number, or —
    /// `sparse` — allocated but never written. Setup path: it goes through
    /// the server's file system directly, then [`Self::quiesce`]s, so
    /// measurement starts from a quiescent volume.
    pub(crate) fn provision(&mut self, name: &str, size: u64, sparse: bool) -> Ino {
        let fs = self.server.fs_mut();
        let ino = fs
            .create(Filesystem::<IscsiInitiator>::ROOT, name)
            .expect("fresh name");
        if sparse {
            fs.allocate(ino, size).expect("volume has space");
        } else {
            let mut offset = 0u64;
            while offset < size {
                let chunk = (size - offset).min(1 << 20) as usize;
                let data = Self::pattern(u64::from(ino.0), offset, chunk);
                fs.write(ino, offset, &data).expect("volume has space");
                offset += chunk as u64;
            }
        }
        self.quiesce();
        ino
    }

    /// The deterministic content a created file or published page holds at
    /// `[offset, offset+len)`, keyed by its handle (inode number) `fh`.
    /// Each 4 KiB block's stream is seeded independently, so the function
    /// is self-consistent at any offset: the generator always replays from
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
            .map_or(self.fs_cache_blocks, |c| c.fs_blocks() as usize);
        let fs = self.server.fs_mut();
        fs.sync().expect("sync");
        fs.set_cache_capacity(0);
        fs.set_cache_capacity(blocks);
    }

    /// The per-node ledgers.
    pub fn ledgers(&self) -> &NodeLedgers {
        &self.ledgers
    }

    /// The application server (stats, file system access).
    pub fn server_mut(&mut self) -> &mut A {
        &mut self.server
    }

    /// Shared access to the server — the lanes' read fast path serves
    /// cache-hit READs through `&A` under a shared core guard.
    pub fn server(&self) -> &A {
        &self.server
    }

    /// The NCache module, under that build.
    pub fn module(&self) -> Option<sim::Shared<NcacheModule>> {
        self.server.module().cloned()
    }

    /// The storage server (integrity inspection).
    pub fn target(&self) -> sim::Shared<IscsiTarget> {
        self.target.clone()
    }

    /// Low-level access for the timing layer: delivers a prepared request
    /// message over the clean link and returns the server's raw reply.
    pub fn handle_raw(&mut self, req: NetBuf) -> NetBuf {
        let delivered = servers::stack::deliver(&req, &self.ledgers.app);
        self.server.serve(delivered).0
    }

    /// One request/reply exchange over the faulty (or clean) client⇄server
    /// link; `accept` is the application's test of what arrives (see
    /// [`faulted_exchange_with`] for the recovery semantics). `None` once
    /// the retransmission budget is spent — or, on the clean link, when the
    /// one reply fails `accept`.
    pub(crate) fn exchange<T>(
        &mut self,
        req: NetBuf,
        accept: impl Fn(&A::Client, &NetBuf) -> Option<T>,
    ) -> Option<T> {
        if !self.session.is_armed() {
            let reply = self.handle_raw(req);
            return accept(&self.session.client, &reply);
        }
        let Session { client, link } = &mut self.session;
        let accept = |r: &NetBuf| accept(client, r);
        let server = &mut self.server;
        faulted_exchange_with(server, &self.ledgers, &mut self.counters, link, req, accept).0
    }

    /// The one op body of both engines: sends `request` (built for `op`)
    /// over `session`'s link — the rig's own when `None` — serves it, the
    /// transmit hook included, and closes `meter` on the observation, with
    /// `residue` (storage I/O logged before the run, which the lanes hand
    /// their first op) ahead of the op's own. On a clean link that is one
    /// delivery; on an armed one it is [`faulted_exchange_with`] under
    /// [`App::accept`], and the observation takes the accepted reply's
    /// size (none when the budget ran out) and every packet substituted on
    /// the way. Returns the observation and the payload the op moved: a
    /// WRITE's `payload_hint`, else the reply's payload.
    pub(crate) fn serve_op(
        &mut self,
        session: Option<&mut Session<A::Client>>,
        meter: OpMeter,
        op: &DriverOp,
        request: NetBuf,
        payload_hint: u64,
        residue: &[IoRecord],
    ) -> (Observation, u64) {
        let rejections = self.server.control_rejections();
        let request_bytes = request.total_len() as u64 + FRAME_OVERHEAD;
        let session = session.unwrap_or(&mut self.session);
        let (reply_bytes, payload, substituted) = if session.is_armed() {
            let Session { client, link } = session;
            let accept = A::accept(client, op, &request);
            let framed = |r: &NetBuf| Some((accept(r)?, r.total_len() as u64 + FRAME_OVERHEAD));
            let (accepted, substituted) = faulted_exchange_with(
                &mut self.server,
                &self.ledgers,
                &mut self.counters,
                link,
                request,
                framed,
            );
            let (payload, reply_bytes) = accepted.unwrap_or((0, 0));
            (reply_bytes, payload, substituted)
        } else {
            let delivered = servers::stack::deliver(&request, &self.ledgers.app);
            let (reply, substituted) = self.server.serve(delivered);
            let payload = match payload_hint {
                0 => reply.payload_len() as u64,
                hint => hint,
            };
            (reply.total_len() as u64 + FRAME_OVERHEAD, payload, substituted)
        };
        // The storage I/O logged since the last drain, `residue` ahead.
        self.io.extend_from_slice(residue);
        self.io.extend(self.server.fs_mut().store_mut().take_io_log());
        let rejected = self.server.control_rejections() > rejections;
        let obs = meter.finish(&self.ledgers, request_bytes, reply_bytes, &self.io, substituted, rejected);
        self.io.clear();
        // A rejected WRITE accepted no payload; the hint only applies to
        // executed operations.
        (obs, if rejected { 0 } else { payload })
    }
}

impl<A: App> RigDriver for Rig<A> {
    fn run_op(&mut self, op: &DriverOp) -> (Observation, u64) {
        let meter = OpMeter::open(&self.ledgers);
        let (request, payload_hint) = A::request(&mut self.session.client, op);
        self.serve_op(None, meter, op, request, payload_hint, &[])
    }

    fn transport(&self) -> Transport {
        A::TRANSPORT
    }

    fn per_request_ns(&self, costs: &CostModel) -> u64 {
        A::per_request_ns(costs)
    }

    fn recorder(&self) -> obs::Recorder {
        self.server.recorder().clone()
    }

    fn set_load(&mut self, now_ns: u64, inflight: u64) {
        self.server.set_load(now_ns, inflight);
    }

    /// The controller's epoch length in ops per session-round, when one
    /// is installed. The session engines tick on exactly these op-count
    /// boundaries — frozen controllers included, because a frozen tick is
    /// read-only and must stay unobservable under either schedule.
    fn adaptive_epoch(&self) -> Option<u64> {
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
    fn adaptive_tick(&mut self) {
        let Some(controller) = self.adaptive.as_mut() else {
            return;
        };
        let fs = self.server.fs_mut();
        let fs_stats = fs.cache_stats();
        let fs_ghost = fs.cache_ghost_stats().unwrap_or_default();
        let (nc_stats, nc_ghost) = match self.server.module() {
            Some(m) => {
                let m = m.borrow();
                (m.stats(), m.ghost_stats().unwrap_or_default())
            }
            None => Default::default(),
        };
        let resize = controller.tick(ncache::SplitSample {
            fs_hits: fs_stats.hits,
            fs_misses: fs_stats.misses,
            fs_ghost_hits: fs_ghost.hits,
            nc_hits: nc_stats.hits,
            nc_misses: nc_stats.lookups - nc_stats.hits,
            nc_ghost_hits: nc_ghost.hits,
        });
        if controller.is_dynamic() {
            let w = controller.window();
            if w.fs_ghost_hits > 0 {
                self.server.recorder().add_counter("ghost.hit.fs", w.fs_ghost_hits);
            }
            if w.nc_ghost_hits > 0 {
                self.server.recorder().add_counter("ghost.hit.ncache", w.nc_ghost_hits);
            }
        }
        let Some(resize) = resize else { return };
        self.server.fs_mut().set_cache_capacity(resize.fs_blocks as usize);
        if let Some(m) = self.server.module() {
            m.borrow().set_pool_capacity(resize.ncache_bytes);
        }
        let _ = self.server.fs_mut().store_mut().take_io_log();
        self.server.recorder().add_counter("adaptive.resize", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::khttpd_rig::{KhttpdRig, KhttpdRigParams};
    use crate::nfs_rig::{NfsRig, NfsRigParams};

    #[test]
    fn a_reply_failing_the_accept_test_retransmits_identically_through_both_rigs() {
        // Truncation is the one fault the link layer lets through in the
        // reply direction (the checksum stand-in catches flipped bits, not
        // missing tails), so it is each application's accept test that must
        // reject what arrives: a short READ payload, a body shorter than its
        // Content-Length. The client⇄server link draws from its own stream
        // of the plan, so the same spec and seed put the same faults on the
        // same attempts of both rigs — and the one exchange loop must count
        // and recover from them identically, whichever protocol it carries.
        let spec = FaultSpec {
            truncate: 0.3,
            ..FaultSpec::default()
        };
        let mut nfs = NfsRig::new_faulted(ServerMode::NCache, NfsRigParams::default(), &spec, 17);
        let fh = nfs.create_file("f", 64 << 10);
        let mut web =
            KhttpdRig::new_faulted(ServerMode::NCache, KhttpdRigParams::default(), &spec, 17);
        web.publish("p", 16 << 10);
        let page = web.expected("p", 16 << 10);
        for k in 0..24u32 {
            let off = (k % 4) * (16 << 10);
            let (hdr, data) = nfs.try_read(fh, off, 16 << 10).expect("READ completes");
            assert_eq!(hdr.status, proto::nfs::NFS_OK);
            assert_eq!(data, NfsRig::pattern(fh, u64::from(off), 16 << 10), "READ {k}");
            let (hdr, body) = web.try_get("/p").expect("GET completes");
            assert_eq!(hdr.status, 200);
            assert_eq!(body, page, "GET {k}");
            assert_eq!(nfs.fault_counters(), web.fault_counters(), "after request {k}");
        }
        let fc = nfs.fault_counters();
        assert!(fc.damaged_replies > 0, "truncated replies reached the accept test");
        assert!(fc.checksum_discards > 0, "truncated requests never reached the server");
        assert_eq!(fc.failed_requests, 0);
        assert_eq!(fc.retransmits, fc.damaged_replies + fc.checksum_discards);
    }
}

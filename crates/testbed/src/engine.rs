//! The one timing engine.
//!
//! Every curve of the evaluation comes off one testbed — the same nodes,
//! links and array, with only the workload changed — so the machine is
//! modelled once: [`Hardware`] is the six FIFO resources plus the storage
//! backend, and [`Walker`] is the only event loop in the crate. A request
//! executes *functionally* when it is transmitted; its measured operation
//! counts become a chain of [`Stage`]s walked across the hardware, with a
//! telescoping per-stage queue/service breakdown. An admission-gate
//! rejection costs a quarter of the fixed per-request CPU and either
//! backs off and retransmits under the client's retry budget or is shed.
//!
//! The three public entry points — `runner::run`, `sessions::run_sessions`
//! and `openloop::run_open_loop_at` — differ only in their [`Arrivals`]
//! process (same-instant tiebreak, refill, controller ticks, recorder
//! lane and clock) and their completion [`Sink`]; DESIGN.md §5 tabulates
//! the rules. The rig is borrowed and events are plain data, so nothing
//! here needs `'static` closures over an owned world.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use blockdev::{DiskModel, Raid0, TierConfig, TierStats, TieredArray};
use sim::costs::CostModel;
use sim::stats::Throughput;
use sim::time::{Duration, SimTime};
use sim::Resource;

use crate::runner::{op_label, DriverOp, RigDriver};
use crate::sessions::SessionHook;
use crate::timing::{derive, Observation, RequestDemands, StorageBurst};

/// A FIFO resource a request stage occupies.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Res {
    AppRx,
    AppCpu,
    AppTx,
    StorRx,
    StorCpu,
    StorTx,
    Disk { lbn: u64, blocks: u64, write: bool },
}

/// Stage names by breakdown slot: the resources by [`Res::slot`], in the
/// order the attribution report renders them (the recorder's closed
/// stage-histogram key set), then the two stages that occupy no resource,
/// [`TIER_PROMOTE`] and [`CLIENT_BACKOFF`].
pub(crate) const STAGE_NAMES: [&str; 9] = [
    "app-rx",
    "app-cpu",
    "app-tx",
    "storage-rx",
    "storage-cpu",
    "storage-tx",
    "disk",
    "tier-promote",
    "client-backoff",
];

/// Breakdown slot of a promotion copy chained onto a tiered read.
pub(crate) const TIER_PROMOTE: usize = Res::COUNT;

/// Breakdown slot of a client's retry backoff.
pub(crate) const CLIENT_BACKOFF: usize = Res::COUNT + 1;

impl Res {
    /// Resources, and so [`Res::slot`] values.
    pub(crate) const COUNT: usize = 7;

    /// The slot per-resource accounting files this resource under.
    pub(crate) fn slot(self) -> usize {
        match self {
            Res::AppRx => 0,
            Res::AppCpu => 1,
            Res::AppTx => 2,
            Res::StorRx => 3,
            Res::StorCpu => 4,
            Res::StorTx => 5,
            Res::Disk { .. } => 6,
        }
    }
}

/// The storage backend behind the iSCSI target: the paper's flat RAID-0
/// array, or the tiered fast-device-plus-array variant (DESIGN.md §16).
/// `Flat` takes the exact pre-tier timing path byte for byte.
#[derive(Clone, Debug)]
pub(crate) enum Backend {
    Flat(Raid0),
    Tiered(Box<TieredArray>),
}

/// Timing of one stage: `begin - now` is its queue wait, `done - begin`
/// its service interval (see [`sim::Resource::serve_timed`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ServeOutcome {
    pub(crate) begin: SimTime,
    pub(crate) done: SimTime,
    /// Completion of a promotion copy a tiered read chained on, if any.
    pub(crate) promote_done: Option<SimTime>,
}

impl Backend {
    pub(crate) fn new(tier: Option<TierConfig>) -> Backend {
        let array = Raid0::new(DiskModel::dtla_307075(), 4, 16);
        match tier {
            None => Backend::Flat(array),
            Some(cfg) => Backend::Tiered(Box::new(TieredArray::new(cfg, array))),
        }
    }

    pub(crate) fn tier_stats(&self) -> Option<TierStats> {
        match self {
            Backend::Flat(_) => None,
            Backend::Tiered(t) => Some(t.stats()),
        }
    }
}

/// The simulated machine room: per-node CPUs, full-duplex Gigabit links
/// (1 or 2 NICs on the application server — the Figure 5 lever) and the
/// storage backend.
pub(crate) struct Hardware {
    pub(crate) app_rx: Resource,
    pub(crate) app_cpu: Resource,
    pub(crate) app_tx: Resource,
    pub(crate) stor_rx: Resource,
    pub(crate) stor_cpu: Resource,
    pub(crate) stor_tx: Resource,
    pub(crate) array: Backend,
    rec: obs::Recorder,
}

impl Hardware {
    /// Builds the testbed; an enabled `rec` receives every busy interval.
    pub(crate) fn new(nics: usize, tier: Option<TierConfig>, rec: &obs::Recorder) -> Self {
        let nics = nics.max(1);
        let mut hw = Hardware {
            app_rx: Resource::new("app-rx", nics),
            app_cpu: Resource::new("app-cpu", 1),
            app_tx: Resource::new("app-tx", nics),
            stor_rx: Resource::new("storage-rx", 1),
            stor_cpu: Resource::new("storage-cpu", 1),
            stor_tx: Resource::new("storage-tx", 1),
            array: Backend::new(tier),
            rec: rec.clone(),
        };
        if rec.is_enabled() {
            for r in [
                &mut hw.app_rx,
                &mut hw.app_cpu,
                &mut hw.app_tx,
                &mut hw.stor_rx,
                &mut hw.stor_cpu,
                &mut hw.stor_tx,
            ] {
                r.set_recorder(rec.clone());
            }
        }
        hw
    }

    /// Occupies the stage's resource from `now`.
    fn serve(&mut self, now: SimTime, stage: &Stage) -> ServeOutcome {
        let mut promote_done = None;
        let (begin, done) = match stage.res {
            Res::AppRx => self.app_rx.serve_timed(now, stage.demand),
            Res::AppCpu => self.app_cpu.serve_timed(now, stage.demand),
            Res::AppTx => self.app_tx.serve_timed(now, stage.demand),
            Res::StorRx => self.stor_rx.serve_timed(now, stage.demand),
            Res::StorCpu => self.stor_cpu.serve_timed(now, stage.demand),
            Res::StorTx => self.stor_tx.serve_timed(now, stage.demand),
            Res::Disk { lbn, blocks, write } => match &mut self.array {
                Backend::Flat(array) => array.io_timed(now, lbn, blocks),
                Backend::Tiered(t) => {
                    let o = if write {
                        t.write_timed(now, lbn, blocks)
                    } else {
                        t.read_timed(now, lbn, blocks)
                    };
                    if o.fault_fallback {
                        self.rec.add_counter("fault.tier_fallback", 1);
                    }
                    if o.promote_done.is_some() {
                        self.rec.add_counter("tier.promote", 1);
                    }
                    promote_done = o.promote_done;
                    (o.begin, o.done)
                }
            },
        };
        ServeOutcome {
            begin,
            done,
            promote_done,
        }
    }
}

/// The data path a request took, judged from its observation: any
/// foreground read burst puts the disk on the critical path; otherwise a
/// substituted reply was served zero-copy from the network-centric
/// cache; otherwise it was a plain cache hit. (Write-behind bursts are
/// background work and do not change the request's path.)
fn classify_path(obs: &Observation) -> &'static str {
    if obs.bursts.iter().any(|b| !b.is_write) {
        "disk"
    } else if obs.substituted_pkts > 0 {
        "substitution"
    } else {
        "hit"
    }
}

/// One stage of a request's resource chain.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Stage {
    pub(crate) res: Res,
    pub(crate) demand: Duration,
}

/// Appends the foreground stage chain of one executed request to `out`.
/// Read bursts ride it (the reply waits for them); write bursts flush on
/// their own chains ([`write_behind`]) — they occupy the link, the storage
/// CPU and the array but do not extend the request's latency.
fn foreground(costs: &CostModel, demands: &RequestDemands, out: &mut Vec<Stage>) {
    let stage = |res, demand| Stage { res, demand };
    out.push(stage(Res::AppRx, costs.link_tx_time(demands.request_bytes)));
    out.push(stage(Res::AppCpu, demands.app_cpu));
    for (b, cpu) in demands.bursts.iter().filter(|(b, _)| !b.is_write) {
        let data_time = costs.link_tx_time(b.bytes());
        out.extend([
            stage(Res::StorRx, costs.link_tx_time(96)),
            stage(Res::StorCpu, *cpu),
            stage(
                Res::Disk {
                    lbn: b.lbn,
                    blocks: b.blocks,
                    write: false,
                },
                Duration::ZERO,
            ),
            stage(Res::StorTx, data_time),
            stage(Res::AppRx, data_time),
        ]);
    }
    out.push(stage(Res::AppTx, costs.link_tx_time(demands.reply_bytes)));
}

/// The background chain that flushes write burst `b` (storage CPU `cpu`).
fn write_behind(costs: &CostModel, b: &StorageBurst, cpu: Duration) -> [Stage; 4] {
    let data_time = costs.link_tx_time(b.bytes());
    let stage = |res, demand| Stage { res, demand };
    [
        stage(Res::AppTx, data_time),
        stage(Res::StorRx, data_time),
        stage(Res::StorCpu, cpu),
        stage(
            Res::Disk {
                lbn: b.lbn,
                blocks: b.blocks,
                write: true,
            },
            Duration::ZERO,
        ),
    ]
}

/// One entry of a request's latency breakdown: the stage (a
/// [`STAGE_NAMES`] slot), its queue wait and its service interval.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StageTime {
    pub(crate) slot: usize,
    pub(crate) queue_ns: u64,
    pub(crate) service_ns: u64,
}

/// A foreground request in flight: identity, start instant, and the
/// per-stage latency breakdown accumulated so far. Each stage's arrival
/// is the previous stage's completion (the chain is rescheduled at
/// `done`), so the queue + service entries telescope to exactly the
/// request's end-to-end latency, in integer nanoseconds.
pub(crate) struct Flight {
    pub(crate) payload: u64,
    pub(crate) start: SimTime,
    path: &'static str,
    pub(crate) stages: Vec<StageTime>,
    /// The server admitted (some attempt of) the request; `false` means
    /// every transmission so far was rejected.
    delivered: bool,
    /// Issue index — keys the retry policy's backoff stream.
    idx: u64,
    /// Transmissions performed so far (1 = the initial send).
    attempts: u64,
    /// The operation, retained for retransmission after a rejection.
    op: DriverOp,
}

/// One schedulable unit: a stage chain being walked, or (with no stages)
/// a flight waiting out a retry backoff. `flight = None` marks a
/// background write-behind chain: it consumes resources but completes
/// silently (no record, no refill). Chains live in the walker's slab; a
/// freed slot keeps its stage vector for the next chain.
#[derive(Default)]
struct Chain {
    /// Same-instant tiebreak, drawn from the walker's scheduling counter.
    order: u64,
    sid: usize,
    stages: Vec<Stage>,
    cursor: usize,
    flight: Option<Flight>,
}

/// Where completions go: the part of each entry point's result that the
/// other two do not have.
pub(crate) trait Sink {
    /// An admitted request completed at `now`; `late` means past the
    /// client's deadline (the bytes are real yet worthless to the caller,
    /// so the engine keeps them out of its meter).
    fn delivered(&mut self, _now: SimTime, _flight: &Flight, _late: bool) {}

    /// A request was shed: every transmission was rejected and the retry
    /// budget (or the deadline) ran out — a client-visible error.
    fn shed(&mut self) {}
}

/// The sessions engine's sink: the walker's totals are its whole result.
impl Sink for () {}

/// The arrival process: where operations come from and, with them, the
/// per-mode rules of DESIGN.md §5.
pub(crate) enum Arrivals<'a> {
    /// Closed loop over one shared queue: every completion pulls the next
    /// operation, whichever slot it frees.
    Shared(&'a mut dyn Iterator<Item = DriverOp>),
    /// Closed loop per session: each session keeps exactly one request
    /// outstanding until its own queue drains. `total` is each session's
    /// operation count at the start.
    PerSession {
        queues: Vec<VecDeque<DriverOp>>,
        total: Vec<u64>,
    },
    /// Open loop: flights arrive at absolute instants
    /// ([`Walker::schedule_arrivals`]); completions pull nothing.
    Schedule,
}

impl Arrivals<'_> {
    pub(crate) fn per_session(sessions: Vec<Vec<DriverOp>>) -> Self {
        Arrivals::PerSession {
            total: sessions.iter().map(|s| s.len() as u64).collect(),
            queues: sessions.into_iter().map(VecDeque::from).collect(),
        }
    }

    fn next(&mut self, sid: usize) -> Option<DriverOp> {
        match self {
            Arrivals::Shared(ops) => ops.next(),
            Arrivals::PerSession { queues, .. } => queues[sid].pop_front(),
            Arrivals::Schedule => None,
        }
    }

    /// The obs lane (and same-instant priority) of session `sid`, in the
    /// mode that has sessions. Lane 0 is the single-session default, so
    /// sessions are 1-based.
    fn lane(&self, sid: usize) -> Option<u64> {
        matches!(self, Arrivals::PerSession { .. }).then_some(sid as u64 + 1)
    }

    /// Op rounds executed once `issued` operations have been — the unit
    /// controller epochs are measured in (an open loop has none, so it
    /// never ticks). Per session that is the slowest unfinished session's
    /// count, so a tick lands on an op-count boundary: deterministic,
    /// never mid-request.
    fn rounds(&self, issued: u64) -> u64 {
        match self {
            Arrivals::Shared(_) => issued,
            Arrivals::PerSession { queues, total } => {
                let executed = queues.iter().zip(total).map(|(q, t)| (t - q.len() as u64, q));
                let unfinished = executed.filter(|(_, q)| !q.is_empty()).map(|(e, _)| e).min();
                unfinished.unwrap_or_else(|| total.iter().copied().max().unwrap_or(0))
            }
            Arrivals::Schedule => 0,
        }
    }
}

/// What a run measured, whatever its arrival process.
#[derive(Default)]
pub(crate) struct Totals {
    /// On-time completions: the throughput numerator.
    pub(crate) meter: Throughput,
    /// Latency of every delivered request, late ones included.
    pub(crate) latency: obs::Histogram,
    /// Instant the last chain drained.
    pub(crate) end: SimTime,
    /// Most requests simultaneously outstanding at the client.
    pub(crate) peak_inflight: u64,
    pub(crate) shed: u64,
    pub(crate) retries: u64,
    /// Retransmissions the per-request budget allowed but the client-wide
    /// [`servers::RetryBudget`] withheld (each one a shed).
    pub(crate) withheld: u64,
    pub(crate) max_attempts: u64,
}

/// The chain-walker: one rig, one [`Hardware`], one event queue.
pub(crate) struct Walker<'a, R, S> {
    rig: &'a mut R,
    /// Called around every functional execution.
    pub(crate) hook: Option<SessionHook<R>>,
    arrivals: Arrivals<'a>,
    pub(crate) sink: S,
    pub(crate) hw: Hardware,
    /// The paper's testbed (`CostModel::pentium3_gige`), the one profile.
    costs: CostModel,
    rec: obs::Recorder,
    /// Client retry policy for gate rejections and the run's one
    /// client-wide budget (`None`: a rejection sheds the request at once).
    pub(crate) retry: Option<(servers::RetryPolicy, servers::RetryBudget)>,
    /// Request deadline in sim-ns (0 = none).
    pub(crate) deadline_ns: u64,
    /// Adaptive-split epoch length in op rounds (`None` = no controller).
    epoch: Option<u64>,
    ticks_done: u64,
    /// Pending chains as `(at, lane, order, slot)`: only live chains, each
    /// in a slot of `chains` (the slot is never compared, as `order` is
    /// unique).
    queue: BinaryHeap<Reverse<(SimTime, u64, u64, usize)>>,
    /// The chain slab; `free` lists the slots no queued chain holds.
    chains: Vec<Chain>,
    free: Vec<usize>,
    /// The open-loop schedule's arrivals not yet transmitted, in time
    /// order: a cursor `run` merges with `queue`, not queue entries.
    pending: VecDeque<(SimTime, u64, DriverOp)>,
    /// Breakdown vectors of completed flights, kept for the next ones.
    spare: Vec<Vec<StageTime>>,
    seq: u64,
    /// Closed-loop requests issued so far — the controller ticks count them.
    issued: u64,
    /// Requests outstanding at the client (delivered or not).
    inflight: u64,
    /// Admitted requests still in flight — the depth the server's
    /// admission gate sees. Rejected and backing-off flights occupy the
    /// client, not the server (counting them would turn every rejection
    /// into more rejections).
    server_inflight: u64,
    pub(crate) totals: Totals,
}

impl<'a, R: RigDriver, S: Sink> Walker<'a, R, S> {
    pub(crate) fn new(
        rig: &'a mut R,
        arrivals: Arrivals<'a>,
        sink: S,
        nics: usize,
        tier: Option<TierConfig>,
    ) -> Self {
        let rec = rig.recorder();
        Walker {
            epoch: rig.adaptive_epoch().filter(|&l| l > 0),
            rig,
            hook: None,
            arrivals,
            sink,
            hw: Hardware::new(nics, tier, &rec),
            costs: CostModel::pentium3_gige(),
            rec,
            retry: None,
            deadline_ns: 0,
            ticks_done: 0,
            queue: BinaryHeap::new(),
            chains: Vec::new(),
            free: Vec::new(),
            pending: VecDeque::new(),
            spare: Vec::new(),
            seq: 0,
            issued: 0,
            inflight: 0,
            server_inflight: 0,
            totals: Totals::default(),
        }
    }

    /// A new flight of `op`, first transmitted at `start`, on a recycled
    /// breakdown vector.
    fn flight(&mut self, start: SimTime, idx: u64, op: DriverOp) -> Flight {
        Flight {
            payload: 0,
            start,
            path: "shed",
            stages: self.spare.pop().unwrap_or_default(),
            delivered: false,
            idx,
            attempts: 0,
            op,
        }
    }

    /// Queues a new chain to wake at `at` in a free slot, its stage list
    /// empty for the caller to fill, and returns the slot. Same-instant
    /// order is the session lane (if any), then this scheduling draw —
    /// which the shared queue keeps for the chain's life (background
    /// chains are spawned before their foreground one) and the other modes
    /// re-draw at every stage (see [`Walker::step`]).
    fn spawn(&mut self, at: SimTime, sid: usize, flight: Option<Flight>) -> usize {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.chains.push(Chain::default());
            self.chains.len() - 1
        });
        let chain = &mut self.chains[slot];
        chain.order = self.seq;
        chain.sid = sid;
        chain.stages.clear();
        chain.cursor = 0;
        chain.flight = flight;
        self.seq += 1;
        let lane = self.arrivals.lane(sid).unwrap_or(0);
        self.queue.push(Reverse((at, lane, chain.order, slot)));
        slot
    }

    /// Takes an absolute schedule, sorted by instant: `(at, idx, op)`
    /// transmits `op` at `at` whatever has completed by then, `idx` keying
    /// its backoff stream. The arrivals never enter the event queue; at
    /// an equal instant an arrival goes before any chain, and equal
    /// arrivals go in the order given.
    ///
    /// # Panics
    ///
    /// Panics on a second schedule, or one that is not non-decreasing in
    /// `at`.
    pub(crate) fn schedule_arrivals(&mut self, arrivals: Vec<(SimTime, u64, DriverOp)>) {
        assert!(
            self.pending.is_empty() && arrivals.is_sorted_by_key(|&(at, ..)| at),
            "one non-decreasing arrival schedule per run"
        );
        self.pending = arrivals.into();
    }

    /// Issues session `sid`'s next operation at `now` (closed loops);
    /// `false` once its queue has drained.
    pub(crate) fn issue(&mut self, now: SimTime, sid: usize) -> bool {
        let Some(op) = self.arrivals.next(sid) else {
            return false;
        };
        self.issued += 1;
        let fg = self.flight(now, self.issued - 1, op);
        self.transmit(now, sid, fg);
        true
    }

    /// Runs until every chain has drained and every arrival has fired.
    pub(crate) fn run(&mut self) {
        loop {
            let next = self.queue.peek().map(|&Reverse((at, ..))| at);
            let due = |&mut (at, ..): &mut (SimTime, u64, DriverOp)| next.is_none_or(|t| at <= t);
            if let Some((at, idx, op)) = self.pending.pop_front_if(due) {
                let fg = self.flight(at, idx, op);
                self.transmit(at, 0, fg);
                continue;
            }
            let Some(Reverse((now, _, _, slot))) = self.queue.pop() else {
                return;
            };
            let chain = &mut self.chains[slot];
            if chain.stages.is_empty() {
                let flight = chain.flight.take().expect("only a flight waits");
                let sid = chain.sid;
                self.free.push(slot);
                self.transmit(now, sid, flight);
            } else {
                self.step(now, slot);
            }
        }
    }

    /// One transmission of a flight's operation, executed functionally at
    /// `now` (the session's lane stamped into the recorder, so its spans
    /// land in the session's timeline lane). An admitted attempt fixes
    /// the flight's payload and path; a rejected one leaves it
    /// undelivered — the retry decision happens when the rejection reply
    /// reaches the client, in [`Walker::step`]. Either way the attempt's
    /// chains are scheduled, so rejection round trips consume the same
    /// simulated resources real ones do.
    fn transmit(&mut self, now: SimTime, sid: usize, mut fg: Flight) {
        let lane = self.arrivals.lane(sid);
        self.rec.set_now(now.as_nanos());
        if let Some(lane) = lane {
            self.rec.set_lane(lane);
        }
        self.rig.set_load(now.as_nanos(), self.server_inflight);
        if let Some(hook) = self.hook.as_mut() {
            hook(self.rig, sid);
        }
        let (obs, payload) = self.rig.run_op(&fg.op);
        if let Some(hook) = self.hook.as_mut() {
            hook(self.rig, sid);
        }
        if lane.is_some() {
            self.rec.set_lane(0);
        }
        fg.attempts += 1;
        self.totals.max_attempts = self.totals.max_attempts.max(fg.attempts);
        if fg.attempts > 1 {
            self.totals.retries += 1;
        } else {
            self.inflight += 1;
            self.totals.peak_inflight = self.totals.peak_inflight.max(self.inflight);
            // This op's round has executed: fire any epoch tick whose
            // boundary was just crossed.
            if let Some(l) = self.epoch {
                let rounds = self.arrivals.rounds(self.issued);
                while (self.ticks_done + 1) * l <= rounds {
                    self.rig.adaptive_tick();
                    self.ticks_done += 1;
                }
            }
        }
        // A gate rejection turns the request around before filesystem and
        // cache processing; only transport and decode work remains, so it
        // costs a quarter of the fixed per-request CPU. That is what makes
        // shedding cheaper than serving — the whole point of the gate.
        let per_request_ns = if obs.rejected {
            self.rig.per_request_ns(&self.costs) / 4
        } else {
            self.rig.per_request_ns(&self.costs)
        };
        let demands = derive(&self.costs, self.rig.transport(), per_request_ns, &obs);
        for (b, cpu) in demands.bursts.iter().filter(|(b, _)| b.is_write) {
            let slot = self.spawn(now, sid, None);
            self.chains[slot].stages.extend(write_behind(&self.costs, b, *cpu));
        }
        if !obs.rejected {
            fg.delivered = true;
            fg.payload = payload;
            fg.path = classify_path(&obs);
            self.server_inflight += 1;
        }
        let slot = self.spawn(now, sid, Some(fg));
        foreground(&self.costs, &demands, &mut self.chains[slot].stages);
    }

    /// Walks one stage of the chain in `slot`: occupies the stage's FIFO
    /// resource and reschedules the chain at the completion instant. An
    /// exhausted foreground chain is a reply reaching its client: it
    /// refills or drains the client-wide retry budget, then a rejection
    /// backs off and retransmits if both budgets allow; anything else
    /// completes the request and refills the slot (the closed loops).
    fn step(&mut self, now: SimTime, slot: usize) {
        let chain = &mut self.chains[slot];
        let lane = self.arrivals.lane(chain.sid);
        let shared = matches!(self.arrivals, Arrivals::Shared(_));
        if let Some(&stage) = chain.stages.get(chain.cursor) {
            let o = self.hw.serve(now, &stage);
            if let Some(fg) = chain.flight.as_mut() {
                fg.stages.push(StageTime {
                    slot: stage.res.slot(),
                    queue_ns: o.begin.since(now).as_nanos(),
                    service_ns: o.done.since(o.begin).as_nanos(),
                });
                // A promotion copy chains onto the read that triggered
                // it, starting exactly at `done` (queue 0), so the
                // breakdown still telescopes.
                if let Some(p) = o.promote_done {
                    fg.stages.push(StageTime {
                        slot: TIER_PROMOTE,
                        queue_ns: 0,
                        service_ns: p.since(o.done).as_nanos(),
                    });
                }
            }
            chain.cursor += 1;
            if !shared {
                chain.order = self.seq;
                self.seq += 1;
            }
            let at = o.promote_done.unwrap_or(o.done);
            self.queue.push(Reverse((at, lane.unwrap_or(0), chain.order, slot)));
            return;
        }
        self.totals.end = self.totals.end.max(now);
        let sid = chain.sid;
        let flight = chain.flight.take();
        self.free.push(slot);
        let Some(mut fg) = flight else {
            return;
        };
        let latency_ns = now.since(fg.start).as_nanos();
        if let Some((_, budget)) = self.retry.as_mut() {
            budget.on_reply(fg.delivered);
        }
        let retryable = self
            .retry
            .filter(|(p, _)| !fg.delivered && fg.attempts <= u64::from(p.budget));
        let budgeted = retryable.filter(|(_, b)| b.allows_retry()).map(|(p, _)| p);
        if retryable.is_some() && budgeted.is_none() {
            self.totals.withheld += 1;
        }
        if let Some(policy) = budgeted {
            // The backoff is a pure client-side delay, recorded as a stage
            // so the breakdown still telescopes. A retransmission that
            // would resume past the deadline cannot deliver useful work,
            // so the client sheds instead of adding load.
            let backoff = policy.backoff_ns(fg.idx, fg.attempts as u32);
            if self.deadline_ns == 0 || latency_ns + backoff <= self.deadline_ns {
                fg.stages.push(StageTime {
                    slot: CLIENT_BACKOFF,
                    queue_ns: 0,
                    service_ns: backoff,
                });
                let at = now + Duration::from_nanos(backoff);
                self.spawn(at, sid, Some(fg));
                return;
            }
        }
        self.inflight -= 1;
        if fg.delivered {
            self.server_inflight -= 1;
            let late = self.deadline_ns > 0 && latency_ns > self.deadline_ns;
            if !late {
                self.totals.meter.record(fg.payload);
            }
            self.totals.latency.record(latency_ns);
            self.sink.delivered(now, &fg, late);
        } else {
            self.totals.shed += 1;
            self.sink.shed();
        }
        if self.rec.is_enabled() {
            self.record(now, lane, shared, &fg);
        }
        fg.stages.clear();
        self.spare.push(fg.stages);
        self.issue(now, sid);
    }

    /// Mirrors a completed flight into the recorder as a request event
    /// with its exact interval and breakdown.
    fn record(&self, now: SimTime, lane: Option<u64>, shared: bool, fg: &Flight) {
        // The shared-queue mode leaves the clock at the last issue's
        // stamp; the event carries its exact interval either way.
        if !shared {
            self.rec.set_now(now.as_nanos());
        }
        if let Some(lane) = lane {
            self.rec.set_lane(lane);
        }
        let stages = fg.stages.iter().map(|st| obs::StageNs {
            stage: STAGE_NAMES[st.slot],
            queue_ns: st.queue_ns,
            service_ns: st.service_ns,
        });
        self.rec.emit(obs::EventKind::Request {
            op: op_label(&fg.op),
            path: fg.path,
            start_ns: fg.start.as_nanos(),
            end_ns: now.as_nanos(),
            stages: stages.collect(),
        });
        if lane.is_some() {
            self.rec.set_lane(0);
        }
    }
}

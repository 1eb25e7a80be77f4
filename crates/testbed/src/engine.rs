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

use std::collections::{BTreeMap, VecDeque};

use blockdev::{DiskModel, Raid0, TierConfig, TierStats, TieredArray};
use sim::costs::CostModel;
use sim::stats::Throughput;
use sim::time::{Duration, SimTime};
use sim::Resource;

use crate::runner::{op_label, DriverOp, RigDriver};
use crate::sessions::SessionHook;
use crate::timing::{derive, Observation, RequestDemands};

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

/// Stage names by [`Res::slot`], in the order the attribution report
/// renders them (the recorder's closed stage-histogram key set).
pub(crate) const STAGE_NAMES: [&str; 7] = [
    "app-rx",
    "app-cpu",
    "app-tx",
    "storage-rx",
    "storage-cpu",
    "storage-tx",
    "disk",
];

impl Res {
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

    pub(crate) fn utilization(&self, elapsed_until: SimTime) -> f64 {
        match self {
            Backend::Flat(array) => array.utilization(elapsed_until),
            Backend::Tiered(t) => t.utilization(elapsed_until),
        }
    }

    pub(crate) fn tier_stats(&self) -> Option<TierStats> {
        match self {
            Backend::Flat(_) => None,
            Backend::Tiered(t) => Some(t.stats()),
        }
    }

    /// Member disks of the (slow) array.
    pub(crate) fn disk_count(&self) -> usize {
        match self {
            Backend::Flat(array) => array.disk_count(),
            Backend::Tiered(t) => t.slow().disk_count(),
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

/// Builds the foreground stage chain plus any background write-behind
/// chains for one executed request. Read bursts ride the foreground chain
/// (the reply waits for them); write bursts flush on their own chains —
/// they occupy the link, the storage CPU and the array but do not extend
/// the request's latency.
fn stage_chains(costs: &CostModel, demands: &RequestDemands) -> (Vec<Stage>, Vec<Vec<Stage>>) {
    let mut stages = Vec::with_capacity(4 + 5 * demands.bursts.len());
    let mut background = Vec::new();
    stages.push(Stage {
        res: Res::AppRx,
        demand: costs.link_tx_time(demands.request_bytes),
    });
    stages.push(Stage {
        res: Res::AppCpu,
        demand: demands.app_cpu,
    });
    for (b, cpu) in &demands.bursts {
        let data_time = costs.link_tx_time(b.bytes());
        if b.is_write {
            background.push(vec![
                Stage {
                    res: Res::AppTx,
                    demand: data_time,
                },
                Stage {
                    res: Res::StorRx,
                    demand: data_time,
                },
                Stage {
                    res: Res::StorCpu,
                    demand: *cpu,
                },
                Stage {
                    res: Res::Disk {
                        lbn: b.lbn,
                        blocks: b.blocks,
                        write: true,
                    },
                    demand: Duration::ZERO,
                },
            ]);
        } else {
            stages.push(Stage {
                res: Res::StorRx,
                demand: costs.link_tx_time(96),
            });
            stages.push(Stage {
                res: Res::StorCpu,
                demand: *cpu,
            });
            stages.push(Stage {
                res: Res::Disk {
                    lbn: b.lbn,
                    blocks: b.blocks,
                    write: false,
                },
                demand: Duration::ZERO,
            });
            stages.push(Stage {
                res: Res::StorTx,
                demand: data_time,
            });
            stages.push(Stage {
                res: Res::AppRx,
                demand: data_time,
            });
        }
    }
    stages.push(Stage {
        res: Res::AppTx,
        demand: costs.link_tx_time(demands.reply_bytes),
    });
    (stages, background)
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
    pub(crate) stages: Vec<obs::StageNs>,
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

impl Flight {
    pub(crate) fn new(start: SimTime, idx: u64, op: DriverOp) -> Self {
        Flight {
            payload: 0,
            start,
            path: "shed",
            stages: Vec::new(),
            delivered: false,
            idx,
            attempts: 0,
            op,
        }
    }
}

/// One schedulable unit: a stage chain being walked, or (with no stages)
/// a flight waiting out its arrival instant or a retry backoff.
/// `flight = None` marks a background write-behind chain: it consumes
/// resources but completes silently (no record, no refill).
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
    /// An admitted request of session `sid` completed at `now`; `late`
    /// means past the client's deadline (the bytes are real yet worthless
    /// to the caller, so the engine keeps them out of its meter).
    fn delivered(&mut self, sid: usize, now: SimTime, flight: &Flight, late: bool);

    /// A request was shed: every transmission was rejected and the retry
    /// budget (or the deadline) ran out — a client-visible error.
    fn shed(&mut self) {}

    /// A stage occupied `res` over the non-empty `[begin, done)`.
    fn busy(&mut self, _res: Res, _begin: SimTime, _done: SimTime) {}
}

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
    /// Open loop: flights are scheduled up front at absolute instants
    /// ([`Walker::schedule_arrival`]); completions pull nothing.
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
    /// count, so a tick lands on the op-count boundary the
    /// round-synchronized parallel engine barriers on: deterministic,
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
    costs: &'a CostModel,
    rec: obs::Recorder,
    /// Client retry policy for gate rejections and the run's one
    /// client-wide budget (`None`: a rejection sheds the request at once).
    pub(crate) retry: Option<(servers::RetryPolicy, servers::RetryBudget)>,
    /// Request deadline in sim-ns (0 = none).
    pub(crate) deadline_ns: u64,
    /// Adaptive-split epoch length in op rounds (`None` = no controller).
    epoch: Option<u64>,
    ticks_done: u64,
    /// Pending events as plain data, keyed `(at, lane, order)`.
    queue: BTreeMap<(SimTime, u64, u64), Box<Chain>>,
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
        costs: &'a CostModel,
    ) -> Self {
        let rec = rig.recorder();
        Walker {
            epoch: rig.adaptive_epoch().filter(|&l| l > 0),
            rig,
            hook: None,
            arrivals,
            sink,
            hw: Hardware::new(nics, tier, &rec),
            costs,
            rec,
            retry: None,
            deadline_ns: 0,
            ticks_done: 0,
            queue: BTreeMap::new(),
            seq: 0,
            issued: 0,
            inflight: 0,
            server_inflight: 0,
            totals: Totals::default(),
        }
    }

    /// Queues a new chain to wake at `at`. Same-instant order is the
    /// session lane (if any), then this scheduling draw — which the
    /// shared queue keeps for the chain's life (background chains are
    /// spawned before their foreground one) and the other modes re-draw
    /// at every stage (see [`Walker::step`]).
    fn spawn(&mut self, at: SimTime, sid: usize, stages: Vec<Stage>, flight: Option<Flight>) {
        let chain = Chain {
            order: self.seq,
            sid,
            stages,
            cursor: 0,
            flight,
        };
        self.seq += 1;
        let lane = self.arrivals.lane(sid).unwrap_or(0);
        self.queue.insert((at, lane, chain.order), Box::new(chain));
    }

    /// Schedules arrival `idx` of an absolute schedule: `op` is first
    /// transmitted at `at`, whatever has completed by then.
    pub(crate) fn schedule_arrival(&mut self, at: SimTime, idx: u64, op: DriverOp) {
        self.spawn(at, 0, Vec::new(), Some(Flight::new(at, idx, op)));
    }

    /// Issues session `sid`'s next operation at `now` (closed loops);
    /// `false` once its queue has drained.
    pub(crate) fn issue(&mut self, now: SimTime, sid: usize) -> bool {
        let Some(op) = self.arrivals.next(sid) else {
            return false;
        };
        self.issued += 1;
        self.transmit(now, sid, Flight::new(now, self.issued - 1, op));
        true
    }

    /// Runs until every chain has drained.
    pub(crate) fn run(&mut self) {
        while let Some(((now, ..), mut chain)) = self.queue.pop_first() {
            if chain.stages.is_empty() {
                let flight = chain.flight.take().expect("only a flight waits");
                self.transmit(now, chain.sid, flight);
            } else {
                self.step(now, chain);
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
            self.rig.per_request_ns(self.costs) / 4
        } else {
            self.rig.per_request_ns(self.costs)
        };
        let demands = derive(self.costs, self.rig.transport(), per_request_ns, &obs);
        let (stages, background) = stage_chains(self.costs, &demands);
        for bg in background {
            self.spawn(now, sid, bg, None);
        }
        if !obs.rejected {
            fg.delivered = true;
            fg.payload = payload;
            fg.path = classify_path(&obs);
            self.server_inflight += 1;
        }
        self.spawn(now, sid, stages, Some(fg));
    }

    /// Walks one stage of a chain: occupies the stage's FIFO resource and
    /// reschedules the chain at the completion instant. An exhausted
    /// foreground chain is a reply reaching its client: it refills or
    /// drains the client-wide retry budget, then a rejection backs off and
    /// retransmits if both budgets allow; anything else completes the
    /// request and refills the slot (the closed loops).
    fn step(&mut self, now: SimTime, mut chain: Box<Chain>) {
        let lane = self.arrivals.lane(chain.sid);
        let shared = matches!(self.arrivals, Arrivals::Shared(_));
        if let Some(&stage) = chain.stages.get(chain.cursor) {
            let o = self.hw.serve(now, &stage);
            if o.done > o.begin {
                self.sink.busy(stage.res, o.begin, o.done);
            }
            if let Some(fg) = chain.flight.as_mut() {
                fg.stages.push(obs::StageNs {
                    stage: STAGE_NAMES[stage.res.slot()],
                    queue_ns: o.begin.since(now).as_nanos(),
                    service_ns: o.done.since(o.begin).as_nanos(),
                });
                // A promotion copy chains onto the read that triggered
                // it, starting exactly at `done` (queue 0), so the
                // breakdown still telescopes.
                if let Some(p) = o.promote_done {
                    fg.stages.push(obs::StageNs {
                        stage: "tier-promote",
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
            let key = (o.promote_done.unwrap_or(o.done), lane.unwrap_or(0), chain.order);
            self.queue.insert(key, chain);
            return;
        }
        self.totals.end = self.totals.end.max(now);
        let sid = chain.sid;
        let Some(mut fg) = chain.flight else {
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
                fg.stages.push(obs::StageNs {
                    stage: "client-backoff",
                    queue_ns: 0,
                    service_ns: backoff,
                });
                let at = now + Duration::from_nanos(backoff);
                return self.spawn(at, sid, Vec::new(), Some(fg));
            }
        }
        self.inflight -= 1;
        if fg.delivered {
            self.server_inflight -= 1;
            let late = self.deadline_ns > 0 && latency_ns > self.deadline_ns;
            if !late {
                self.totals.meter.record(fg.payload);
            }
            self.sink.delivered(sid, now, &fg, late);
        } else {
            self.totals.shed += 1;
            self.sink.shed();
        }
        // The shared-queue mode leaves the clock at the last issue's
        // stamp; the event carries its exact interval either way.
        if !shared {
            self.rec.set_now(now.as_nanos());
        }
        if let Some(lane) = lane {
            self.rec.set_lane(lane);
        }
        self.rec.emit(obs::EventKind::Request {
            op: op_label(&fg.op),
            path: fg.path,
            start_ns: fg.start.as_nanos(),
            end_ns: now.as_nanos(),
            stages: fg.stages,
        });
        if lane.is_some() {
            self.rec.set_lane(0);
        }
        self.issue(now, sid);
    }
}

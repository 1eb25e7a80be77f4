//! The interleaved multi-session engine.
//!
//! [`run_sessions`] drives M client sessions against one rig through the
//! per-session arrival process of the timing engine (`crate::engine`).
//! Each session holds exactly one outstanding request (a closed loop per
//! client, as the paper's client-scaling runs); its request, storage and
//! reply stages are the same FIFO chains the single-stream
//! [`crate::runner`] walks, but every event is tagged with the session's
//! lane, so events at the same instant fire in `(time, session, seq)`
//! order. The interleaving is therefore a pure function of the workload
//! — byte-identical at any host thread count and any NCache shard count,
//! which the determinism gates in CI compare directly.
//!
//! NFS sessions each carry their own client on a disjoint xid base, over
//! a link of their own (`crate::rig::Rig::session`): the server's
//! duplicate-request cache is keyed by xid alone, so without per-session
//! bases two clients' requests would alias in the DRC, and on an armed rig
//! each session's fault schedule is its own. [`run_nfs_sessions`] sets
//! this up; the generic entry point takes an optional hook invoked around
//! every functional execution.

use std::collections::VecDeque;
use std::sync::Mutex;

use blockdev::{TierConfig, TierStats};
use netbuf::NetBuf;
use servers::initiator::IoRecord;
use servers::nfs::{fh_to_ino, NfsClient, NfsServer};
use sim::costs::CostModel;
use sim::sync::{LaneLock, LockCounters};
use sim::time::{Duration, SimTime};

pub use crate::openloop::{
    run_open_loop, run_open_loop_at, OpenLoopOptions, OpenLoopResult,
};

use crate::engine::{Arrivals, Walker};
use crate::executor::run_cells;
use crate::nfs_rig::NfsRig;
use crate::rig::{App, NodeLedgers, Session};
use crate::runner::{DriverOp, RigDriver, FRAME_OVERHEAD};
use crate::timing::{Observation, OpMeter, Transport};

/// Called with the rig and the session index immediately before *and*
/// immediately after every functional execution. A swap-based hook (see
/// [`run_nfs_sessions`]) installs per-session client state on the way in
/// and parks it again on the way out.
pub type SessionHook<R> = Box<dyn FnMut(&mut R, usize)>;

/// Multi-session engine configuration. The sessions run on the paper's
/// testbed with one application-server NIC.
#[derive(Clone, Debug, Default)]
pub struct SessionsOptions {
    /// Tiered backend configuration; `None` is the paper's flat RAID-0
    /// array (the exact pre-tier timing path).
    pub tier: Option<TierConfig>,
}

/// Measured outcome of a multi-session run.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionsResult {
    /// Delivered payload, MB/s (decimal).
    pub throughput_mbs: f64,
    /// Operations per second.
    pub ops_per_sec: f64,
    /// Simulated wall-clock of the run.
    pub elapsed: SimTime,
    /// Foreground operations completed across all sessions.
    pub ops: u64,
    /// Payload bytes delivered.
    pub payload_bytes: u64,
    /// 99th-percentile request latency, interpolated within one
    /// sub-bucket ([`obs::HistogramSnapshot::quantile`]).
    pub p99_latency: Duration,
    /// Requests the server's admission gate rejected: a closed-loop
    /// client does not retransmit, so each is shed at once. Zero
    /// whenever control is off.
    pub shed: u64,
    /// Tier counters when the run used a tiered backend.
    pub tier: Option<TierStats>,
}

/// Runs `sessions` (one operation stream per session) against `rig`.
/// Returns the rig (for post-run inspection of caches, ledgers and file
/// contents) alongside the measured result.
///
/// Sessions are primed in session order at time zero; from then on each
/// completion immediately issues the session's next operation, so every
/// session keeps exactly one request outstanding until its stream drains
/// (the per-session arrival process of `crate::engine`). A request the
/// admission gate rejects is shed and still refills its session's slot.
pub fn run_sessions<R: RigDriver + 'static>(
    mut rig: R,
    sessions: Vec<Vec<DriverOp>>,
    opts: &SessionsOptions,
    hook: Option<SessionHook<R>>,
) -> (R, SessionsResult) {
    let n = sessions.len();
    let result = {
        let arrivals = Arrivals::per_session(sessions);
        let mut w = Walker::new(&mut rig, arrivals, (), 1, opts.tier);
        w.hook = hook;
        for sid in 0..n {
            w.issue(SimTime::ZERO, sid);
        }
        w.run();
        let elapsed = w.totals.end;
        let latency = std::mem::take(&mut w.totals.latency).into_snapshot();
        SessionsResult {
            throughput_mbs: w.totals.meter.megabytes_per_sec(elapsed),
            ops_per_sec: w.totals.meter.ops_per_sec(elapsed),
            elapsed,
            ops: w.totals.meter.ops(),
            payload_bytes: w.totals.meter.bytes(),
            p99_latency: Duration::from_nanos(latency.quantile(0.99)),
            shed: w.totals.shed,
            tier: w.hw.array.tier_stats(),
        }
    };
    (rig, result)
}

/// Builds one session per session index — its client on a disjoint xid
/// base, over its own link (`crate::rig::Rig::session`) — and returns a
/// swap hook installing the active session around each operation.
pub fn nfs_session_clients(rig: &NfsRig, sessions: usize) -> SessionHook<NfsRig> {
    let mut sessions: Vec<Session<NfsClient>> = (0..sessions).map(|i| rig.session(i)).collect();
    Box::new(move |rig, sid| rig.swap_session(&mut sessions[sid]))
}

/// [`run_sessions`] for the NFS rig with per-session clients on disjoint
/// xid bases, each over its own link (see [`nfs_session_clients`]).
pub fn run_nfs_sessions(
    rig: NfsRig,
    sessions: Vec<Vec<DriverOp>>,
    opts: &SessionsOptions,
) -> (NfsRig, SessionsResult) {
    let hook = nfs_session_clients(&rig, sessions.len());
    run_sessions(rig, sessions, opts, Some(hook))
}

// ---------------------------------------------------------------------------
// Lane-parallel execution
// ---------------------------------------------------------------------------

/// What one lane's functional pass produced: per-operation observations
/// in program order.
type LaneOutcome = Vec<(Observation, u64)>;

/// What the functional phase cost: the wall clock the benchmarks report.
struct FunctionalPhase {
    /// Wall-clock time of the functional phase alone.
    wall: std::time::Duration,
}

/// The exact (noise-free) lock evidence behind a functional phase's wall
/// clock: the core lock's acquisitions, and the borrows of the NCache
/// module's mutex taken while lanes were running (zero without a module).
type Locks = (LockCounters, u64);

/// Shared handles every lane needs. Everything here is either behind the
/// core lock (`core`) or internally synchronized (ledgers).
struct LaneContext<'a> {
    core: &'a LaneLock<NfsRig>,
    /// The rig's per-node ledgers (handles onto the same counters).
    ledgers: NodeLedgers,
    /// Storage I/O accumulated before the run (file creation, warm-up,
    /// sync). The sequential engine's first functional op drains it with
    /// its own `take_io_log` call and carries it in its burst list; the
    /// parallel engine drains it up front and hands it to lane 0's first
    /// op, so the attribution no longer depends on which lane locks the
    /// core first — and survives that op taking the read fast path,
    /// which never drains the log.
    residue: Vec<IoRecord>,
}

/// Runs the same workload as [`run_nfs_sessions`], executing the session
/// lanes concurrently on up to `threads` host threads, then replays the
/// recorded per-operation observations through the sequential event
/// engine for timing. Also returns the wall-clock time of the functional
/// phase alone (the part that actually runs on `threads` host threads):
/// the timing phase replays through the sequential event engine whatever
/// the thread count, so measuring end-to-end wall clock would bury the
/// parallel speedup under a serial term.
///
/// The run is two-phase:
///
/// 1. **Functional phase** — each lane owns its session's operation
///    stream and session (the one the sequential engine builds) and runs
///    it to completion on a worker thread. The server, filesystem and
///    ledger snapshots sit behind one core lock, held
///    shared by a cache-hit READ (`fast_read_op`) and exclusively by
///    everything else; the server finishes every reply inside it, transmit
///    hook included. Every operation executes inside an epoch
///    window ([`sim::epoch`]): LRU stamps are a pure function of
///    `(op index, lane)` with seeded tie-breaking, so the merged
///    eviction order — and with it every cache observable — is
///    independent of the host schedule and thread count.
/// 2. **Timing phase** — a replay driver feeds the recorded
///    observations through the untouched [`run_sessions`] engine, so
///    timing derivation, resource contention and the returned
///    [`SessionsResult`] are computed by exactly the code the
///    sequential engine uses.
///
/// `seed` derives the epoch tie ranks. On an armed rig each lane's link
/// draws from its session's own plan, derived from the rig's seed and the
/// lane index — the one the sequential engine's session uses — and every
/// op takes the exclusive path, where `crate::rig::Rig::serve_op` runs
/// the whole exchange; so fault outcomes are the oracle's at any thread
/// count. Trace *ordering* from the functional phase is the one relaxed
/// observable; totals, counters and the timing-phase events are not.
///
/// # Panics
///
/// Panics if the rig's server has an overload control plane installed:
/// lanes report no load to the gate (nothing calls `set_load` in the
/// functional phase) and the replay cannot re-issue a retried operation, so admission
/// decisions cannot be made to agree with [`run_nfs_sessions`]. Panics,
/// too, if the rig carries a split controller: lanes never tick it. Run
/// controlled workloads through the sequential engine.
pub fn run_nfs_sessions_parallel_timed(
    rig: NfsRig,
    sessions: Vec<Vec<DriverOp>>,
    opts: &SessionsOptions,
    threads: usize,
    seed: u64,
) -> (NfsRig, SessionsResult, std::time::Duration) {
    let (rig, result, phase) =
        run_nfs_sessions_parallel_observed(rig, sessions, opts, threads, seed);
    (rig, result, phase.wall)
}

/// [`run_nfs_sessions_parallel_timed`], returning what the functional
/// phase cost.
fn run_nfs_sessions_parallel_observed(
    rig: NfsRig,
    sessions: Vec<Vec<DriverOp>>,
    opts: &SessionsOptions,
    threads: usize,
    seed: u64,
) -> (NfsRig, SessionsResult, FunctionalPhase) {
    let rec = NfsRig::recorder(&rig).clone();
    let (rig, outcomes, phase, _) = functional_phase(rig, &sessions, threads, seed);
    let replay = ReplayRig {
        rec,
        lanes: outcomes.into_iter().map(VecDeque::from).collect(),
        current: 0,
    };
    let hook: SessionHook<ReplayRig> = Box::new(|r, sid| r.current = sid);
    let (_, result) = run_sessions(replay, sessions, opts, Some(hook));
    (rig, result, phase)
}

/// Phase one of [`run_nfs_sessions_parallel_timed`]: runs every lane to
/// completion on up to `threads` host threads and moves the stamp clocks
/// past every stamp the lanes drew.
fn functional_phase(
    mut rig: NfsRig,
    sessions: &[Vec<DriverOp>],
    threads: usize,
    seed: u64,
) -> (NfsRig, Vec<LaneOutcome>, FunctionalPhase, Locks) {
    assert!(
        rig.control_stats().is_none(),
        "the lane-parallel engine requires a rig without a control plane: \
         lanes report no load to the gate and the replay cannot re-issue a retried op"
    );
    assert!(
        rig.adaptive_epoch().is_none(),
        "the lane-parallel engine requires a rig without a split controller: \
         lanes never tick it"
    );
    let n = sessions.len();
    let module = rig.module();
    let ledgers = rig.ledgers().clone();
    let ties = sim::epoch::tie_ranks(seed, n);
    let max_epochs = sessions.iter().map(Vec::len).max().unwrap_or(0) as u64;
    let residue = rig.server_mut().fs_mut().store_mut().take_io_log().collect();
    let lanes: Vec<Mutex<LaneState>> = (0..n)
        .map(|lane| Mutex::new(LaneState::new(rig.session(lane), sessions[lane].len())))
        .collect();

    let core = LaneLock::new(rig);
    let cx = LaneContext {
        core: &core,
        ledgers,
        residue,
    };
    let module_borrows = || module.as_ref().map_or(0, sim::Shared::borrows);
    let borrows_before = module_borrows();
    let functional_start = std::time::Instant::now();
    run_cells(threads, n, |lane| {
        let mut st = lanes[lane].lock().expect("lane state poisoned");
        for (k, op) in sessions[lane].iter().enumerate() {
            st.run_op(&cx, lane, ties[lane], k, op);
        }
    });
    let phase = FunctionalPhase {
        wall: functional_start.elapsed(),
    };
    let locks = (core.counters(), module_borrows() - borrows_before);
    let mut rig = core.into_inner();
    let outcomes = lanes
        .into_iter()
        .map(|st| st.into_inner().expect("lane state poisoned").recorded)
        .collect();
    if let Some(m) = &module {
        // Future plain stamps must sort after every windowed stamp of
        // this run, whatever order the lanes actually drew them in.
        m.borrow()
            .advance_clock_past(sim::epoch::stamp_base(max_epochs, 0));
    }
    // The FS buffer cache drew from the window's FS half; its plain
    // counter must clear the same bound.
    rig.server_mut()
        .fs_mut()
        .advance_cache_seq_past(sim::epoch::stamp_base(max_epochs, 0));
    (rig, outcomes, phase, locks)
}

/// A lane's private mutable state: everything an operation updates that
/// no other lane reads, so the hot path shares nothing it does not have
/// to.
struct LaneState {
    session: Session<NfsClient>,
    recorded: LaneOutcome,
}

impl LaneState {
    fn new(session: Session<NfsClient>, ops: usize) -> Self {
        LaneState {
            session,
            recorded: Vec::with_capacity(ops),
        }
    }

    /// Runs the lane's `k`-th operation inside its epoch window.
    fn run_op(&mut self, cx: &LaneContext<'_>, lane: usize, tie: u64, k: usize, op: &DriverOp) {
        // Every cache stamp this operation draws comes from the (epoch,
        // tie) window.
        let window = sim::epoch::enter_window(sim::epoch::stamp_base(k as u64, tie));
        let residue: &[IoRecord] = if lane == 0 && k == 0 { &cx.residue } else { &[] };
        let done = run_lane_op(cx, &mut self.session, op, residue);
        drop(window);
        self.recorded.push(done);
    }
}

/// Executes one operation for a lane, producing the observation the
/// sequential [`RigDriver::run_op`] would, through the same [`OpMeter`]
/// and — off the read fast path — the same op body
/// ([`crate::rig::Rig::serve_op`]), over the lane's session.
fn run_lane_op(
    cx: &LaneContext<'_>,
    session: &mut Session<NfsClient>,
    op: &DriverOp,
    residue: &[IoRecord],
) -> (Observation, u64) {
    // Request building charges only the client ledger (not part of the
    // per-op observation), so it stays outside the lock.
    let (request, payload_hint) = NfsServer::request(&mut session.client, op);
    // One bracket per operation, opened here — ahead of any lock —
    // because a READ's probe already counts when it succeeds (its
    // resolution is the commit point and bumps the NCache tally); a failed
    // probe hands the still-empty bracket back for the exclusive path,
    // which is the only path over a faulty link.
    let meter = OpMeter::open(&cx.ledgers);
    let fast = if session.is_armed() {
        Err(meter)
    } else {
        fast_read_op(cx, meter, &request, op, residue)
    };
    fast.unwrap_or_else(|unused| {
        cx.core
            .write()
            .serve_op(Some(session), unused, op, request, payload_hint, residue)
    })
}

/// The concurrent read fast path: a cache-hit READ served end-to-end
/// under a *shared* core guard, so hits on different lanes overlap on
/// real threads instead of convoying through the exclusive lock.
///
/// Returns the bracket unused — charging and counting nothing — unless
/// `op` is a READ and the server's probe
/// ([`servers::ServerHost::probe_keyed`]: one uncounted walk of the
/// file system, then one all-or-nothing resolution of the placeholders,
/// the commit point) establishes that it is a pure, aligned, fully
/// resident, fully resolvable cache hit; the caller then falls back to
/// the exclusive path with the request untouched. On the fast path the
/// whole exchange, transmit hook included, runs while the guard is held:
/// the guard excludes every mutation, so nothing the probe saw can change
/// before it is counted. (`&self` cannot consult an admission gate, which
/// is one reason the engine refuses a rig that has one.)
fn fast_read_op(
    cx: &LaneContext<'_>,
    meter: OpMeter,
    request: &NetBuf,
    op: &DriverOp,
    residue: &[IoRecord],
) -> Result<(Observation, u64), OpMeter> {
    let DriverOp::Read { fh, offset, len } = op else {
        return Err(meter);
    };
    let rig = cx.core.read();
    let server = rig.server();
    let Some(hit) = server.probe_keyed(fh_to_ino(*fh), u64::from(*offset), *len as usize) else {
        return Err(meter);
    };
    let delivered = servers::stack::deliver(request, &cx.ledgers.app);
    let (reply, substituted) = server.handle_read_fast(delivered, hit);
    drop(rig);
    // A pure hit issues no I/O of its own: only the pre-run residue
    // (lane 0, op 0) can put bursts on a fast read.
    let obs = meter.finish(
        &cx.ledgers,
        request.total_len() as u64 + FRAME_OVERHEAD,
        reply.total_len() as u64 + FRAME_OVERHEAD,
        residue,
        substituted,
        false,
    );
    Ok((obs, reply.payload_len() as u64))
}

/// Phase-two driver: replays the functional phase's per-operation
/// observations through the sequential event engine, so timing
/// derivation, resource contention and the measured [`SessionsResult`]
/// come from exactly the code [`run_nfs_sessions`] uses.
struct ReplayRig {
    rec: obs::Recorder,
    lanes: Vec<VecDeque<(Observation, u64)>>,
    current: usize,
}

impl RigDriver for ReplayRig {
    fn run_op(&mut self, _op: &DriverOp) -> (Observation, u64) {
        self.lanes[self.current]
            .pop_front()
            .expect("replay queue drained: functional and timing phases disagree")
    }

    fn transport(&self) -> Transport {
        NfsServer::TRANSPORT
    }

    fn per_request_ns(&self, costs: &CostModel) -> u64 {
        NfsServer::per_request_ns(costs)
    }

    fn recorder(&self) -> obs::Recorder {
        self.rec.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfs_rig::NfsRigParams;
    use crate::runner::{run, RunOptions};
    use servers::ServerMode;
    use sim::FaultSpec;

    fn session_reads(fh: u64, sid: usize, ops: usize, span: u32, file: u64) -> Vec<DriverOp> {
        (0..ops)
            .map(|k| DriverOp::Read {
                fh,
                offset: (((sid * 7 + k) as u64 * u64::from(span)) % (file - u64::from(span)))
                    as u32
                    / 4096
                    * 4096,
                len: span,
            })
            .collect()
    }

    fn rig_with_file(mode: ServerMode, shards: usize) -> (NfsRig, u64) {
        let params = NfsRigParams {
            shards,
            ..NfsRigParams::default()
        };
        let mut rig = NfsRig::new(mode, params);
        let fh = rig.create_file("shared", 2 << 20);
        (rig, fh)
    }

    #[test]
    fn sixteen_sessions_complete_all_ops() {
        let (rig, fh) = rig_with_file(ServerMode::NCache, 1);
        let sessions: Vec<_> = (0..16)
            .map(|sid| session_reads(fh, sid, 8, 16 << 10, 2 << 20))
            .collect();
        // Count each session's executions through the hook, which runs
        // on the way into and out of every one.
        let counts = std::rc::Rc::new(std::cell::RefCell::new(vec![0u64; 16]));
        let seen = std::rc::Rc::clone(&counts);
        let mut swap = nfs_session_clients(&rig, 16);
        let hook: SessionHook<NfsRig> = Box::new(move |rig, sid| {
            swap(rig, sid);
            seen.borrow_mut()[sid] += 1;
        });
        let (_rig, r) = run_sessions(rig, sessions, &SessionsOptions::default(), Some(hook));
        assert_eq!(r.ops, 16 * 8);
        assert_eq!(*counts.borrow(), vec![2 * 8u64; 16], "eight ops per session");
        assert_eq!(r.payload_bytes, 16 * 8 * (16 << 10));
        assert!(r.throughput_mbs > 0.0);
        assert!(r.elapsed > SimTime::ZERO);
    }

    #[test]
    fn single_session_matches_runner_at_concurrency_one() {
        // One session with one outstanding request is exactly the
        // single-stream runner at concurrency 1: same ops, same payload,
        // same simulated elapsed time.
        let mk_ops = |fh| session_reads(fh, 0, 12, 16 << 10, 2 << 20);
        let (rig_a, fh_a) = rig_with_file(ServerMode::NCache, 1);
        let (_, sessions_result) =
            run_nfs_sessions(rig_a, vec![mk_ops(fh_a)], &SessionsOptions::default());
        let (mut rig_b, fh_b) = rig_with_file(ServerMode::NCache, 1);
        let runner_result = run(
            &mut rig_b,
            mk_ops(fh_b),
            &RunOptions {
                concurrency: 1,
                ..RunOptions::default()
            },
        );
        assert_eq!(sessions_result.ops, runner_result.ops);
        assert_eq!(sessions_result.payload_bytes, runner_result.payload_bytes);
        assert_eq!(sessions_result.elapsed, runner_result.elapsed);
    }

    #[test]
    fn interleaving_is_deterministic_and_shard_invariant() {
        let run_once = |shards: usize| {
            let (rig, fh) = rig_with_file(ServerMode::NCache, shards);
            let sessions: Vec<_> = (0..8)
                .map(|sid| session_reads(fh, sid, 6, 16 << 10, 2 << 20))
                .collect();
            let (rig, r) = run_nfs_sessions(rig, sessions, &SessionsOptions::default());
            let stats = rig.module().expect("ncache rig").borrow().stats();
            (r, stats)
        };
        let (r1a, s1a) = run_once(1);
        let (r1b, s1b) = run_once(1);
        assert_eq!(r1a, r1b, "same run twice must be identical");
        assert_eq!(s1a, s1b);
        let (r8, s8) = run_once(8);
        assert_eq!(r1a, r8, "shard count must not change any observable");
        assert_eq!(s1a, s8, "merged cache stats must be shard-invariant");
    }

    #[test]
    fn sessions_get_disjoint_xid_spans() {
        let (rig, fh) = rig_with_file(ServerMode::Original, 1);
        let sessions: Vec<_> = (0..4)
            .map(|sid| session_reads(fh, sid, 3, 4 << 10, 2 << 20))
            .collect();
        let hook = nfs_session_clients(&rig, 4);
        let (mut rig, r) = run_sessions(rig, sessions, &SessionsOptions::default(), Some(hook));
        assert_eq!(r.ops, 12);
        // The rig's own (parked) client never issued a request, and the
        // server saw no DRC hits: no two sessions aliased an xid.
        let next = rig.client_mut().getattr_request(fh);
        assert_eq!(proto::rpc::RpcCall::decode(next.header()).map(|c| c.xid), Ok(1));
        assert_eq!(rig.server_mut().stats().drc_hits, 0);
    }

    /// Reads the whole file once so every block (and NCache chunk) is
    /// resident: per-op hit/miss outcomes then no longer depend on which
    /// session touches a block first, the discipline under which the
    /// parallel engine is observation-exact against the sequential one.
    fn warm_file(rig: &mut NfsRig, fh: u64, size: u64, span: u32) {
        let mut off = 0u64;
        while off < size {
            let len = span.min((size - off) as u32);
            rig.read(fh, off as u32, len);
            off += u64::from(len);
        }
    }

    #[test]
    fn parallel_engine_matches_sequential_on_warm_reads() {
        for shards in [1usize, 8] {
            let build = || {
                let (mut rig, fh) = rig_with_file(ServerMode::NCache, shards);
                warm_file(&mut rig, fh, 2 << 20, 64 << 10);
                (rig, fh)
            };
            let sessions_for = |fh| -> Vec<Vec<DriverOp>> {
                (0..6)
                    .map(|sid| session_reads(fh, sid, 5, 16 << 10, 2 << 20))
                    .collect()
            };
            let (rig_seq, fh) = build();
            let (rig_seq, seq) =
                run_nfs_sessions(rig_seq, sessions_for(fh), &SessionsOptions::default());
            let (rig_par, fh_par) = build();
            assert_eq!(fh, fh_par);
            let (rig_par, par, _) = run_nfs_sessions_parallel_timed(
                rig_par,
                sessions_for(fh),
                &SessionsOptions::default(),
                4,
                7,
            );
            assert_eq!(seq, par, "timing must be byte-exact (shards={shards})");
            let stats_seq = rig_seq.module().expect("ncache rig").borrow().stats();
            let stats_par = rig_par.module().expect("ncache rig").borrow().stats();
            assert_eq!(stats_seq, stats_par, "merged cache stats (shards={shards})");
            assert_eq!(
                rig_seq.ledgers().app.snapshot(),
                rig_par.ledgers().app.snapshot(),
                "app ledger totals (shards={shards})"
            );
            assert_eq!(
                rig_seq.ledgers().client.snapshot(),
                rig_par.ledgers().client.snapshot(),
                "client ledger totals (shards={shards})"
            );
        }
    }

    #[test]
    fn read_only_lanes_never_take_an_exclusive_lock_or_the_module_mutex() {
        // The exact, noise-free form of "hits scale": on a warm file every
        // READ is served under the shared core guard — not one exclusive
        // acquisition — and finished there by the transmit hook on the
        // host's cache handle, which counts into the shard set's own
        // lane-striped totals: the module's mutex is not taken once while
        // the lanes run, and the totals are exact once they have joined.
        let (mut rig, fh) = rig_with_file(ServerMode::NCache, 8);
        warm_file(&mut rig, fh, 2 << 20, 64 << 10);
        let module = rig.module().expect("ncache rig");
        let substituted_before = module.borrow().substitution_totals().substituted;
        let sessions: Vec<_> = (0..8)
            .map(|sid| session_reads(fh, sid, 12, 8 << 10, 2 << 20))
            .collect();
        let (_rig, outcomes, _, (core, module_borrows)) = functional_phase(rig, &sessions, 2, 3);
        assert_eq!(outcomes.iter().map(Vec::len).sum::<usize>(), 8 * 12);
        assert_eq!(core.writes, 0, "an all-hit run has no exclusive op");
        // One shared acquisition per op.
        assert_eq!(core.reads, 8 * 12);
        assert_eq!(module_borrows, 0, "lanes never touch the module mutex");
        let substituted = module.borrow().substitution_totals().substituted;
        assert_eq!(
            substituted - substituted_before,
            8 * 12 * 2,
            "two 4 KiB placeholders per 8 KiB read, counted in step"
        );
    }

    #[test]
    fn parallel_engine_is_thread_count_invariant() {
        let run_at = |threads: usize| {
            let (mut rig, fh) = rig_with_file(ServerMode::NCache, 2);
            warm_file(&mut rig, fh, 2 << 20, 64 << 10);
            let sessions: Vec<_> = (0..8)
                .map(|sid| session_reads(fh, sid, 6, 16 << 10, 2 << 20))
                .collect();
            let (rig, r, _) = run_nfs_sessions_parallel_timed(
                rig,
                sessions,
                &SessionsOptions::default(),
                threads,
                11,
            );
            let stats = rig.module().expect("ncache rig").borrow().stats();
            (r, stats)
        };
        let (r1, s1) = run_at(1);
        let (r2, s2) = run_at(2);
        let (r8, s8) = run_at(8);
        assert_eq!(r1, r2, "threads=2 must reproduce threads=1");
        assert_eq!(r1, r8, "threads=8 must reproduce threads=1");
        assert_eq!(s1, s2);
        assert_eq!(s1, s8);
    }

    #[test]
    fn faulted_parallel_engine_is_deterministic_per_thread_count() {
        let spec = FaultSpec {
            loss: 0.05,
            ..FaultSpec::default()
        };
        let run_at = |threads: usize| {
            let mut rig =
                NfsRig::new_faulted(ServerMode::NCache, NfsRigParams::default(), &spec, 99);
            let fh = rig.create_file("shared", 1 << 20);
            warm_file(&mut rig, fh, 1 << 20, 64 << 10);
            let sessions: Vec<_> = (0..4)
                .map(|sid| session_reads(fh, sid, 4, 16 << 10, 1 << 20))
                .collect();
            let (mut rig, r, _) =
                run_nfs_sessions_parallel_timed(rig, sessions, &SessionsOptions::default(), threads, 5);
            let retries = rig.fault_counters();
            let requests = rig.server_mut().stats().requests;
            (r, retries, requests)
        };
        let at1 = run_at(1);
        let at2 = run_at(2);
        let at4 = run_at(4);
        assert_eq!(at1, at2, "threads=2 must reproduce the inline run");
        assert_eq!(at1, at4, "threads=4 must reproduce the inline run");
    }

    #[test]
    #[should_panic(expected = "requires a rig without a control plane")]
    fn lanes_refuse_a_rig_with_a_control_plane() {
        // Without the precondition this would disagree with the
        // sequential engine, which sheds 12 of the 16 ops here (`ops 4,
        // shed 12`: one op in flight at a time): lanes never call
        // `set_load`, so the gate would see no load and admit all 16, and
        // the replay cannot re-issue a retried op.
        let (mut rig, fh) = rig_with_file(ServerMode::NCache, 1);
        rig.enable_control(servers::ControlConfig {
            max_inflight: 1,
            ..servers::ControlConfig::unlimited()
        });
        let sessions: Vec<Vec<DriverOp>> = (0..4u32)
            .map(|sid| {
                (0..4u32)
                    .map(|k| match (fh, (sid * 4 + k) * 4096, 4096) {
                        (fh, offset, len) if k % 2 == 0 => DriverOp::Write { fh, offset, len },
                        (fh, offset, len) => DriverOp::Read { fh, offset, len },
                    })
                    .collect()
            })
            .collect();
        run_nfs_sessions_parallel_timed(rig, sessions, &SessionsOptions::default(), 2, 7);
    }

    #[test]
    #[should_panic(expected = "requires a rig without a split controller")]
    fn lanes_refuse_a_rig_with_a_split_controller() {
        // Lanes never tick a controller; the sequential engine ticks it
        // on op-round boundaries, so the two would disagree on every
        // resize.
        let (mut rig, fh) = rig_with_file(ServerMode::NCache, 1);
        rig.enable_adaptive(crate::adaptive::SplitConfig::adaptive());
        let sessions: Vec<_> = (0..2)
            .map(|sid| session_reads(fh, sid, 2, 4 << 10, 2 << 20))
            .collect();
        run_nfs_sessions_parallel_timed(rig, sessions, &SessionsOptions::default(), 2, 7);
    }

    #[test]
    fn every_lane_observation_is_thread_count_invariant() {
        // The whole `(Observation, payload)` list of every lane, all
        // fields, against the 1-thread run. The working set sits in the
        // NCache but not in the FS buffer cache (warmed, then dropped), so
        // every READ misses the probe and takes the exclusive path
        // (`Rig::serve_op`), which fetches its sixteen blocks and
        // substitutes sixteen packets in step — inside this lane's op meter
        // and under the lock, where nothing another lane does can land in
        // its observation. Spans are
        // lane-private and read once, with no read-ahead, no eviction and
        // the file's metadata resident, so nothing else couples the lanes.
        const LANES: u64 = 6;
        const OPS: u64 = 20;
        const LEN: u32 = 64 << 10;
        // One unread block after every span: reading those brings all of
        // the file's metadata back without any lane's data.
        const STRIDE: u64 = LEN as u64 + 4096;
        const FILE: u64 = LANES * OPS * STRIDE;
        let lanes_at = |threads: usize, shards: usize| {
            let params = NfsRigParams {
                read_ahead_blocks: 0,
                shards,
                ..NfsRigParams::default()
            };
            let mut rig = NfsRig::new(ServerMode::NCache, params);
            let fh = rig.create_file("set", FILE);
            warm_file(&mut rig, fh, FILE, 64 << 10);
            rig.quiesce();
            for span in 0..LANES * OPS {
                rig.read(fh, (span * STRIDE) as u32 + LEN, 4096);
            }
            let sessions: Vec<Vec<DriverOp>> = (0..LANES)
                .map(|lane| {
                    (0..OPS)
                        .map(|k| {
                            let offset = ((lane * OPS + k) * STRIDE) as u32;
                            match k % 5 {
                                // Every fifth op writes (20 %) — two
                                // blocks, so the run stays far below the
                                // server-global write-behind threshold,
                                // which lands on whichever lane crosses it
                                // (ROADMAP item 1).
                                4 => DriverOp::Write { fh, offset, len: 8 << 10 },
                                _ => DriverOp::Read { fh, offset, len: LEN },
                            }
                        })
                        .collect()
                })
                .collect();
            let (_, outcomes, _, (core, _)) = functional_phase(rig, &sessions, threads, 0x0B5E);
            assert_eq!(core.writes, LANES * OPS, "every op takes the exclusive slow path");
            outcomes
        };
        for shards in [1usize, 8] {
            let reference = lanes_at(1, shards);
            let spliced: u64 = reference.iter().flatten().map(|(o, _)| o.substituted_pkts).sum();
            assert_eq!(
                spliced,
                LANES * OPS * 4 / 5 * 16,
                "sixteen packets per READ, in step"
            );
            for threads in [2usize, 4] {
                let got = lanes_at(threads, shards);
                assert_eq!(got.len(), reference.len());
                for (lane, (want, got)) in reference.iter().zip(&got).enumerate() {
                    assert_eq!(got.len(), want.len());
                    for (k, (want, got)) in want.iter().zip(got).enumerate() {
                        assert_eq!(want, got, "lane {lane} op {k}, threads={threads}, shards={shards}");
                    }
                }
            }
        }
    }

    /// A [`RigDriver`] recording every `(Observation, payload)` the
    /// sequential engine produces, filed under the session that ran it.
    struct Recording {
        rig: NfsRig,
        current: usize,
        lanes: Vec<Vec<(Observation, u64)>>,
    }

    impl RigDriver for Recording {
        fn run_op(&mut self, op: &DriverOp) -> (Observation, u64) {
            let done = self.rig.run_op(op);
            self.lanes[self.current].push(done.clone());
            done
        }

        fn transport(&self) -> Transport {
            self.rig.transport()
        }

        fn per_request_ns(&self, costs: &CostModel) -> u64 {
            self.rig.per_request_ns(costs)
        }
    }

    #[test]
    fn every_lane_observation_equals_the_sequential_engines() {
        // Op by op, every field: one op body and one in-step transmit hook
        // whichever engine runs the op. Until both engines finished replies
        // in step, a lane's fast READ closed its ledger window before its
        // deferred splice, so it lacked the splice's logical copy and
        // inherited checksum. Each lane reads and writes only its own
        // spans of a warm file, so no op's outcome depends on the order.
        const LANES: usize = 4;
        const OPS: usize = 8;
        const SPAN: u64 = 16 << 10;
        const FILE: u64 = (LANES * OPS) as u64 * SPAN;
        let build = || {
            let (mut rig, fh) = rig_with_file(ServerMode::NCache, 2);
            warm_file(&mut rig, fh, FILE, 64 << 10);
            (rig, fh)
        };
        let sessions = |fh| -> Vec<Vec<DriverOp>> {
            (0..LANES)
                .map(|lane| {
                    (0..OPS)
                        .map(|k| {
                            let offset = ((lane * OPS + k) as u64 * SPAN) as u32;
                            let len = if k == 5 { 8 << 10 } else { SPAN as u32 };
                            match k {
                                5 => DriverOp::Write { fh, offset, len },
                                _ => DriverOp::Read { fh, offset, len },
                            }
                        })
                        .collect()
                })
                .collect()
        };
        let (rig, fh) = build();
        let mut swap = nfs_session_clients(&rig, LANES);
        let hook: SessionHook<Recording> = Box::new(move |r, sid| {
            r.current = sid;
            swap(&mut r.rig, sid);
        });
        let recording = Recording {
            rig,
            current: 0,
            lanes: vec![Vec::new(); LANES],
        };
        let (oracle, _) = run_sessions(recording, sessions(fh), &SessionsOptions::default(), Some(hook));
        for threads in [1usize, 2] {
            let (rig, fh) = build();
            let (_, outcomes, _, (core, _)) = functional_phase(rig, &sessions(fh), threads, 0x5EED);
            assert_eq!(core.writes, LANES as u64, "only the WRITEs are exclusive");
            for (lane, (want, got)) in oracle.lanes.iter().zip(&outcomes).enumerate() {
                assert_eq!(got.len(), want.len());
                for (k, (want, got)) in want.iter().zip(got).enumerate() {
                    assert_eq!(want, got, "lane {lane}, op {k}, threads={threads}");
                }
            }
        }
    }

    #[test]
    fn mechanism_ablations_take_the_shared_path_and_match_the_oracle() {
        // Substitution off, or checksum inheritance off, used to keep every
        // lane op on the exclusive path: the deferred transmit could not
        // reproduce either ablation. With the one in-step hook every warm
        // READ of all three mechanisms-ablation configs is a shared-guard
        // hit, and none takes the module's mutex.
        for (substitution, csum_inherit) in [(true, true), (true, false), (false, true)] {
            let build = || {
                let mut rig = crate::ablations::mechanism_rig(substitution, csum_inherit);
                let fh = rig.create_file("hot", 1 << 20);
                warm_file(&mut rig, fh, 1 << 20, 64 << 10);
                (rig, fh)
            };
            let sessions = |fh| -> Vec<Vec<DriverOp>> {
                (0..4)
                    .map(|sid| session_reads(fh, sid, 8, 16 << 10, 1 << 20))
                    .collect()
            };
            let at = format!("substitution {substitution}, csum_inherit {csum_inherit}");
            let (rig, fh) = build();
            let (_, seq) = run_nfs_sessions(rig, sessions(fh), &SessionsOptions::default());
            let (rig, fh) = build();
            let (_, par, _) =
                run_nfs_sessions_parallel_timed(rig, sessions(fh), &SessionsOptions::default(), 2, 5);
            assert_eq!(seq, par, "{at}");
            let (rig, fh) = build();
            let (_, _, _, (core, module_borrows)) = functional_phase(rig, &sessions(fh), 2, 5);
            assert_eq!(core.writes, 0, "{at}: every READ a shared-guard hit");
            assert_eq!(module_borrows, 0, "{at}: no module mutex");
        }
    }

    #[test]
    fn per_session_span_lanes_reach_the_trace() {
        let (mut rig, fh) = rig_with_file(ServerMode::NCache, 2);
        let rec = obs::Recorder::new();
        rec.enable(obs::TraceConfig::default());
        rig.set_recorder(rec.clone());
        let sessions: Vec<_> = (0..3)
            .map(|sid| session_reads(fh, sid, 2, 8 << 10, 2 << 20))
            .collect();
        let (_rig, r) = run_nfs_sessions(rig, sessions, &SessionsOptions::default());
        assert_eq!(r.ops, 6);
        let lanes: std::collections::BTreeSet<u64> =
            rec.events().iter().map(|e| e.lane).collect();
        for sid in 0..3u64 {
            assert!(lanes.contains(&(sid + 1)), "lane {} missing", sid + 1);
        }
        // Every Request event is tagged with its session's lane.
        let req_lanes: Vec<u64> = rec
            .events()
            .iter()
            .filter(|e| matches!(e.kind, obs::EventKind::Request { .. }))
            .map(|e| e.lane)
            .collect();
        assert_eq!(req_lanes.len(), 6);
        assert!(req_lanes.iter().all(|&l| (1..=3).contains(&l)));
    }
}

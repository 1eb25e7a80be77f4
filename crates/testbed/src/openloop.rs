//! The open-loop overload observatory.
//!
//! The session engines in [`crate::sessions`] are closed loops: each
//! client waits for its reply before issuing again, so offered load can
//! never exceed capacity and queues never grow without bound. This module
//! is the opposite regime: requests arrive at pre-drawn absolute instants
//! ([`workload::arrivals`]) regardless of completions, so pushing the
//! arrival rate past saturation makes the queues — and the tail
//! quantiles — grow for as long as the schedule keeps firing. That is
//! the behaviour the overload sweep plots: goodput flattening at
//! capacity while p99/p999 latency departs from the mean.
//!
//! Timing is the one engine in `crate::engine` — the closed loops' stage
//! chains and FIFO resources, fed by an absolute-schedule arrival process
//! instead of completions; every foreground request accumulates the same
//! per-stage queue/service breakdown ([`obs::StageNs`]), telescoping to
//! its end-to-end latency, and lands in the same [`obs::Recorder`]
//! histograms the latency-attribution report renders. The run is a pure
//! function of `(rig, schedule, options)` — byte-deterministic at any
//! host thread count, because nothing here spawns one.

use sim::time::SimTime;
use sim::SplitMix64;
use workload::arrivals::poisson_arrivals;
use workload::zipf::Zipf;

use crate::engine::{Arrivals, Flight, Res, Sink, Walker, CLIENT_BACKOFF, STAGE_NAMES};
use crate::runner::{DriverOp, RigDriver};

/// Open-loop driver configuration. The run uses the paper's testbed with
/// one application-server NIC.
#[derive(Clone, Debug)]
pub struct OpenLoopOptions {
    /// Mean inter-arrival time of the Poisson schedule, nanoseconds.
    pub mean_interarrival_ns: u64,
    /// Seed for the arrival draw.
    pub seed: u64,
    /// Request deadline in sim-ns (0 = none): a request completing past
    /// its deadline is counted in
    /// [`OpenLoopResult::deadline_exceeded`], its payload excluded from
    /// goodput.
    pub deadline_ns: u64,
    /// Client retry policy for server `RETRY_LATER` rejections (None =
    /// a rejection immediately sheds the request). Budget exhaustion is
    /// a counted client-visible error, never a loop. A policy also arms
    /// the run's one client-wide [`servers::RetryBudget`].
    pub retry: Option<servers::RetryPolicy>,
}

impl Default for OpenLoopOptions {
    fn default() -> Self {
        OpenLoopOptions {
            mean_interarrival_ns: 100_000,
            seed: 1,
            deadline_ns: 0,
            retry: None,
        }
    }
}

/// Measured outcome of an open-loop run.
#[derive(Clone, Debug, PartialEq)]
pub struct OpenLoopResult {
    /// Delivered payload over the full run, MB/s (decimal). Under
    /// overload this flattens at capacity while latency keeps growing.
    pub goodput_mbs: f64,
    /// Foreground operations completed.
    pub ops: u64,
    /// Payload bytes delivered.
    pub payload_bytes: u64,
    /// Most requests simultaneously in flight (arrived, not completed).
    pub peak_inflight: u64, // test-api: the zero-load tests' evidence that no two requests overlap
    /// End-to-end request latency, quantile-queryable.
    pub latency: obs::HistogramSnapshot,
    /// Per-stage queue/service totals over all foreground requests, in
    /// stage order. Their sum equals `latency.sum` exactly.
    pub stages: Vec<obs::StageNs>,
    /// Admitted requests that completed past their deadline: counted
    /// here, not in goodput.
    pub deadline_exceeded: u64,
    /// Requests shed: rejected by the server's admission gate and
    /// abandoned once the retry budget ran out (a counted
    /// client-visible error).
    pub shed: u64,
    /// Total retransmissions across all requests.
    pub retries: u64,
    /// Retransmissions the per-request budget allowed but the client-wide
    /// [`servers::RetryBudget`] withheld; each request withheld is shed
    /// (and counted in `shed`), never transmitted.
    pub retries_withheld: u64, // test-api: evidence that the budget, not luck, kept the server up
    /// Most transmissions any single request made (bounded by
    /// 1 + the retry budget; exactly 1 without a policy).
    pub max_attempts: u64, // test-api: the retry tests' bound of 1 + the per-request budget
}

/// The open-loop completion sink: per-stage totals over every admitted
/// request, deadline accounting and the `openloop.*` recorder counters.
#[derive(Default)]
struct OpenLoopSink {
    rec: obs::Recorder,
    /// Queue and service totals by [`STAGE_NAMES`] slot, `None` for a
    /// stage no delivered request went through.
    stage_totals: [Option<(u64, u64)>; STAGE_NAMES.len()],
    deadline_exceeded: u64,
}

impl Sink for OpenLoopSink {
    fn delivered(&mut self, _now: SimTime, flight: &Flight, late: bool) {
        if late {
            self.deadline_exceeded += 1;
            self.rec.add_counter("openloop.deadline_exceeded", 1);
        }
        for st in &flight.stages {
            let t = self.stage_totals[st.slot].get_or_insert((0, 0));
            t.0 += st.queue_ns;
            t.1 += st.service_ns;
        }
    }

    fn shed(&mut self) {
        self.rec.add_counter("openloop.shed", 1);
    }
}

/// Runs `ops` open-loop against `rig`, arrival `k` firing at
/// `schedule[k]` whatever has completed by then (the schedule arrival
/// process of `crate::engine`; the array stays flat — tiering is a
/// closed-loop ablation concern). The schedule must be as long as `ops`
/// but need not be sorted, as the Poisson draws from
/// [`workload::arrivals`] are: arrivals fire in time order, those at one
/// instant in index order, and `k` keys arrival `k`'s retry backoff
/// stream wherever it fires.
///
/// # Panics
///
/// Panics if `schedule` and `ops` differ in length.
pub fn run_open_loop_at<R: RigDriver + 'static>(
    mut rig: R,
    ops: Vec<DriverOp>,
    schedule: &[SimTime],
    opts: &OpenLoopOptions,
) -> (R, OpenLoopResult) {
    assert_eq!(schedule.len(), ops.len(), "one arrival instant per op");
    let mut arrivals: Vec<(SimTime, u64, DriverOp)> = schedule
        .iter()
        .zip(ops)
        .enumerate()
        .map(|(k, (&at, op))| (at, k as u64, op))
        .collect();
    // Stable: arrivals at one instant keep their index order.
    arrivals.sort_by_key(|&(at, ..)| at);
    let result = {
        let sink = OpenLoopSink {
            rec: rig.recorder(),
            ..OpenLoopSink::default()
        };
        let mut w = Walker::new(&mut rig, Arrivals::Schedule, sink, 1, None);
        w.retry = opts.retry.map(|p| (p, servers::RetryBudget::default()));
        w.deadline_ns = opts.deadline_ns;
        w.schedule_arrivals(arrivals);
        w.run();
        let elapsed = w.totals.end;
        // The resource stages in report order, then the backoff (the array
        // is flat, so no request has a promotion stage).
        let totals = &w.sink.stage_totals;
        let stages = (0..Res::COUNT)
            .chain([CLIENT_BACKOFF])
            .filter_map(|slot| {
                totals[slot].map(|(queue_ns, service_ns)| obs::StageNs {
                    stage: STAGE_NAMES[slot],
                    queue_ns,
                    service_ns,
                })
            })
            .collect();
        OpenLoopResult {
            goodput_mbs: w.totals.meter.megabytes_per_sec(elapsed),
            ops: w.totals.meter.ops(),
            payload_bytes: w.totals.meter.bytes(),
            peak_inflight: w.totals.peak_inflight,
            latency: w.totals.latency.snapshot(),
            stages,
            deadline_exceeded: w.sink.deadline_exceeded,
            shed: w.totals.shed,
            retries: w.totals.retries,
            retries_withheld: w.totals.withheld,
            max_attempts: w.totals.max_attempts,
        }
    };
    (rig, result)
}

/// [`run_open_loop_at`] over a seeded Poisson schedule drawn from the
/// options (see [`workload::arrivals::poisson_arrivals`]).
pub fn run_open_loop<R: RigDriver + 'static>(
    rig: R,
    ops: Vec<DriverOp>,
    opts: &OpenLoopOptions,
) -> (R, OpenLoopResult) {
    let schedule = poisson_arrivals(opts.seed, ops.len(), opts.mean_interarrival_ns);
    run_open_loop_at(rig, ops, &schedule, opts)
}

/// Zipf-popular aligned reads over the first `file_bytes` of `fh`:
/// rank 0 (the hottest span) is the file's first `span` bytes. The
/// overload sweep's operation stream.
pub fn zipf_reads(seed: u64, fh: u64, n: usize, file_bytes: u64, span: u32, alpha: f64) -> Vec<DriverOp> {
    let ranks = (file_bytes / u64::from(span)).max(1) as usize;
    let z = Zipf::new(ranks, alpha);
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| DriverOp::Read {
            fh,
            offset: (z.sample(&mut rng) as u64 * u64::from(span)) as u32,
            len: span,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfs_rig::{NfsRig, NfsRigParams};
    use servers::ServerMode;

    fn warm_rig(size: u64) -> (NfsRig, u64) {
        let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
        let fh = rig.create_file("hot", size);
        let mut off = 0u64;
        while off < size {
            rig.read(fh, off as u32, 16 << 10);
            off += 16 << 10;
        }
        // Drop the warm-up's accumulated storage backlog so it does not
        // ride the first measured request's burst chain.
        let _ = rig.server_mut().fs_mut().store_mut().take_io_log();
        (rig, fh)
    }

    fn traced(rig: NfsRig) -> (NfsRig, obs::Recorder) {
        let rec = obs::Recorder::new();
        rec.enable(obs::TraceConfig::default());
        let mut rig = rig;
        rig.set_recorder(rec.clone());
        (rig, rec)
    }

    #[test]
    fn widely_spaced_arrivals_see_zero_queue_time() {
        // Cache-hit reads take well under a millisecond of total service;
        // arrivals 10 ms apart can never overlap, so every stage of every
        // request starts the instant it arrives.
        let (rig, fh) = warm_rig(1 << 20);
        let (rig, rec) = traced(rig);
        let ops = zipf_reads(5, fh, 32, 1 << 20, 16 << 10, 1.0);
        let schedule: Vec<SimTime> = (0..32)
            .map(|k| SimTime::from_nanos((k + 1) * 10_000_000))
            .collect();
        let (_rig, r) = run_open_loop_at(rig, ops, &schedule, &OpenLoopOptions::default());
        assert_eq!(r.ops, 32);
        assert_eq!(r.peak_inflight, 1);
        for st in &r.stages {
            assert_eq!(st.queue_ns, 0, "stage {} queued under zero load", st.stage);
        }
        for ev in rec.events().iter() {
            if let obs::EventKind::Request { stages, .. } = &ev.kind {
                assert!(stages.iter().all(|s| s.queue_ns == 0));
            }
        }
    }

    #[test]
    fn stage_sums_telescope_to_latency() {
        let (rig, fh) = warm_rig(1 << 20);
        let (rig, rec) = traced(rig);
        let ops = zipf_reads(9, fh, 64, 1 << 20, 16 << 10, 1.0);
        let opts = OpenLoopOptions {
            mean_interarrival_ns: 30_000, // dense enough to queue
            seed: 11,
            ..OpenLoopOptions::default()
        };
        let (_rig, r) = run_open_loop(rig, ops, &opts);
        assert_eq!(r.ops, 64);
        let mut total = 0u64;
        for ev in rec.events().iter() {
            if let obs::EventKind::Request {
                start_ns,
                end_ns,
                stages,
                ..
            } = &ev.kind
            {
                let sum: u64 = stages.iter().map(|s| s.queue_ns + s.service_ns).sum();
                assert_eq!(sum, end_ns - start_ns, "stage sum must reconcile");
                total += sum;
            }
        }
        assert_eq!(total, r.latency.sum, "histogram sum matches the events");
        let stage_total: u64 = r.stages.iter().map(|s| s.queue_ns + s.service_ns).sum();
        assert_eq!(stage_total, r.latency.sum, "per-stage totals reconcile");
    }

    #[test]
    fn overload_grows_queues_and_tails() {
        let build = || {
            let (rig, fh) = warm_rig(1 << 20);
            (rig, zipf_reads(3, fh, 256, 1 << 20, 16 << 10, 1.0))
        };
        let run_at = |mean_ns: u64| {
            let (rig, ops) = build();
            let opts = OpenLoopOptions {
                mean_interarrival_ns: mean_ns,
                seed: 21,
                ..OpenLoopOptions::default()
            };
            let (_rig, r) = run_open_loop(rig, ops, &opts);
            r
        };
        let light = run_at(2_000_000);
        let heavy = run_at(20_000);
        assert_eq!(light.ops, 256);
        assert_eq!(heavy.ops, 256, "open loop completes every request");
        assert!(heavy.peak_inflight > light.peak_inflight);
        assert!(heavy.latency.quantile(0.99) > light.latency.quantile(0.99));
        // Queue time dominates under overload; it is absent unloaded.
        let queued: u64 = heavy.stages.iter().map(|s| s.queue_ns).sum();
        assert!(queued > 0);
    }

    #[test]
    fn transmissions_are_bounded_by_one_plus_budget() {
        let (mut rig, fh) = warm_rig(1 << 20);
        rig.enable_control(servers::ControlConfig {
            max_inflight: 4,
            queue_hi: 3,
            queue_lo: 2,
            ..servers::ControlConfig::protective()
        });
        let policy = servers::RetryPolicy::standard(41);
        let ops = zipf_reads(19, fh, 256, 1 << 20, 16 << 10, 1.0);
        let opts = OpenLoopOptions {
            mean_interarrival_ns: 10_000, // far past capacity: the gate trips
            seed: 23,
            retry: Some(policy),
            ..OpenLoopOptions::default()
        };
        let (rig, r) = run_open_loop(rig, ops, &opts);
        let stats = rig.control_stats().expect("control installed");
        assert!(stats.rejected > 0, "overload must trip the gate");
        assert!(r.retries > 0, "rejections must drive retransmissions");
        assert!(r.max_attempts >= 2);
        assert!(
            r.max_attempts <= 1 + u64::from(policy.budget),
            "no request transmits more than 1 + budget times (got {})",
            r.max_attempts
        );
        assert!(r.shed > 0, "budget exhaustion is a counted shed");
        // Every arrival completes exactly once: on time, late, or shed
        // (no deadline here, so nothing is late).
        assert_eq!(r.ops + r.deadline_exceeded + r.shed, 256);
        assert_eq!(r.deadline_exceeded, 0);
        // Transmissions reconcile against the gate's ledger: the server
        // saw one initial send per arrival plus every retransmission.
        assert_eq!(stats.offered, 256 + r.retries);
        assert_eq!(stats.offered, stats.admitted + stats.rejected);
    }

    #[test]
    fn cheap_requests_past_capacity_still_complete() {
        // Half 4 KiB hit READs, half GETATTRs: a rejection costs about a
        // third of serving one of these, so a client that retransmits
        // every rejection twice spends more server CPU on rejections
        // than serving would take, and at 1.5x capacity almost nothing
        // completes. The client-wide retry budget caps that.
        const FILE: u64 = 1 << 20;
        let (rig, fh) = warm_rig(FILE);
        let mut rng = SplitMix64::new(3);
        let mut cheap = |n: usize| -> Vec<DriverOp> {
            (0..n)
                .map(|_| match rng.next_u64() % 2 {
                    0 => DriverOp::Read {
                        fh,
                        offset: (rng.next_u64() % (FILE / 4096) * 4096) as u32,
                        len: 4096,
                    },
                    _ => DriverOp::Getattr { fh },
                })
                .collect()
        };
        let probe = (0..64).map(|_| cheap(32)).collect();
        let (mut rig, cap) = crate::sessions::run_nfs_sessions(rig, probe, &Default::default());
        rig.enable_control(servers::ControlConfig::protective());
        let n = 4_000u64;
        let opts = OpenLoopOptions {
            mean_interarrival_ns: (1e9 / (1.5 * cap.ops_per_sec)).round() as u64,
            seed: 29,
            retry: Some(servers::RetryPolicy::standard(31)),
            ..OpenLoopOptions::default()
        };
        let (rig, r) = run_open_loop(rig, cheap(n as usize), &opts);
        assert_eq!(r.ops + r.shed, n, "every arrival completes or is shed");
        assert!(
            r.ops * 100 >= n * 40,
            "{} of {n} arrivals completed at 1.5x capacity",
            r.ops
        );
        assert!(r.retries_withheld > 0, "the budget, not luck, kept the server up");
        let stats = rig.control_stats().expect("control installed");
        assert_eq!(stats.offered, n + r.retries, "withheld retries are never sent");
    }

    #[test]
    fn disengaged_control_plane_is_unobservable() {
        let run = |controlled: bool| {
            let (mut rig, fh) = warm_rig(1 << 20);
            let mut opts = OpenLoopOptions {
                mean_interarrival_ns: 40_000, // dense enough to queue
                seed: 29,
                ..OpenLoopOptions::default()
            };
            if controlled {
                // Installed but fully open: every bound off, watermarks
                // above the scale. A client with a retry policy and a
                // generous deadline behaves identically when nothing is
                // ever rejected or late.
                rig.enable_control(servers::ControlConfig::unlimited());
                opts.retry = Some(servers::RetryPolicy::standard(7));
                opts.deadline_ns = u64::MAX;
            }
            let ops = zipf_reads(31, fh, 128, 1 << 20, 16 << 10, 1.0);
            let (rig, r) = run_open_loop(rig, ops, &opts);
            (rig, r)
        };
        let (_, off) = run(false);
        let (rig, on) = run(true);
        assert_eq!(off, on, "a gate that admits everything must be invisible");
        let stats = rig.control_stats().expect("control installed");
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.admitted, 128);
        assert_eq!(on.retries, 0);
        assert_eq!(on.shed, 0);
        assert_eq!(on.deadline_exceeded, 0);
    }

    #[test]
    fn an_unsorted_schedule_runs_as_its_stable_sort() {
        // Arrivals fire in time order whatever order the schedule lists
        // them in; those at one instant (every instant here is taken
        // twice) fire in list order.
        let (rig, fh) = warm_rig(1 << 20);
        let ops = zipf_reads(7, fh, 64, 1 << 20, 16 << 10, 1.0);
        let mut rng = SplitMix64::new(41);
        let mut arrivals: Vec<(SimTime, DriverOp)> = ops
            .into_iter()
            .enumerate()
            .map(|(k, op)| (SimTime::from_nanos(k as u64 / 2 * 25_000), op))
            .collect();
        for k in (1..arrivals.len()).rev() {
            arrivals.swap(k, (rng.next_u64() % (k as u64 + 1)) as usize);
        }
        let split = |arrivals: Vec<(SimTime, DriverOp)>| -> (Vec<SimTime>, Vec<DriverOp>) {
            arrivals.into_iter().unzip()
        };
        let mut sorted = arrivals.clone();
        sorted.sort_by_key(|&(at, _)| at);
        assert_ne!(sorted, arrivals, "the shuffle moved something");
        let (schedule, ops) = split(arrivals);
        let (_, shuffled) = run_open_loop_at(rig, ops, &schedule, &OpenLoopOptions::default());
        let (rig, _) = warm_rig(1 << 20);
        let (schedule, ops) = split(sorted);
        let (_, in_order) = run_open_loop_at(rig, ops, &schedule, &OpenLoopOptions::default());
        assert_eq!(shuffled, in_order);
        assert_eq!(in_order.ops, 64);
    }

    #[test]
    fn runs_are_deterministic() {
        let once = || {
            let (rig, fh) = warm_rig(1 << 20);
            let ops = zipf_reads(13, fh, 96, 1 << 20, 16 << 10, 0.8);
            let opts = OpenLoopOptions {
                mean_interarrival_ns: 60_000,
                seed: 17,
                ..OpenLoopOptions::default()
            };
            let (_rig, r) = run_open_loop(rig, ops, &opts);
            r
        };
        let a = once();
        let b = once();
        assert_eq!(a, b, "same inputs, byte-identical outcome");
    }
}

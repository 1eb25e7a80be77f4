//! Latency-attribution invariants under arbitrary open-loop schedules.
//!
//! The attribution contract is exact, not statistical: for *every* seeded
//! Poisson arrival schedule, every request's per-stage breakdown
//! must telescope to its end-to-end latency in integer nanoseconds, the
//! quantile ladder read off the latency histogram must be monotone in p,
//! and a histogram re-assembled from the per-request events by shard
//! `absorb` must snapshot identically to the engine's own. A second
//! property pins the zero-load boundary: arrivals spaced far beyond the
//! service time can never observe a nonzero queue component.

use check::gen::*;
use check::{prop_assert, prop_assert_eq, property};

use servers::ServerMode;
use sim::SimTime;
use testbed::nfs_rig::{NfsRig, NfsRigParams};
use testbed::openloop::{run_open_loop, run_open_loop_at, zipf_reads, OpenLoopOptions};

const FILE: u64 = 1 << 20;
const SPAN: u32 = 16 << 10;

/// A warmed NCache rig whose hot file is fully resident, with the
/// warm-up's storage backlog drained so it cannot ride the first
/// measured request.
fn warm_rig() -> (NfsRig, u64) {
    let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
    let fh = rig.create_file("hot", FILE);
    let mut off = 0u64;
    while off < FILE {
        rig.read(fh, off as u32, SPAN);
        off += u64::from(SPAN);
    }
    let _ = rig.server_mut().fs_mut().store_mut().take_io_log();
    (rig, fh)
}

fn traced(mut rig: NfsRig) -> (NfsRig, obs::Recorder) {
    let rec = obs::Recorder::new();
    rec.enable(obs::TraceConfig::default());
    rig.set_recorder(rec.clone());
    (rig, rec)
}

property! {
    #![cases(12)]

    /// Arbitrary seeded open-loop schedules — any arrival rate from idle
    /// to far past saturation, any popularity skew — keep the attribution
    /// exact.
    fn prop_stage_sums_and_quantiles_hold_for_any_schedule(
        seed in ints(0u64..1_000_000),
        mean_ns in ints(20_000u64..200_000),
        n in ints(8u64..48),
        alpha_tenths in ints(6u64..15),
    ) {
        let (rig, fh) = warm_rig();
        let (rig, rec) = traced(rig);
        let ops = zipf_reads(
            seed,
            fh,
            n as usize,
            FILE,
            SPAN,
            alpha_tenths as f64 / 10.0,
        );
        let opts = OpenLoopOptions {
            mean_interarrival_ns: mean_ns,
            seed: seed.wrapping_add(1),
            ..OpenLoopOptions::default()
        };
        let (_rig, r) = run_open_loop(rig, ops, &opts);
        prop_assert_eq!(r.ops, n, "every scheduled request completes");

        // Exactness: each request's stages telescope to its latency, and
        // a histogram rebuilt from the events via absorb() snapshots
        // byte-identically to the engine's own.
        let mut shard_a = obs::Histogram::new();
        let mut shard_b = obs::Histogram::new();
        let mut requests = 0u64;
        for (i, ev) in rec.events().iter().enumerate() {
            if let obs::EventKind::Request { start_ns, end_ns, stages, .. } = &ev.kind {
                prop_assert!(end_ns >= start_ns, "request must end after it starts");
                let sum: u64 = stages.iter().map(|s| s.queue_ns + s.service_ns).sum();
                prop_assert_eq!(
                    sum,
                    end_ns - start_ns,
                    "stage sum must equal end-to-end latency exactly"
                );
                if i % 2 == 0 {
                    shard_a.record(sum);
                } else {
                    shard_b.record(sum);
                }
                requests += 1;
            }
        }
        prop_assert_eq!(requests, n, "one Request event per arrival");
        shard_a.absorb(&shard_b);
        prop_assert_eq!(
            shard_a.snapshot(),
            r.latency,
            "sharded absorb must reproduce the engine's histogram"
        );

        // The quantile ladder is monotone in p and pinned at the ends.
        prop_assert_eq!(r.latency.quantile(0.0), r.latency.min);
        prop_assert_eq!(r.latency.quantile(1.0), r.latency.max);
        let mut prev = 0u64;
        for q in 0..=100 {
            let v = r.latency.quantile(q as f64 / 100.0);
            prop_assert!(v >= prev, "quantile ladder must be monotone");
            prop_assert!(
                (r.latency.min..=r.latency.max).contains(&v),
                "quantiles stay inside [min, max]"
            );
            prev = v;
        }
    }

    /// Overload robustness: under arbitrary seeded schedules against an
    /// armed admission gate, the retry budget strictly bounds total
    /// transmissions per request (≤ 1 + budget), every arrival completes
    /// exactly once (on time, late, or shed), and the client's
    /// transmission count reconciles against the gate's own ledger.
    fn prop_retry_budget_bounds_transmissions(
        seed in ints(0u64..1_000_000),
        mean_ns in ints(10_000u64..80_000),
        n in ints(24u64..96),
        budget in ints(0u64..4),
        max_inflight in ints(2u64..8),
        deadline_on in any_bool(),
        deadline_us in ints(500u64..5_000),
    ) {
        let (mut rig, fh) = warm_rig();
        rig.enable_control(servers::ControlConfig {
            max_inflight,
            queue_hi: max_inflight,
            queue_lo: max_inflight / 2,
            ..servers::ControlConfig::protective()
        });
        let policy = servers::RetryPolicy {
            budget: budget as u32,
            ..servers::RetryPolicy::standard(seed.wrapping_add(2))
        };
        let ops = zipf_reads(seed, fh, n as usize, FILE, SPAN, 1.0);
        let opts = OpenLoopOptions {
            mean_interarrival_ns: mean_ns,
            seed: seed.wrapping_add(1),
            deadline_ns: if deadline_on { deadline_us * 1_000 } else { 0 },
            retry: Some(policy),
        };
        let (rig, r) = run_open_loop(rig, ops, &opts);
        prop_assert!(
            r.max_attempts <= 1 + budget,
            "transmissions per request bounded by 1 + budget"
        );
        prop_assert!(r.max_attempts >= 1, "at least the initial send");
        prop_assert_eq!(
            r.ops + r.deadline_exceeded + r.shed,
            n,
            "every arrival completes exactly once"
        );
        let stats = rig.control_stats().expect("control installed");
        prop_assert_eq!(
            stats.offered,
            n + r.retries,
            "gate sees one initial send per arrival plus every retransmission"
        );
        prop_assert_eq!(stats.offered, stats.admitted + stats.rejected);
        if budget == 0 {
            prop_assert_eq!(r.retries, 0, "no budget, no retransmissions");
        }
    }

    /// The client-wide retry budget bounds retransmissions by what the
    /// client has seen: a fixed burst (the bucket above its threshold)
    /// plus a tenth of a retransmission per admitted reply, however hard
    /// the schedule overloads the gate and however generous the
    /// per-request budget. A withheld retransmission is never sent, so
    /// the gate's ledger still reconciles.
    fn prop_client_retry_budget_bounds_retransmissions(
        seed in ints(0u64..1_000_000),
        mean_ns in ints(2_000u64..20_000),
        n in ints(128u64..384),
        budget in ints(1u64..6),
        max_inflight in ints(1u64..4),
    ) {
        use servers::RetryBudget as B;
        let (mut rig, fh) = warm_rig();
        rig.enable_control(servers::ControlConfig {
            max_inflight,
            queue_hi: 0,
            ..servers::ControlConfig::protective()
        });
        let opts = OpenLoopOptions {
            mean_interarrival_ns: mean_ns,
            seed: seed.wrapping_add(1),
            retry: Some(servers::RetryPolicy {
                budget: budget as u32,
                ..servers::RetryPolicy::standard(seed.wrapping_add(2))
            }),
            ..OpenLoopOptions::default()
        };
        let ops = zipf_reads(seed, fh, n as usize, FILE, SPAN, 1.0);
        let (rig, r) = run_open_loop(rig, ops, &opts);
        let admitted = r.ops + r.deadline_exceeded;
        prop_assert!(
            r.retries * u64::from(B::COST_TENTHS)
                <= u64::from(B::CAPACITY_TENTHS - B::THRESHOLD_TENTHS)
                    + u64::from(B::REFILL_TENTHS) * admitted,
            "{} retransmissions against {} admitted replies",
            r.retries,
            admitted
        );
        prop_assert_eq!(r.ops + r.deadline_exceeded + r.shed, n);
        let stats = rig.control_stats().expect("control installed");
        prop_assert_eq!(stats.offered, n + r.retries, "withheld retries are never sent");
        prop_assert_eq!(stats.admitted, admitted);
    }

    /// Control plane off ⇒ unobservable: a gate configured to admit
    /// everything, plus an armed retry policy and a deadline too generous
    /// to trip, reproduces the control-free run byte for byte — the whole
    /// `OpenLoopResult`, not just the headline numbers.
    fn prop_zero_rejection_config_is_unobservable(
        seed in ints(0u64..1_000_000),
        mean_ns in ints(20_000u64..200_000),
        n in ints(8u64..48),
    ) {
        let run = |controlled: bool| {
            let (mut rig, fh) = warm_rig();
            let mut opts = OpenLoopOptions {
                mean_interarrival_ns: mean_ns,
                seed: seed.wrapping_add(1),
                ..OpenLoopOptions::default()
            };
            if controlled {
                rig.enable_control(servers::ControlConfig::unlimited());
                opts.retry = Some(servers::RetryPolicy::standard(seed));
                opts.deadline_ns = u64::MAX;
            }
            let ops = zipf_reads(seed, fh, n as usize, FILE, SPAN, 1.0);
            run_open_loop(rig, ops, &opts)
        };
        let (_, off) = run(false);
        let (rig, on) = run(true);
        prop_assert_eq!(off, on, "zero-rejection control must be invisible");
        let stats = rig.control_stats().expect("control installed");
        prop_assert_eq!(stats.rejected, 0);
        prop_assert_eq!(stats.admitted, n);
    }

    /// Zero-load boundary: arrivals spaced far beyond any cache-hit
    /// service time can never overlap, so the queue component of every
    /// stage of every request is exactly zero.
    fn prop_zero_load_has_zero_queue_time(
        seed in ints(0u64..1_000_000),
        gap_ms in ints(5u64..20),
        n in ints(4u64..24),
    ) {
        let (rig, fh) = warm_rig();
        let (rig, rec) = traced(rig);
        let ops = zipf_reads(seed, fh, n as usize, FILE, SPAN, 1.0);
        let schedule: Vec<SimTime> = (0..n)
            .map(|k| SimTime::from_nanos((k + 1) * gap_ms * 1_000_000))
            .collect();
        let (_rig, r) = run_open_loop_at(rig, ops, &schedule, &OpenLoopOptions::default());
        prop_assert_eq!(r.ops, n);
        prop_assert_eq!(r.peak_inflight, 1, "requests never overlap");
        for st in &r.stages {
            prop_assert_eq!(st.queue_ns, 0, "zero load ⇒ zero queueing");
        }
        for ev in rec.events().iter() {
            if let obs::EventKind::Request { stages, .. } = &ev.kind {
                prop_assert!(
                    stages.iter().all(|s| s.queue_ns == 0),
                    "per-request stages queue-free under zero load"
                );
            }
        }
    }
}

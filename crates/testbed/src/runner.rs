//! The closed-loop experiment runner.
//!
//! Replays an operation stream against a rig with a configurable number of
//! outstanding requests (the paper tunes "the number of NFS server
//! daemons", §5.4) over the simulated hardware: per-node CPUs, full-duplex
//! Gigabit links (1 or 2 NICs on the application server — the Figure 5
//! lever), and the RAID-0 IDE array. Each operation executes *functionally*
//! on the data plane at issue time; its measured operation counts become
//! FIFO service demands, and throughput/utilization emerge from whichever
//! resource saturates.

use sim::costs::CostModel;
use sim::time::{Duration, SimTime};

use crate::engine::{Arrivals, Flight, Sink, Walker};
use crate::timing::{Observation, Transport};

/// One operation the runner can replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DriverOp {
    /// NFS READ.
    Read {
        /// File handle.
        fh: u64,
        /// Byte offset.
        offset: u32,
        /// Bytes requested.
        len: u32,
    },
    /// NFS WRITE (the runner fabricates payload bytes).
    Write {
        /// File handle.
        fh: u64,
        /// Byte offset.
        offset: u32,
        /// Bytes written.
        len: u32,
    },
    /// NFS GETATTR.
    Getattr {
        /// File handle.
        fh: u64,
    },
    /// NFS LOOKUP in the export root.
    Lookup {
        /// Name to resolve.
        name: String,
    },
    /// HTTP GET.
    Get {
        /// Page path.
        path: String,
    },
}

/// A rig the runner can drive.
pub trait RigDriver {
    /// Executes `op` on the data plane and returns the full observation
    /// (ledger deltas, cache ops, coalesced storage I/O) plus the payload
    /// moved.
    fn run_op(&mut self, op: &DriverOp) -> (Observation, u64);

    /// Client-leg transport.
    fn transport(&self) -> Transport;

    /// Fixed per-request CPU cost for this server type.
    fn per_request_ns(&self, costs: &CostModel) -> u64;

    /// The rig's recorder. The runner stamps simulated time into it
    /// before each functional execution and mirrors request / resource
    /// timing as exactly-timed events. The default is a detached,
    /// disabled recorder: every emission is a no-op.
    fn recorder(&self) -> obs::Recorder {
        obs::Recorder::new()
    }

    /// Reports the timing layer's load to the server ahead of a
    /// functional execution: the request's sim arrival instant and the
    /// number of requests currently in flight. The overload control
    /// plane decides admission from the in-flight depth (the instant is
    /// unread); rigs without one ignore the call (the default).
    fn set_load(&mut self, _now_ns: u64, _inflight: u64) {}

    /// Adaptive-split epoch length in *operations*, or `None` when no
    /// split controller is installed (the default). When `Some(L)`, the
    /// engines call [`RigDriver::adaptive_tick`] after every `L`
    /// functional executions — a deterministic op-count boundary, never
    /// mid-request. The lane-parallel engine refuses a rig with a
    /// controller.
    fn adaptive_epoch(&self) -> Option<u64> {
        None
    }

    /// One controller tick: sample the epoch's ghost/hit window and apply
    /// any quota move. Default: nothing (no controller).
    fn adaptive_tick(&mut self) {} // dup-ok: the trait's no-controller default
}

/// The span label the runner files an operation under.
pub(crate) fn op_label(op: &DriverOp) -> &'static str {
    match op {
        DriverOp::Read { .. } => "read",
        DriverOp::Write { .. } => "write",
        DriverOp::Getattr { .. } => "getattr",
        DriverOp::Lookup { .. } => "lookup",
        DriverOp::Get { .. } => "get",
    }
}

/// Framing overhead of one message, added once to its wire bytes: 42 =
/// Ethernet 14 + IPv4 20 + UDP 8. kHTTPd's TCP messages are charged the
/// same 42, 12 bytes under Ethernet + IPv4 + TCP's 54. No framing header
/// is built; each transport's per-packet CPU is `sim::costs`'s.
pub(crate) const FRAME_OVERHEAD: u64 = 42;

/// Runner configuration.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Outstanding requests (NFS daemon count / concurrent connections).
    pub concurrency: usize,
    /// NICs on the application server (Figure 5: 1 = link-bound,
    /// 2 = CPU-bound).
    pub nics: usize,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            concurrency: 8,
            nics: 1,
        }
    }
}

/// Measured outcome of a run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Delivered payload, MB/s (decimal), as the paper's throughput plots.
    pub throughput_mbs: f64,
    /// Operations per second (the SPECsfs metric).
    pub ops_per_sec: f64,
    /// Application-server CPU utilization in `[0, 1]`.
    pub app_cpu_util: f64,
    /// Storage-server CPU utilization.
    pub storage_cpu_util: f64,
    /// Application-server transmit-link utilization.
    pub app_tx_util: f64, // test-api: the NIC test's evidence that one link saturates
    /// Simulated wall-clock of the run.
    pub elapsed: SimTime,
    /// Operations completed.
    pub ops: u64,
    /// Payload bytes delivered.
    pub payload_bytes: u64,
    /// Mean request latency.
    pub mean_latency: Duration, // test-api: lifecycle's Little's-law bound
    /// Per-interval throughput samples over the run (≤ 32 buckets;
    /// empty when no foreground operation completed).
    pub timeline: Vec<TimelineSample>, // test-api: the runner's tests' evidence that it buckets every op
}

/// One interval of a run's completion-driven timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimelineSample {
    /// Interval end, simulated nanoseconds.
    pub t_ns: u64,
    /// Payload throughput over the interval, MB/s (decimal).
    pub throughput_mbs: f64,
    /// Foreground operations completed in the interval.
    pub ops: u64,
}

/// Buckets raw completion samples `(t_ns, payload_bytes)` into at most
/// 32 equal-width intervals spanning `[0, elapsed_ns]`.
fn build_timeline(samples: &[(u64, u64)], elapsed_ns: u64) -> Vec<TimelineSample> {
    if samples.is_empty() || elapsed_ns == 0 {
        return Vec::new();
    }
    let buckets = samples.len().min(32);
    let width = elapsed_ns.div_ceil(buckets as u64).max(1);
    let mut out: Vec<TimelineSample> = (0..buckets as u64)
        .map(|i| TimelineSample {
            t_ns: (width * (i + 1)).min(elapsed_ns),
            throughput_mbs: 0.0,
            ops: 0,
        })
        .collect();
    let mut bytes = vec![0u64; buckets];
    for &(t, payload) in samples {
        let idx = (t.saturating_sub(1) / width).min(buckets as u64 - 1) as usize;
        bytes[idx] += payload;
        out[idx].ops += 1;
    }
    for (i, s) in out.iter_mut().enumerate() {
        let start = width * i as u64;
        let w = s.t_ns.saturating_sub(start).max(1);
        // bytes/ns → decimal MB/s is a factor of 1e3.
        s.throughput_mbs = bytes[i] as f64 * 1e3 / w as f64;
    }
    out
}

/// The shared-queue completion sink: the raw completion samples
/// `(t_ns, payload)` the timeline is bucketed from.
#[derive(Default)]
struct RunSink {
    samples: Vec<(u64, u64)>,
}

impl Sink for RunSink {
    fn delivered(&mut self, now: SimTime, flight: &Flight, _late: bool) {
        self.samples.push((now.as_nanos(), flight.payload));
    }
}

/// Runs `ops` against `rig` under `opts`: a closed loop of
/// `opts.concurrency` outstanding requests over one shared queue (see
/// `crate::engine`). Operations execute functionally in issue order;
/// timing is an exact FIFO simulation. A request the rig's admission
/// gate rejects is shed: it frees its slot but stays out of `ops`,
/// `payload_bytes` and the latency figures.
pub fn run<R: RigDriver>(
    rig: &mut R,
    ops: impl IntoIterator<Item = DriverOp>,
    opts: &RunOptions,
) -> RunResult {
    let rec = rig.recorder();
    let mut ops = ops.into_iter();
    let arrivals = Arrivals::Shared(&mut ops);
    let sink = RunSink::default();
    let mut w = Walker::new(rig, arrivals, sink, opts.nics, None);
    // Prime the closed loop.
    for _ in 0..opts.concurrency.max(1) {
        if !w.issue(SimTime::ZERO, 0) {
            break;
        }
    }
    w.run();

    let elapsed = w.totals.end;
    let latency = std::mem::take(&mut w.totals.latency).into_snapshot();
    let timeline = build_timeline(&w.sink.samples, elapsed.as_nanos());
    for s in &timeline {
        rec.set_now(s.t_ns);
        rec.emit(obs::EventKind::Gauge {
            name: "throughput_mbs",
            value: s.throughput_mbs,
        });
    }
    RunResult {
        throughput_mbs: w.totals.meter.megabytes_per_sec(elapsed),
        ops_per_sec: w.totals.meter.ops_per_sec(elapsed),
        app_cpu_util: w.hw.app_cpu.utilization(elapsed),
        storage_cpu_util: w.hw.stor_cpu.utilization(elapsed),
        app_tx_util: w.hw.app_tx.utilization(elapsed),
        elapsed,
        ops: w.totals.meter.ops(),
        payload_bytes: w.totals.meter.bytes(),
        mean_latency: Duration::from_nanos(latency.mean()),
        timeline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfs_rig::{NfsRig, NfsRigParams};
    use servers::ServerMode;

    fn seq_reads(fh: u64, total: u64, req: u32) -> Vec<DriverOp> {
        (0..total / u64::from(req))
            .map(|i| DriverOp::Read {
                fh,
                offset: (i * u64::from(req)) as u32,
                len: req,
            })
            .collect()
    }

    #[test]
    fn closed_loop_produces_throughput_and_utilization() {
        let mut rig = NfsRig::new(ServerMode::Original, NfsRigParams::default());
        let fh = rig.create_sparse_file("big", 4 << 20);
        let ops = seq_reads(fh, 4 << 20, 32 << 10);
        let r = run(&mut rig, ops, &RunOptions::default());
        assert_eq!(r.ops, 128);
        assert_eq!(r.payload_bytes, 4 << 20);
        assert!(r.throughput_mbs > 1.0, "throughput = {}", r.throughput_mbs);
        assert!(r.app_cpu_util > 0.0 && r.app_cpu_util <= 1.0);
        assert!(r.storage_cpu_util > 0.0, "all-miss load reaches storage");
        assert!(r.elapsed > SimTime::ZERO);
    }

    #[test]
    fn ncache_all_hit_beats_original() {
        // Warm both rigs with one pass, then measure a hot pass: the
        // NCache build must be faster (fewer copies on the read path).
        let mut results = Vec::new();
        for mode in [ServerMode::Original, ServerMode::NCache] {
            let mut rig = NfsRig::new(mode, NfsRigParams::default());
            let fh = rig.create_file("hot", 1 << 20);
            // Functional warmup (not timed).
            for op in seq_reads(fh, 1 << 20, 32 << 10) {
                rig.run_op(&op);
            }
            let opts = RunOptions {
                nics: 2,
                ..RunOptions::default()
            };
            let r = run(&mut rig, seq_reads(fh, 1 << 20, 32 << 10), &opts);
            assert!(
                r.storage_cpu_util < 0.01,
                "{mode}: all-hit must not touch storage (util {})",
                r.storage_cpu_util
            );
            results.push(r.throughput_mbs);
        }
        assert!(
            results[1] > results[0] * 1.3,
            "NCache {} vs original {}",
            results[1],
            results[0]
        );
    }

    #[test]
    fn two_nics_relieve_the_link() {
        let make = || {
            let mut rig = NfsRig::new(ServerMode::Baseline, NfsRigParams::default());
            let fh = rig.create_file("hot", 1 << 20);
            for op in seq_reads(fh, 1 << 20, 32 << 10) {
                rig.run_op(&op);
            }
            (rig, fh)
        };
        let (mut rig1, fh1) = make();
        let one = run(
            &mut rig1,
            seq_reads(fh1, 1 << 20, 32 << 10),
            &RunOptions {
                nics: 1,
                ..RunOptions::default()
            },
        );
        let (mut rig2, fh2) = make();
        let two = run(
            &mut rig2,
            seq_reads(fh2, 1 << 20, 32 << 10),
            &RunOptions {
                nics: 2,
                ..RunOptions::default()
            },
        );
        // The zero-copy baseline is link-bound on one NIC; a second NIC
        // must raise throughput substantially.
        assert!(
            two.throughput_mbs > one.throughput_mbs * 1.4,
            "1 NIC {} vs 2 NICs {}",
            one.throughput_mbs,
            two.throughput_mbs
        );
        assert!(one.app_tx_util > 0.9, "link saturated: {}", one.app_tx_util);
    }

    #[test]
    fn recorder_captures_requests_resources_and_timeline() {
        let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
        let rec = obs::Recorder::new();
        rec.enable(obs::TraceConfig::default());
        rig.set_recorder(rec.clone());
        let fh = rig.create_sparse_file("f", 1 << 20);
        let r = run(
            &mut rig,
            seq_reads(fh, 1 << 20, 32 << 10),
            &RunOptions::default(),
        );
        assert_eq!(r.ops, 32);
        // Every completed request produced an exactly-timed Request event.
        assert_eq!(rec.counter("requests.read"), 0, "runner labels go via spans");
        let reqs = rec
            .events()
            .iter()
            .filter(|e| matches!(e.kind, obs::EventKind::Request { .. }))
            .count() as u64;
        assert_eq!(reqs, r.ops);
        // The server opened (and closed) one span per request.
        assert_eq!(rec.spans_opened(), r.ops);
        assert!(rec.spans_balanced());
        // Resources reported busy intervals in simulated time.
        assert!(rec.counter("resource.app-cpu.busy_ns") > 0);
        assert!(rec.counter("resource.app-tx.busy_ns") > 0);
        // The timeline covers the run and sums to the op count.
        assert!(!r.timeline.is_empty() && r.timeline.len() <= 32);
        assert_eq!(r.timeline.iter().map(|s| s.ops).sum::<u64>(), r.ops);
        assert_eq!(r.timeline.last().unwrap().t_ns, r.elapsed.as_nanos());
    }

    #[test]
    fn stage_breakdowns_reconcile_exactly() {
        let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
        let rec = obs::Recorder::new();
        rec.enable(obs::TraceConfig::default());
        rig.set_recorder(rec.clone());
        let fh = rig.create_sparse_file("f", 1 << 20);
        // Mixed hits and misses: read the file twice.
        let mut ops = seq_reads(fh, 1 << 20, 32 << 10);
        ops.extend(seq_reads(fh, 1 << 20, 32 << 10));
        let r = run(&mut rig, ops, &RunOptions::default());
        assert_eq!(r.ops, 64);
        let mut paths = std::collections::BTreeSet::new();
        let mut checked = 0;
        for ev in rec.events() {
            if let obs::EventKind::Request {
                path,
                start_ns,
                end_ns,
                stages,
                ..
            } = ev.kind
            {
                assert!(!stages.is_empty());
                let sum: u64 = stages.iter().map(|s| s.queue_ns + s.service_ns).sum();
                assert_eq!(sum, end_ns - start_ns, "stages must sum to latency");
                paths.insert(path);
                checked += 1;
            }
        }
        assert_eq!(checked, r.ops);
        assert!(paths.contains("disk"), "first pass misses");
        assert!(
            paths.contains("hit") || paths.contains("substitution"),
            "second pass hits: {paths:?}"
        );
        // The aggregate histograms reconcile too: per-stage sums account
        // for every end-to-end nanosecond.
        let hists = rec.histograms();
        let total = hists["request.latency_ns"].sum;
        let staged: u64 = hists
            .iter()
            .filter(|(k, _)| k.starts_with("stage."))
            .map(|(_, h)| h.sum)
            .sum();
        assert_eq!(staged, total);
    }

    #[test]
    fn tracing_does_not_perturb_results() {
        let measure = |trace: bool| {
            let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
            if trace {
                let rec = obs::Recorder::new();
                rec.enable(obs::TraceConfig::default());
                rig.set_recorder(rec);
            }
            let fh = rig.create_sparse_file("f", 1 << 20);
            run(
                &mut rig,
                seq_reads(fh, 1 << 20, 16 << 10),
                &RunOptions::default(),
            )
        };
        let plain = measure(false);
        let traced = measure(true);
        assert_eq!(plain.elapsed, traced.elapsed);
        assert_eq!(plain.payload_bytes, traced.payload_bytes);
        assert!((plain.throughput_mbs - traced.throughput_mbs).abs() < 1e-12);
    }

    #[test]
    fn the_gate_sees_the_closed_loops_depth_and_rejections_are_shed() {
        let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
        let fh = rig.create_file("hot", 1 << 20);
        for op in seq_reads(fh, 1 << 20, 16 << 10) {
            rig.run_op(&op);
        }
        rig.enable_control(servers::ControlConfig {
            max_inflight: 4,
            queue_hi: 3,
            queue_lo: 2,
            ..servers::ControlConfig::protective()
        });
        // Sixteen outstanding requests against an admission bound of four:
        // the gate must see the real depth, and what it turns away must
        // not be booked as completed work.
        let opts = RunOptions {
            concurrency: 16,
            ..RunOptions::default()
        };
        let r = run(&mut rig, seq_reads(fh, 1 << 20, 16 << 10), &opts);
        let stats = rig.control_stats().expect("control installed");
        assert_eq!(stats.offered, 64, "every op is offered exactly once (no retry policy)");
        assert!(stats.rejected > 0, "a depth of 16 must trip a bound of 4");
        assert_eq!(r.ops, stats.admitted, "rejected requests stay out of ops");
        assert_eq!(r.payload_bytes, stats.admitted * (16 << 10));
        assert_eq!(r.timeline.iter().map(|s| s.ops).sum::<u64>(), r.ops);
    }

    #[test]
    fn empty_op_stream() {
        let mut rig = NfsRig::new(ServerMode::Original, NfsRigParams::default());
        let r = run(&mut rig, Vec::new(), &RunOptions::default());
        assert_eq!(r.ops, 0);
        assert_eq!(r.throughput_mbs, 0.0);
    }

    #[test]
    fn deterministic_runs() {
        let make = || {
            let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
            let fh = rig.create_sparse_file("f", 2 << 20);
            run(
                &mut rig,
                seq_reads(fh, 2 << 20, 16 << 10),
                &RunOptions::default(),
            )
        };
        let a = make();
        let b = make();
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.payload_bytes, b.payload_bytes);
        assert!((a.throughput_mbs - b.throughput_mbs).abs() < 1e-12);
    }
}

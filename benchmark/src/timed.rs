//! The untraced run: the only source of end-to-end numbers.
//!
//! Each repetition builds and warms a fresh rig, then runs the whole op
//! stream between two clock reads — no per-request timers. Timed metrics
//! are the median over the repetitions; exact counts repeat identically
//! across repetitions (the run is deterministic) and are reported once.

use std::time::Instant;

use crate::alloc::AllocCount;
use crate::report::{Metric, RunResult};
use crate::seams::{Bench, Counters, Mode, Observer, RunOutcome, Unobserved};
use crate::verify::{check_counts, Corrupt};
use crate::workloads::{self, scaled, Spec, Stream, SIM_REPLAY_OPS, SIM_REPLAY_SESSIONS};

/// Run shape: how much of the reference load, how many repetitions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Shape {
    /// Request counts are the reference counts times this.
    pub scale: f64,
    pub repetitions: usize,
}

/// One timed repetition's raw measurements.
pub struct Repetition {
    /// Rig build + file creation + warm pass.
    pub setup_s: f64,
    pub timed_s: f64,
    pub outcome: RunOutcome,
    pub allocs: AllocCount,
    pub counters: Counters,
}

impl Repetition {
    pub fn ns_per_req(&self) -> f64 {
        self.timed_s * 1e9 / self.outcome.attempted as f64
    }

    pub fn allocs_per_req(&self) -> f64 {
        self.allocs.calls as f64 / self.outcome.attempted as f64
    }
}

/// One repetition of `spec` in `mode` over `stream`: fresh rig, warm
/// pass, then one clock read around the whole stream. `observe` makes
/// the run's observer from the warmed rig before the clock starts. Also
/// returns the observer and the rig as the run left it; drop the rig
/// before the next repetition, or its memory rides along.
pub fn repetition<W: Observer>(
    spec: &Spec,
    mode: Mode,
    stream: &Stream,
    observe: impl FnOnce(&mut Bench) -> W,
    clock_engines: bool,
) -> (Repetition, W, Bench) {
    let t = Instant::now();
    let mut bench = Bench::setup(spec, mode, stream);
    let setup_s = t.elapsed().as_secs_f64();
    let mut watch = observe(&mut bench);
    let c0 = bench.counters();
    let a0 = AllocCount::now();
    let t = Instant::now();
    let (mut bench, outcome) = bench.run(spec, stream, &mut watch, clock_engines);
    let timed_s = t.elapsed().as_secs_f64();
    let allocs = AllocCount::now().since(a0);
    let counters = bench.counters().since(&c0);
    let rep = Repetition {
        setup_s,
        timed_s,
        outcome,
        allocs,
        counters,
    };
    (rep, watch, bench)
}

/// An untraced repetition.
pub fn untraced(spec: &Spec, mode: Mode, stream: &Stream) -> Repetition {
    repetition(spec, mode, stream, |_| Unobserved, false).0
}

/// Folds a repetition's verification into `result`.
pub fn account(
    result: &mut RunResult,
    label: &str,
    rep: &Repetition,
    offered: u64,
    corrupt: Option<Corrupt>,
) {
    result.attempted += rep.outcome.attempted;
    result.failed += rep.outcome.failed;
    for note in &rep.outcome.notes {
        result.notes.push(format!("{label}: {note}"));
    }
    for note in check_counts(&rep.outcome, offered, &rep.counters, corrupt) {
        result.failed += 1;
        result.notes.push(format!("{label}: {note}"));
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The paper's number for the stream: its first ops replayed, untimed,
/// through the sequential sim-time session engine on a fresh rig.
pub fn sim_replay(spec: &Spec, stream: &Stream, scale: f64) -> crate::seams::SimNumbers {
    let n = scaled(SIM_REPLAY_OPS, scale, 64) as usize;
    Bench::setup(spec, Mode::NCache, stream).sim_replay(&stream.sessions(n, SIM_REPLAY_SESSIONS))
}

/// The end-to-end metrics of `spec` for `seed`.
pub fn run(spec: &Spec, seed: u64, shape: Shape, corrupt: Option<Corrupt>) -> RunResult {
    let mut result = RunResult::default();
    let offered = spec.offered_requests(shape.scale);
    let mut setup_s = Vec::new();
    let mut reps = Vec::new();
    for i in 0..shape.repetitions {
        // Op generation is part of set-up: work moved there must show.
        let t = Instant::now();
        let stream = workloads::generate(spec, seed, shape.scale);
        let gen_s = t.elapsed().as_secs_f64();
        let rep = untraced(spec, Mode::NCache, &stream);
        account(
            &mut result,
            &format!("repetition {i}"),
            &rep,
            offered,
            corrupt,
        );
        setup_s.push(gen_s + rep.setup_s);
        reps.push(rep);
    }
    let stream = workloads::generate(spec, seed, shape.scale);
    let sim = sim_replay(spec, &stream, shape.scale);

    let first = &reps[0];
    let offered = offered as f64;
    result.metrics = vec![
        Metric::median_of("setup_s", setup_s, "s"),
        Metric::median_of(
            "req_per_s",
            reps.iter().map(|r| offered / r.timed_s).collect(),
            "1/s",
        ),
        Metric::new("sim_ops_per_s", sim.ops_per_sec, "1/s"),
        Metric::median_of(
            "allocs_per_req",
            reps.iter().map(Repetition::allocs_per_req).collect(),
            "count",
        ),
        Metric::new(
            "app_copied_bytes_per_req",
            crate::seams::moved_bytes(&first.counters.app) as f64 / offered,
            "bytes",
        ),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
        Metric::new(
            "completed_req_share",
            1.0 - (first.outcome.shed + first.outcome.failed) as f64 / offered,
            "ratio",
        ),
    ];
    result
}

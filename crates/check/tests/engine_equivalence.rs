//! One timing engine, three arrival processes: where the traffic shapes
//! coincide, so must every number.
//!
//! A single client with one outstanding request is the same traffic
//! whichever entry point drives it: the shared-queue closed loop at
//! concurrency 1, the per-session closed loop with one session, and — as
//! long as no request is still in the system when the next arrives — the
//! open loop on a schedule spaced wider than the slowest request. For
//! arbitrary read/write/getattr streams the three must therefore report
//! the same per-request stage breakdowns (names and integer nanoseconds),
//! the same per-request latency and the same payload. The only field
//! allowed to differ is the absolute start instant: a closed loop issues
//! back to back, the open loop on its schedule.

use check::gen::*;
use check::{prop_assert, prop_assert_eq, property};

use servers::ServerMode;
use sim::SimTime;
use testbed::nfs_rig::{NfsRig, NfsRigParams};
use testbed::openloop::{run_open_loop_at, OpenLoopOptions};
use testbed::runner::{run, DriverOp, RunOptions};
use testbed::sessions::{run_nfs_sessions, SessionsOptions};

const FILE: u64 = 1 << 20;
/// One second between open-loop arrivals: no request here (cold misses
/// and write-behind flushes included) stays in the system a tenth as long.
const SPACING_NS: u64 = 1_000_000_000;

#[derive(Clone, Debug)]
enum Op {
    Read { block: u64, blocks: u32 },
    Write { block: u64, blocks: u32 },
    Getattr,
}

fn op() -> impl Gen<Value = Op> {
    check::one_of![
        (ints(0u64..FILE / 4096 - 8), ints(1u32..9)).map(|(block, blocks)| Op::Read { block, blocks }),
        (ints(0u64..FILE / 4096 - 8), ints(1u32..9)).map(|(block, blocks)| Op::Write { block, blocks }),
        just(Op::Getattr),
    ]
}

/// A traced rig with a half-warm file, so streams mix hits and misses;
/// the file's own creation flush rides the first request as background
/// write-behind chains.
fn rig(mode: ServerMode) -> (NfsRig, u64, obs::Recorder) {
    let mut rig = NfsRig::new(mode, NfsRigParams::default());
    let fh = rig.create_file("f", FILE);
    for off in (0..FILE / 2).step_by(64 << 10) {
        rig.read(fh, off as u32, 64 << 10);
    }
    let rec = obs::Recorder::new();
    rec.enable(obs::TraceConfig::default());
    rig.set_recorder(rec.clone());
    (rig, fh, rec)
}

fn driver_ops(fh: u64, ops: &[Op]) -> Vec<DriverOp> {
    ops.iter()
        .map(|op| match *op {
            Op::Read { block, blocks } => DriverOp::Read {
                fh,
                offset: (block * 4096) as u32,
                len: blocks * 4096,
            },
            Op::Write { block, blocks } => DriverOp::Write {
                fh,
                offset: (block * 4096) as u32,
                len: blocks * 4096,
            },
            Op::Getattr => DriverOp::Getattr { fh },
        })
        .collect()
}

/// Per-request `(op, path, latency, stages)` in completion order.
type Requests = Vec<(&'static str, &'static str, u64, Vec<obs::StageNs>)>;

fn requests(rec: &obs::Recorder) -> Requests {
    rec.events()
        .into_iter()
        .filter_map(|ev| match ev.kind {
            obs::EventKind::Request {
                op,
                path,
                start_ns,
                end_ns,
                stages,
            } => Some((op, path, end_ns - start_ns, stages)),
            _ => None,
        })
        .collect()
}

property! {
    #![cases(24)]

    fn prop_one_client_is_the_same_traffic_under_every_arrival_process(
        ops in vec_of(op(), 1..40),
        mode in check::one_of![
            just(ServerMode::Original),
            just(ServerMode::NCache),
            just(ServerMode::Baseline),
        ],
    ) {
        let (mut shared_rig, fh, shared_rec) = rig(mode);
        let shared = run(
            &mut shared_rig,
            driver_ops(fh, &ops),
            &RunOptions { concurrency: 1, ..RunOptions::default() },
        );

        let (session_rig, fh, session_rec) = rig(mode);
        let (_, session) =
            run_nfs_sessions(session_rig, vec![driver_ops(fh, &ops)], &SessionsOptions::default());

        let (open_rig, fh, open_rec) = rig(mode);
        let schedule: Vec<SimTime> = (1..=ops.len() as u64)
            .map(|k| SimTime::from_nanos(k * SPACING_NS))
            .collect();
        let (_, open) =
            run_open_loop_at(open_rig, driver_ops(fh, &ops), &schedule, &OpenLoopOptions::default());

        let n = ops.len() as u64;
        prop_assert_eq!((shared.ops, session.ops, open.ops), (n, n, n));
        prop_assert_eq!(shared.payload_bytes, session.payload_bytes);
        prop_assert_eq!(shared.payload_bytes, open.payload_bytes);
        prop_assert_eq!(shared.elapsed, session.elapsed);
        prop_assert_eq!(open.peak_inflight, 1);

        let reference = requests(&shared_rec);
        prop_assert_eq!(reference.len() as u64, n);
        prop_assert_eq!(&reference, &requests(&session_rec));
        prop_assert_eq!(&reference, &requests(&open_rec));
        let latency: u64 = reference.iter().map(|r| r.2).sum();
        prop_assert_eq!(open.latency.sum, latency);
        prop_assert!(reference
            .iter()
            .all(|r| r.2 == r.3.iter().map(|s| s.queue_ns + s.service_ns).sum::<u64>()));
    }
}

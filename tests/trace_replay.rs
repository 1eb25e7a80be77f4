//! Replaying synthetic traces through the full rig — the Active Trace
//! Player path the paper uses to drive its micro-benchmarks (§5.3).

use ncache_repro::servers::ServerMode;
use ncache_repro::testbed::nfs_rig::{NfsRig, NfsRigParams};
use ncache_repro::testbed::runner::{run, DriverOp, RunOptions};
use ncache_repro::workload::micro::SeqRead;
use ncache_repro::workload::trace::{parse_trace, write_trace, TracePlayer};
use ncache_repro::workload::{FileId, NfsOp};

fn to_driver(op: NfsOp, fh: u64) -> DriverOp {
    match op {
        NfsOp::Read { offset, len, .. } => DriverOp::Read {
            fh,
            offset: offset as u32,
            len,
        },
        NfsOp::Write { offset, len, .. } => DriverOp::Write {
            fh,
            offset: offset as u32,
            len,
        },
        NfsOp::Getattr { .. } => DriverOp::Getattr { fh },
        NfsOp::Lookup { .. } => DriverOp::Lookup {
            name: "traced".to_string(),
        },
    }
}

#[test]
fn synthetic_trace_round_trips_and_replays() {
    // Generate a synthetic sequential trace, serialize it, parse it back,
    // replay it through the rig, and check the results are identical to
    // running the generator directly.
    let ops: Vec<NfsOp> = SeqRead::new(FileId(0), 256 << 10, 16 << 10).collect();
    let text = write_trace(&ops);
    let parsed = parse_trace(&text).expect("valid trace");
    assert_eq!(parsed, ops);

    let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
    let fh = rig.create_file("traced", 256 << 10);
    let player = TracePlayer::new(parsed);
    let driver_ops: Vec<DriverOp> = player.map(|op| to_driver(op, fh)).collect();
    let result = run(&mut rig, driver_ops, &RunOptions::default());
    assert_eq!(result.ops, 16);
    assert_eq!(result.payload_bytes, 256 << 10);
    assert!(result.throughput_mbs > 0.0);
}

#[test]
fn trace_with_mixed_ops_executes_correctly() {
    let text = "\
# mixed synthetic trace
G 0
R 0 0 8192
W 0 8192 4096
R 0 8192 4096
L 0
";
    let player = TracePlayer::from_text(text).expect("valid trace");
    assert_eq!(player.clone().count(), 5);

    let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
    let fh = rig.create_file("traced", 64 << 10);
    for op in player {
        match to_driver(op, fh) {
            DriverOp::Read { offset, len, .. } => {
                let data = rig.read(fh, offset, len);
                assert_eq!(data.len(), len as usize);
            }
            DriverOp::Write { offset, .. } => {
                let reply = rig.write(fh, offset, &vec![0x11u8; 4096]);
                assert_eq!(reply.status, ncache_repro::proto::nfs::NFS_OK);
            }
            DriverOp::Getattr { .. } => {
                assert_eq!(rig.getattr(fh), ncache_repro::proto::nfs::NFS_OK);
            }
            DriverOp::Lookup { .. } => {
                assert_eq!(rig.lookup("traced"), Some(fh));
            }
            DriverOp::Get { .. } => unreachable!(),
        }
    }
    // The write is visible afterwards.
    assert_eq!(rig.read(fh, 8192, 4096), vec![0x11u8; 4096]);
}

#[test]
fn runs_are_deterministic_across_replays() {
    let make = || {
        let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
        let fh = rig.create_sparse_file("det", 1 << 20);
        let ops: Vec<DriverOp> = SeqRead::new(FileId(0), 1 << 20, 8 << 10)
            .map(|op| to_driver(op, fh))
            .collect();
        run(&mut rig, ops, &RunOptions::default())
    };
    let a = make();
    let b = make();
    assert_eq!(a.elapsed, b.elapsed, "bit-identical simulated time");
    assert_eq!(a.payload_bytes, b.payload_bytes);
    assert_eq!(a.ops, b.ops);
    assert!((a.app_cpu_util - b.app_cpu_util).abs() < 1e-15);
}

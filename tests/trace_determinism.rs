//! Trace-layer invariants: the unified tracing layer must be (1) byte
//! deterministic — same seed, same experiment → byte-identical exported
//! traces — (2) structurally sound — every span closes, substitution
//! events appear only under the NCache build — and (3) exact: the copy
//! events in a trace reconcile, byte for byte, with the CopyAccounting
//! ledger the data plane charges.

use ncache_repro::netbuf::LedgerSnapshot;
use ncache_repro::obs::{
    export_chrome_trace, export_jsonl, validate_chrome_trace, validate_jsonl, EventKind,
    Recorder, TraceConfig,
};
use ncache_repro::servers::ServerMode;
use ncache_repro::testbed::experiments::{self, Exp, Scale};
use ncache_repro::testbed::nfs_rig::{NfsRig, NfsRigParams};
use ncache_repro::testbed::runner::{run, DriverOp, RunOptions};

fn scale() -> Scale {
    Scale {
        allmiss_file: 2 << 20,
        allhit_file: 1 << 20,
        allhit_passes: 1,
        specweb_working_sets: vec![4 << 20],
        web_cache_bytes: 6 << 20,
        specweb_requests: 60,
        specsfs_ops: 100,
        specsfs_files: 8,
        specsfs_file_size: 64 << 10,
        overload_requests: 96,
    }
}

fn traced_fig4() -> (String, String) {
    let rec = Recorder::new();
    rec.enable(TraceConfig::default());
    let scale = scale();
    experiments::fig4(&Exp {
        rec: Some(&rec),
        ..Exp::new(&scale)
    });
    let events = rec.events();
    assert_eq!(rec.dropped(), 0, "ring buffer must not drop at this scale");
    (export_chrome_trace(&events), export_jsonl(&events))
}

#[test]
fn fig4_traces_are_byte_identical_across_runs() {
    let (chrome_a, jsonl_a) = traced_fig4();
    let (chrome_b, jsonl_b) = traced_fig4();
    assert_eq!(chrome_a, chrome_b, "Chrome traces diverged between runs");
    assert_eq!(jsonl_a, jsonl_b, "JSONL streams diverged between runs");
    assert!(validate_chrome_trace(&chrome_a).expect("valid Chrome trace") > 0);
    assert!(validate_jsonl(&jsonl_a).expect("valid JSONL stream") > 0);
}

#[test]
fn spans_balance_and_substitutions_only_under_ncache() {
    for mode in ServerMode::ALL {
        let rec = Recorder::new();
        rec.enable(TraceConfig::default());
        let mut rig = NfsRig::new(mode, NfsRigParams::default());
        rig.set_recorder(rec.clone());
        let fh = rig.create_file("f", 256 << 10);
        let ops: Vec<DriverOp> = (0..8)
            .map(|i| DriverOp::Read {
                fh,
                offset: i * (32 << 10),
                len: 32 << 10,
            })
            .collect();
        run(&mut rig, ops, &RunOptions::default());

        assert!(rec.spans_opened() > 0, "{mode}: requests must open spans");
        assert!(rec.spans_balanced(), "{mode}: every span must close");
        let substitutions = rec
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Substitution { .. }))
            .count();
        if mode == ServerMode::NCache {
            assert!(substitutions > 0, "ncache reads must substitute");
            assert_eq!(rec.counter("ncache.substitution_missing"), 0);
        } else {
            assert_eq!(
                substitutions, 0,
                "{mode}: substitution events are NCache-only"
            );
        }
    }
}

#[test]
fn copy_events_reconcile_with_the_ledger_for_table2_flows() {
    let rec = Recorder::new();
    // The recorder must see every copy: unsampled spans still aggregate
    // counters, so sampling does not affect this reconciliation.
    rec.enable(TraceConfig::default());
    let scale = scale();
    experiments::table2(&Exp {
        rec: Some(&rec),
        ..Exp::new(&scale)
    });

    // Sum the trace's copy events by ledger category.
    let mut payload_ops = 0u64;
    let mut payload_bytes = 0u64;
    let mut meta_ops = 0u64;
    let mut meta_bytes = 0u64;
    let mut logical_ops = 0u64;
    let mut header_bytes = 0u64;
    let mut csum_bytes = 0u64;
    let mut csum_inherited = 0u64;
    let mut allocations = 0u64;
    for ev in rec.events() {
        if let EventKind::Copy { category, bytes } = ev.kind {
            match category {
                "payload" => {
                    payload_ops += 1;
                    payload_bytes += bytes;
                }
                "meta" => {
                    meta_ops += 1;
                    meta_bytes += bytes;
                }
                "logical" => logical_ops += 1,
                "header" => header_bytes += bytes,
                "csum" => csum_bytes += bytes,
                "csum_inherited" => csum_inherited += 1,
                "alloc" => allocations += 1,
                other => panic!("unknown copy category {other}"),
            }
        }
    }

    // `table2_with` attaches the recorder to every rig before any
    // traffic, so the event totals must equal the combined ledgers of all
    // six rigs (three NFS + three kHTTPd) exactly. The recorder's own
    // counters are derived the same way — check both against each other.
    assert!(payload_ops > 0 && meta_ops > 0, "flows exercised both classes");
    assert_eq!(payload_ops, rec.counter("copy.payload.ops"));
    assert_eq!(payload_bytes, rec.counter("copy.payload.bytes"));
    assert_eq!(meta_ops, rec.counter("copy.meta.ops"));
    assert_eq!(meta_bytes, rec.counter("copy.meta.bytes"));
    assert_eq!(logical_ops, rec.counter("copy.logical.ops"));
    assert_eq!(header_bytes, rec.counter("copy.header.bytes"));
    assert_eq!(csum_bytes, rec.counter("copy.csum.bytes"));
    assert_eq!(csum_inherited, rec.counter("copy.csum_inherited.ops"));
    assert_eq!(allocations, rec.counter("copy.alloc.ops"));
}

#[test]
fn ledger_mirror_is_exact_for_every_config() {
    // Tighter version of the reconciliation: one rig per config, its own
    // ledger set, so the trace's copy totals must equal the summed ledger
    // snapshots — exactly, for all three builds.
    for mode in ServerMode::ALL {
        let rec = Recorder::new();
        rec.enable(TraceConfig::default());
        let mut rig = NfsRig::new(mode, NfsRigParams::default());
        rig.set_recorder(rec.clone());
        // mkfs charged the ledgers before the recorder attached; the
        // mirror covers everything from attach onward, so reconcile
        // against deltas.
        let base_client = rig.ledgers().client.snapshot();
        let base_app = rig.ledgers().app.snapshot();
        let base_storage = rig.ledgers().storage.snapshot();
        let fh = rig.create_file("f", 128 << 10);
        rig.read(fh, 0, 64 << 10);
        rig.write(fh, 0, &vec![0x7Eu8; 32 << 10]);
        rig.server_mut().fs_mut().sync().expect("sync");

        let total = |s: &LedgerSnapshot| (s.payload_copies, s.payload_bytes_copied);
        let ledgers = rig.ledgers();
        let (client_ops, client_bytes) =
            total(&ledgers.client.snapshot().delta_since(&base_client));
        let (app_ops, app_bytes) = total(&ledgers.app.snapshot().delta_since(&base_app));
        let (stor_ops, stor_bytes) =
            total(&ledgers.storage.snapshot().delta_since(&base_storage));

        assert_eq!(
            rec.counter("copy.payload.ops"),
            client_ops + app_ops + stor_ops,
            "{mode}: payload copy events must mirror the ledgers exactly"
        );
        assert_eq!(
            rec.counter("copy.payload.bytes"),
            client_bytes + app_bytes + stor_bytes,
            "{mode}: payload copy bytes must mirror the ledgers exactly"
        );
    }
}

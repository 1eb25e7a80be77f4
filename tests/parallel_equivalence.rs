//! Executor invariants: every row of the experiment registry
//! (`experiments::ALL`, everything `repro` can print) must produce
//! byte-identical output at any worker count and any shard count. Cells
//! own their rigs, their seeds, and their recorders; the merge happens in
//! cell order — so the rendered tables, the recorder's counters, and the
//! exported Chrome trace at N threads and 8 shards must equal the
//! single-threaded, single-shard run exactly.

use ncache_repro::obs::{export_chrome_trace, Recorder, TraceConfig};
use ncache_repro::testbed::executor;
use ncache_repro::testbed::experiments::{chosen, Exp, Experiment, Scale, ALL};
use ncache_repro::testbed::nfs_rig::{NfsRig, NfsRigParams};
use ncache_repro::testbed::runner::{run, DriverOp, RunOptions};
use ncache_repro::servers::ServerMode;

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
        overload_requests: 128,
    }
}

/// Runs one registry row traced at `threads` workers over `shards` cache
/// shards, returning everything an observer can see: the rendered tables,
/// the merged counters, and the exported Chrome trace bytes.
fn observe(
    e: &Experiment,
    threads: usize,
    shards: usize,
) -> (String, std::collections::BTreeMap<String, u64>, String) {
    let rec = Recorder::new();
    rec.enable(TraceConfig::default());
    let scale = scale();
    let rendered = (e.run)(&Exp {
        rec: Some(&rec),
        threads,
        shards,
        ..Exp::new(&scale)
    })
    .to_string();
    let chrome = export_chrome_trace(&rec.events());
    (rendered, rec.counters(), chrome)
}

#[test]
fn every_experiment_is_thread_count_invariant() {
    let max = executor::thread_count(None).max(3);
    for e in &ALL {
        let name = e.selector;
        let base = observe(e, 1, 1);
        // The registry's `traced` flag is what `repro` rejects `--trace`
        // on: it must say exactly whether the row records anything.
        assert_eq!(
            e.traced,
            !base.1.is_empty(),
            "{name}: `traced` disagrees with what the recorder saw"
        );
        if !e.traced {
            continue;
        }
        for (threads, shards) in [(2, 1), (max, 1), (max, 8)] {
            let got = observe(e, threads, shards);
            assert_eq!(
                base.0, got.0,
                "{name}: rendered tables diverged at {threads} threads, {shards} shards"
            );
            assert_eq!(
                base.1, got.1,
                "{name}: recorder counters diverged at {threads} threads, {shards} shards"
            );
            assert_eq!(
                base.2, got.2,
                "{name}: Chrome trace bytes diverged at {threads} threads, {shards} shards"
            );
        }
    }
}

#[test]
fn untraced_runs_match_the_single_threaded_tables() {
    // The recorder-free path takes the same cells through the same merge;
    // check every row's rendered output at an oversubscribed worker count,
    // and again with the cache sharded eight ways.
    let scale = scale();
    let base = Exp {
        threads: 1,
        ..Exp::new(&scale)
    };
    for e in &ALL {
        let name = e.selector;
        let reference = (e.run)(&base).to_string();
        let wide = (e.run)(&Exp {
            threads: 16,
            ..base
        })
        .to_string();
        assert_eq!(reference, wide, "{name}: untraced output diverged");
        let sharded = (e.run)(&Exp { shards: 8, ..base }).to_string();
        assert_eq!(reference, sharded, "{name}: output diverged at 8 shards");
    }
}

#[test]
fn latency_report_is_thread_and_shard_invariant() {
    // The rendered latency-attribution report — tail quantiles per data
    // path plus per-stage queue/service shares — is read off the merged
    // recorder histograms, so it must come out byte-identical however
    // the overload sweep's cells are scheduled or the cache is sharded.
    let report_for = |threads: usize, shards: usize| {
        let rec = Recorder::new();
        rec.enable(TraceConfig::default());
        let scale = scale();
        let sweep = chosen(&["overload-sweep"])[0];
        (sweep.run)(&Exp {
            rec: Some(&rec),
            threads,
            shards,
            ..Exp::new(&scale)
        });
        let mut report = ncache_repro::obs::MetricsReport::new();
        report.add_latency(&rec.histograms());
        report.render()
    };
    let base = report_for(1, 1);
    assert!(base.contains("bottleneck"), "report names a bottleneck:\n{base}");
    assert!(base.contains("p999"), "report carries tail quantiles:\n{base}");
    let max = executor::thread_count(None).max(3);
    assert_eq!(base, report_for(max, 1), "latency report diverged across threads");
    assert_eq!(base, report_for(max, 8), "latency report diverged across shards");
}

#[test]
fn identical_rigs_produce_equal_run_results() {
    // The executor's determinism claim bottoms out here: a rig built from
    // the same parameters and driven by the same ops measures the same
    // RunResult, timeline included.
    let measure = || {
        let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
        let fh = rig.create_file("f", 128 << 10);
        let ops: Vec<DriverOp> = (0..16)
            .map(|i| DriverOp::Read {
                fh,
                offset: i * 8192,
                len: 8192,
            })
            .collect();
        run(&mut rig, ops, &RunOptions::default())
    };
    let first = measure();
    // The run counts each READ once, with the bytes it returned.
    assert_eq!((first.ops, first.payload_bytes), (16, 128 << 10));
    assert!(first.throughput_mbs > 0.0);
    assert_eq!(first, measure());
}

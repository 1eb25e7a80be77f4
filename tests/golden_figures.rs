//! Absolute expectations for the figures (every other figure test is a
//! self-comparison or a shape check).
//!
//! `tests/golden/*.txt` is the stdout of `repro --table2`, `--fig4`,
//! `--fig5`, `--fig6a`, `--fig6b`, `--fig7` and `--ablations` at quick
//! scale. The simulation runs in integer nanoseconds off
//! seeded generators with no transcendental draws, so the rendered tables
//! are portable byte for byte; a diff here means the timing model or the
//! data plane changed what the paper's curves say (regenerate the files
//! with those commands only when that is the intent).
//!
//! The backplane around the servers is pinned the same way:
//! `table2_faulted.txt` (`repro --table2 --faults loss=0.05 --seed 7`, both
//! rigs' fault loops), `faults_sweep.txt` (`--faults-sweep`),
//! `clients_sweep.txt` (`--clients-sweep`, the per-session op meter),
//! `clients_sweep_lanes.txt` (`--clients-sweep --parallel-lanes --threads
//! 2`, the lane meter), `overload_ablation.txt` (`--overload-sweep
//! --protected`, rejection detection), and one rendered
//! `metrics_report()` per rig with every conditional section present
//! (`metrics_{nfs,khttpd}.txt`: the test below is the generator).

use ncache_repro::ncache::SplitConfig;
use ncache_repro::servers::{ControlConfig, ServerMode};
use ncache_repro::sim::FaultSpec;
use ncache_repro::testbed::ablations;
use ncache_repro::testbed::experiments::{self, render_table2, Scale};
use ncache_repro::testbed::khttpd_rig::{KhttpdRig, KhttpdRigParams};
use ncache_repro::testbed::nfs_rig::{NfsRig, NfsRigParams};
use ncache_repro::testbed::runner::RigDriver;

/// Asserts `rendered` (plus `println!`'s newline) is the golden file.
fn assert_golden(name: &str, rendered: String) {
    let path = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).expect("golden file");
    assert_eq!(format!("{rendered}\n"), golden, "{name} departs from {path}");
}

#[test]
fn table2_matches_the_committed_table() {
    assert_golden("table2", render_table2(&experiments::table2()));
}

#[test]
fn fig4_matches_the_committed_series() {
    let (thr, cpu) = experiments::fig4(&Scale::quick());
    assert_golden("fig4", format!("{thr}\n{cpu}"));
}

#[test]
fn fig5_matches_the_committed_series() {
    let (cpu1, thr2) = experiments::fig5(&Scale::quick());
    assert_golden("fig5", format!("{cpu1}\n{thr2}"));
}

#[test]
fn fig6a_matches_the_committed_series() {
    assert_golden("fig6a", experiments::fig6a(&Scale::quick()).to_string());
}

#[test]
fn fig6b_matches_the_committed_series() {
    assert_golden("fig6b", experiments::fig6b(&Scale::quick()).to_string());
}

#[test]
fn fig7_matches_the_committed_table() {
    assert_golden("fig7", experiments::fig7(&Scale::quick()).to_string());
}

#[test]
fn ablations_match_the_committed_tables() {
    assert_golden("ablations", ablations::render(&Scale::quick()));
}

/// The CLI's default fault seed (`repro --seed`).
const SEED: u64 = 7;

#[test]
fn table2_faulted_matches_the_committed_table() {
    let spec = FaultSpec::parse("loss=0.05").expect("spec");
    let rows = experiments::table2_faulted(&spec, SEED, None, 2);
    assert_golden("table2_faulted", render_table2(&rows));
}

#[test]
fn faults_sweep_matches_the_committed_tables() {
    let (done, recov) = experiments::fault_sweep_with(&FaultSpec::default(), SEED, None, 2);
    assert_golden("faults_sweep", format!("{done}\n{recov}"));
}

#[test]
fn clients_sweep_matches_the_committed_tables() {
    let (thr, hits) = experiments::clients_sweep_with(&Scale::quick(), None, 2, 1);
    assert_golden("clients_sweep", format!("{thr}\n{hits}"));
}

#[test]
fn clients_sweep_lanes_matches_the_committed_tables() {
    let (thr, hits) = experiments::clients_sweep_lanes(&Scale::quick(), 1, Some(2), None);
    assert_golden("clients_sweep_lanes", format!("{thr}\n{hits}"));
}

#[test]
fn overload_ablation_matches_the_committed_tables() {
    let (goodput, tails, outcomes) =
        experiments::overload_ablation_with(&Scale::quick(), None, 2, 1);
    assert_golden("overload_ablation", format!("{goodput}\n{tails}\n{outcomes}"));
}

/// The load the admission gate is told about ahead of op `k` of the fixed
/// 32-op streams below: the clock steps a quarter millisecond per op and
/// the depth sweeps 0..20 across the protective bound of 16, so the
/// streams see admissions, write shedding and hard rejections.
fn stream_load(k: u32) -> (u64, u64) {
    (u64::from(k) * 250_000, u64::from(k % 20))
}

#[test]
fn nfs_metrics_report_matches_the_committed_rendering() {
    let spec = FaultSpec::parse("loss=0.05,duplicate=0.05,delay=0.05").expect("spec");
    let mut rig = NfsRig::new_faulted(ServerMode::NCache, NfsRigParams::default(), &spec, SEED);
    let fh = rig.create_file("metrics", 256 << 10);
    rig.enable_control(ControlConfig::protective());
    rig.enable_adaptive(SplitConfig::adaptive());
    for k in 0..32u32 {
        let (now, inflight) = stream_load(k);
        rig.server_mut().set_load(now, inflight);
        let off = (k % 16) * (16 << 10);
        match k % 4 {
            3 => drop(rig.try_write(fh, off, &[k as u8; 4096])),
            2 => drop(rig.getattr(fh)),
            _ => drop(rig.try_read(fh, off, 16 << 10)),
        }
        if k % 8 == 7 {
            rig.adaptive_tick();
        }
    }
    assert_golden("metrics_nfs", rig.metrics_report().render());
}

#[test]
fn khttpd_metrics_report_matches_the_committed_rendering() {
    let spec = FaultSpec::parse("loss=0.05,duplicate=0.05,delay=0.05").expect("spec");
    let mut rig =
        KhttpdRig::new_faulted(ServerMode::NCache, KhttpdRigParams::default(), &spec, SEED);
    for (page, size) in [("a", 4096u64), ("b", 20_000), ("c", 75_000), ("d", 10)] {
        rig.publish(page, size);
    }
    rig.enable_control(ControlConfig::protective());
    rig.enable_adaptive(SplitConfig::adaptive());
    for k in 0..32u32 {
        let (now, inflight) = stream_load(k);
        rig.server_mut().set_load(now, inflight);
        let _ = rig.try_get(["/a", "/b", "/c", "/d", "/missing"][k as usize % 5]);
        if k % 8 == 7 {
            rig.adaptive_tick();
        }
    }
    assert_golden("metrics_khttpd", rig.metrics_report().render());
}

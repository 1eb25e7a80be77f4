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
//! `overload_sweep.txt` (`--overload-sweep`, the open loop),
//! `overload_ablation.txt` (`--overload-ablation`, rejection detection), `adaptive_sweep.txt` (`--adaptive-sweep`, the
//! split controller over the tiered backend), and one rendered
//! `metrics_report()` per rig with every conditional section present
//! (`metrics_{nfs,khttpd}.txt`: the test below is the generator).
//!
//! Every `repro` golden is one row of [`goldens`] and is rendered through
//! the experiment registry, exactly as `repro` renders it.

use ncache_repro::testbed::adaptive::SplitConfig;
use ncache_repro::servers::hooks::render_table1;
use ncache_repro::servers::{ControlConfig, ServerMode};
use ncache_repro::sim::FaultSpec;
use ncache_repro::testbed::experiments::{chosen, Exp, Scale};
use ncache_repro::testbed::khttpd_rig::{KhttpdRig, KhttpdRigParams};
use ncache_repro::testbed::nfs_rig::{NfsRig, NfsRigParams};
use ncache_repro::testbed::runner::RigDriver;

/// Asserts `rendered` (plus `println!`'s newline) is the golden file.
fn assert_golden(name: &str, rendered: String) {
    let path = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).expect("golden file");
    assert_eq!(format!("{rendered}\n"), golden, "{name} departs from {path}");
}

/// The CLI's default fault seed (`repro --seed`; [`Exp::new`] sets it).
const SEED: u64 = 7;

/// One row per golden file that is a `repro` stdout: `(file, selector,
/// the run it was captured from)`. The default-run files come from the
/// bare run; the rest were captured at two workers.
fn goldens(scale: &Scale) -> Vec<(&'static str, &'static str, Exp<'_>)> {
    let bare = Exp::new(scale);
    let two = Exp { threads: 2, ..bare };
    let lossy = Exp {
        faults: Some(FaultSpec::parse("loss=0.05").expect("spec")),
        ..two
    };
    vec![
        ("table2", "table2", bare),
        ("fig4", "fig4", bare),
        ("fig5", "fig5", bare),
        ("fig6a", "fig6a", bare),
        ("fig6b", "fig6b", bare),
        ("fig7", "fig7", bare),
        ("ablations", "ablations", bare),
        ("table2_faulted", "table2", lossy),
        ("faults_sweep", "faults-sweep", two),
        ("clients_sweep", "clients-sweep", two),
        ("overload_sweep", "overload-sweep", two),
        ("overload_ablation", "overload-ablation", two),
        ("adaptive_sweep", "adaptive-sweep", two),
    ]
}

/// Renders `file`'s row of [`goldens`] through the registry and holds it
/// to the committed file.
fn assert_matches(file: &str) {
    let scale = Scale::quick();
    let rows = goldens(&scale);
    let (_, selector, x) = rows.iter().find(|g| g.0 == file).expect("a golden row");
    let run = chosen(&[selector]);
    assert_eq!(run.len(), 1, "{file}: {selector} is one registry row");
    assert_golden(file, (run[0].render)(x));
}

#[test]
fn table2_matches_the_committed_table() {
    assert_matches("table2");
}

#[test]
fn fig4_matches_the_committed_series() {
    assert_matches("fig4");
}

#[test]
fn fig5_matches_the_committed_series() {
    assert_matches("fig5");
}

#[test]
fn fig6a_matches_the_committed_series() {
    assert_matches("fig6a");
}

#[test]
fn fig6b_matches_the_committed_series() {
    assert_matches("fig6b");
}

#[test]
fn fig7_matches_the_committed_table() {
    assert_matches("fig7");
}

#[test]
fn ablations_match_the_committed_tables() {
    assert_matches("ablations");
}

#[test]
fn table2_faulted_matches_the_committed_table() {
    assert_matches("table2_faulted");
}

#[test]
fn faults_sweep_matches_the_committed_tables() {
    assert_matches("faults_sweep");
}

#[test]
fn clients_sweep_matches_the_committed_tables() {
    assert_matches("clients_sweep");
}

#[test]
fn overload_sweep_matches_the_committed_tables() {
    assert_matches("overload_sweep");
}

#[test]
fn overload_ablation_matches_the_committed_tables() {
    assert_matches("overload_ablation");
}

#[test]
fn adaptive_sweep_matches_the_committed_tables() {
    assert_matches("adaptive_sweep");
}

#[test]
fn the_default_run_prints_table1_then_the_goldens_in_registry_order() {
    // `repro` with no selector `println!`s every default row in registry
    // order; pinning that here pins the print order in-process, not only
    // through `scripts/ci.sh`.
    let scale = Scale::quick();
    let x = Exp::new(&scale);
    let printed: String = chosen(&[])
        .iter()
        .map(|e| format!("{}\n", (e.render)(&x)))
        .collect();
    let mut expected = format!("{}\n", render_table1());
    for file in ["table2", "fig4", "fig5", "fig6a", "fig6b", "fig7", "ablations"] {
        let path = format!("{}/tests/golden/{file}.txt", env!("CARGO_MANIFEST_DIR"));
        expected.push_str(&std::fs::read_to_string(&path).expect("golden file"));
    }
    assert_eq!(printed, expected);
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

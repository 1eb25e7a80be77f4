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
//!
//! The same tables carry the claims: each figure's shape (`tests/claims`,
//! which `tests/figures_shape.rs` applies at a tiny scale too) and each
//! extension's one falsifiable claim (the `*_claim` functions below), read
//! off the cells the golden pins, so a re-blessed golden must still hold
//! its claim and no experiment runs twice.

mod claims;

use claims::cell;
use ncache_repro::servers::hooks::render_table1;
use ncache_repro::servers::{ControlConfig, ServerMode};
use ncache_repro::sim::stats::SeriesTable;
use ncache_repro::sim::FaultSpec;
use ncache_repro::testbed::adaptive::SplitConfig;
use ncache_repro::testbed::experiments::{
    chosen, Exp, Printed, Scale, CLIENTS_SWEEP_POINTS, FAULT_SWEEP_LOSS, OVERLOAD_ABLATION_SIZES,
    OVERLOAD_SWEEP_FACTORS,
};
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

/// Renders `file`'s row of [`goldens`] through the registry, holds it to
/// the committed file, and returns what it printed.
fn assert_matches(file: &str) -> Printed {
    let scale = Scale::quick();
    let rows = goldens(&scale);
    let (_, selector, x) = rows.iter().find(|g| g.0 == file).expect("a golden row");
    let run = chosen(&[selector]);
    assert_eq!(run.len(), 1, "{file}: {selector} is one registry row");
    let printed = (run[0].run)(x);
    assert_golden(file, printed.to_string());
    printed
}

/// [`assert_matches`] for a row that prints `N` tables: the tables.
fn golden_tables<const N: usize>(file: &str) -> [SeriesTable; N] {
    let Printed::Tables(tables) = assert_matches(file) else {
        panic!("{file} prints text, not tables");
    };
    let n = tables.len();
    tables
        .try_into()
        .unwrap_or_else(|_| panic!("{file} prints {n} tables, not {N}"))
}

/// The three builds' series names.
const BUILDS: [&str; 3] = ["original", "ncache", "baseline"];

/// The fault model's claim: every build completes every request at every
/// swept loss rate (up to 10 %), and a clean link takes no recovery action.
fn fault_model_claim(done: &SeriesTable, recovery: &SeriesTable) {
    for loss in FAULT_SWEEP_LOSS {
        assert!(loss <= 0.10, "the claim covers loss up to 10 %, not {loss}");
        for build in BUILDS {
            let pct = cell(done, loss * 100.0, build);
            assert_eq!(pct, 100.0, "{build} completes every request at loss {loss}");
        }
    }
    for build in BUILDS {
        let actions = cell(recovery, 0.0, build);
        assert_eq!(
            actions, 0.0,
            "{build} recovers from nothing on a clean link"
        );
    }
}

/// Client scaling's claim: NCache delivers at least Original's throughput
/// at every client count, and sixteen sessions deliver at least twice one
/// session's throughput on every build. Baseline falls below Original at
/// 256 clients, so no claim compares the two.
fn client_scaling_claim(thr: &SeriesTable) {
    for clients in CLIENTS_SWEEP_POINTS.map(|c| c as f64) {
        let (orig, nc) = (cell(thr, clients, "original"), cell(thr, clients, "ncache"));
        assert!(
            nc >= orig,
            "at {clients} clients NCache {nc} < Original {orig}"
        );
    }
    for build in BUILDS {
        let (one, sixteen) = (cell(thr, 1.0, build), cell(thr, 16.0, build));
        assert!(
            sixteen >= 2.0 * one,
            "{build}: 16 clients {sixteen} < 2 x 1 client {one}"
        );
    }
}

/// The open loop's claim: NCache's goodput is at least Original's at every
/// offered factor, and past saturation the queue shows in the tail: every
/// build's p99 at 2.0x capacity is above its p99 at 0.8x.
fn open_loop_claim(goodput: &SeriesTable, tails: &SeriesTable) {
    for factor in OVERLOAD_SWEEP_FACTORS {
        let (orig, nc) = (
            cell(goodput, factor, "original"),
            cell(goodput, factor, "ncache"),
        );
        assert!(
            nc >= orig,
            "at {factor}x NCache {nc} < Original {orig} MB/s"
        );
    }
    for build in BUILDS {
        let p99 = format!("{build} p99");
        let (under, over) = (cell(tails, 0.8, &p99), cell(tails, 2.0, &p99));
        assert!(
            over > under,
            "{build}: p99 at 2.0x {over} us <= at 0.8x {under} us"
        );
    }
}

/// The `(size, offered factor)` cells where the control plane's claim
/// fails today. A change that mends one must take it out of this list.
const CONTROL_PLANE_TRAILS: [(&str, f64); 3] = [("16K", 1.0), ("16K", 1.2), ("4K", 1.0)];

/// The control plane's claim: with admission control, backpressure and
/// retry budgets on, on-time goodput beats the unprotected server's in
/// every `(size, offered factor)` cell but exactly [`CONTROL_PLANE_TRAILS`],
/// where the protected server keeps at least 94 % of it.
fn control_plane_claim(goodput: &SeriesTable) {
    let mut trails = Vec::new();
    for (_, size) in OVERLOAD_ABLATION_SIZES {
        for factor in OVERLOAD_SWEEP_FACTORS {
            let unprotected = cell(goodput, factor, &format!("unprotected-{size}"));
            let protected = cell(goodput, factor, &format!("protected-{size}"));
            if protected <= unprotected {
                trails.push((size, factor));
                assert!(
                    protected >= 0.94 * unprotected,
                    "{size} at {factor}x: protected {protected} < 94 % of {unprotected} MB/s"
                );
            }
        }
    }
    assert_eq!(
        trails, CONTROL_PLANE_TRAILS,
        "the cells where protected goodput does not beat unprotected: near capacity the \
         fixed 12-slot in-flight bound (`overload_ablation`'s `max_inflight`) rejects \
         requests that would have finished inside their deadline"
    );
}

/// The adaptive split's claim, NetCAS's (PAPERS.md): under a working set
/// that shifts at segment 4, on a tiered backend, a split steered by
/// measured ghost hits delivers more goodput than the static split in
/// every one of the six segments.
fn adaptive_split_claim(goodput: &SeriesTable) {
    assert_eq!(goodput.xs(), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], "six segments");
    for segment in goodput.xs() {
        let fixed = cell(goodput, segment, "static");
        let adaptive = cell(goodput, segment, "adaptive");
        assert!(
            adaptive > fixed,
            "segment {segment}: adaptive {adaptive} <= static {fixed} MB/s"
        );
    }
}

#[test]
fn table2_matches_the_committed_table() {
    assert_matches("table2");
}

#[test]
fn fig4_matches_the_committed_series() {
    let [thr, cpu] = golden_tables("fig4");
    claims::fig4(&thr, &cpu);
}

#[test]
fn fig5_matches_the_committed_series() {
    let [cpu1, thr2] = golden_tables("fig5");
    claims::fig5(&cpu1, &thr2);
}

#[test]
fn fig6a_matches_the_committed_series() {
    let [thr] = golden_tables("fig6a");
    claims::fig6a(&thr);
}

#[test]
fn fig6b_matches_the_committed_series() {
    let [thr] = golden_tables("fig6b");
    claims::fig6b(&thr);
}

#[test]
fn fig7_matches_the_committed_table() {
    let [table] = golden_tables("fig7");
    claims::fig7(&table);
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
    let [done, recovery] = golden_tables("faults_sweep");
    fault_model_claim(&done, &recovery);
}

#[test]
fn clients_sweep_matches_the_committed_tables() {
    let [thr, _hits] = golden_tables("clients_sweep");
    client_scaling_claim(&thr);
}

#[test]
fn overload_sweep_matches_the_committed_tables() {
    let [goodput, tails, _shares] = golden_tables("overload_sweep");
    open_loop_claim(&goodput, &tails);
}

#[test]
fn overload_ablation_matches_the_committed_tables() {
    let [goodput, _tails, _outcomes] = golden_tables("overload_ablation");
    control_plane_claim(&goodput);
}

#[test]
fn adaptive_sweep_matches_the_committed_tables() {
    let [goodput, _hits, _residency] = golden_tables("adaptive_sweep");
    adaptive_split_claim(&goodput);
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
        .map(|e| format!("{}\n", (e.run)(&x)))
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

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

use ncache_repro::testbed::ablations;
use ncache_repro::testbed::experiments::{self, render_table2, Scale};

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

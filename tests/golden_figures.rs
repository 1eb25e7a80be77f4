//! Absolute expectations for the figures (every other figure test is a
//! self-comparison or a shape check).
//!
//! `tests/golden/*.txt` is the stdout of `repro --table2`, `--fig4` and
//! `--fig5` at quick scale. The simulation runs in integer nanoseconds off
//! seeded generators with no transcendental draws, so the rendered tables
//! are portable byte for byte; a diff here means the timing model or the
//! data plane changed what the paper's curves say (regenerate the files
//! with those three commands only when that is the intent).

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

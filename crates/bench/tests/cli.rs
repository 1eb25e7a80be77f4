//! `repro`'s command line: selectors it knows run, anything else fails.
//!
//! `scripts/ci.sh` gates determinism by running `repro` twice and
//! comparing stdout; a selector that is silently ignored would make every
//! such gate pass on two empty files.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn known_selectors_and_their_modifiers_run() {
    for args in [
        &["--table1"][..],
        &["--table2", "--threads", "1"],
        &["--clients-sweep", "--lane-oracle"],
    ] {
        let out = repro(args);
        assert!(out.status.success(), "{args:?} failed: {}", String::from_utf8_lossy(&out.stderr));
        assert!(!out.stdout.is_empty(), "{args:?} printed nothing");
    }
}

#[test]
fn unknown_selectors_and_orphan_modifiers_are_rejected() {
    for args in [
        &["--fig44"][..],
        &["--clients_sweep"],
        &["table2"],
        &["--table2", "--fig44"],
        &["--protected"],
        &["--table2", "--parallel-lanes"],
        &["--overload-sweep", "--lane-oracle"],
    ] {
        let out = repro(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} must run nothing");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("error: "), "{args:?}: {err}");
    }
    let err = repro(&["--fig44"]).stderr;
    let err = String::from_utf8_lossy(&err);
    assert!(err.contains("--fig4 ") && err.contains("--adaptive-sweep"), "lists the selectors: {err}");
}

//! `repro`'s command line: selectors it knows run, anything else fails.
//!
//! `scripts/ci.sh` gates determinism by running `repro` twice and
//! comparing stdout; a selector that is silently ignored would make every
//! such gate pass on two empty files.

use std::process::{Command, Output};

use testbed::experiments::ALL;

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn known_selectors_run() {
    for args in [
        &["--table1"][..],
        &["--table2", "--threads", "1"],
        &["--clients-sweep", "--threads", "2"],
        // The seed is the fault sweep's root seed with or without a spec.
        &["--faults-sweep", "--seed", "9"],
    ] {
        let out = repro(args);
        assert!(out.status.success(), "{args:?} failed: {}", String::from_utf8_lossy(&out.stderr));
        assert!(!out.stdout.is_empty(), "{args:?} printed nothing");
    }
}

#[test]
fn unknown_selectors_are_rejected() {
    for args in [
        &["--fig44"][..],
        &["--clients_sweep"],
        &["table2"],
        &["--table2", "--fig44"],
        // Flags no chosen experiment honours (each ran, ignoring the flag,
        // and exited 0 before the check came from the registry).
        &["--fig6b", "--faults", "loss=0.5", "--seed", "3"],
        &["--clients-sweep", "--faults", "loss=0.2"],
        &["--ablations", "--trace", "t.json"],
        // Gone: the lane engine's two modes, whose stdout equalled the
        // sequential engine's, the modifier `--overload-ablation`
        // replaced, and the shard count, which no output could show.
        &["--clients-sweep", "--parallel-lanes"],
        &["--clients-sweep", "--lane-oracle"],
        &["--overload-sweep", "--protected"],
        &["--clients-sweep", "--shards", "8"],
    ] {
        let out = repro(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} must run nothing");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("error: "), "{args:?}: {err}");
        let gone = ["--parallel-lanes", "--lane-oracle", "--protected", "--shards"];
        if let Some(flag) = args.iter().find(|a| gone.contains(a)) {
            assert!(err.starts_with(&format!("error: unknown argument {flag};")), "{args:?}: {err}");
        }
    }
    let err = repro(&["--fig44"]).stderr;
    let err = String::from_utf8_lossy(&err);
    assert!(err.contains("--fig4 ") && err.contains("--adaptive-sweep"), "lists the selectors: {err}");
}

#[test]
fn a_flag_some_chosen_experiments_ignore_is_named_on_stderr() {
    let out = repro(&["--table1", "--table2", "--metrics"]);
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("ran without --metrics, which they do not honour: table1"),
        "{err}"
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("Unified metrics summary"));
}

#[test]
fn the_latency_report_names_a_bottleneck() {
    // The cheapest traced selector whose cells record pipeline stages.
    let out = repro(&["--adaptive-sweep", "--latency-report"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let titled = stdout.contains("# Latency attribution report\n");
    let named = stdout
        .lines()
        .any(|l| l.trim_start().starts_with("bottleneck "));
    assert!(titled && named, "no report naming a bottleneck:\n{stdout}");
}

#[test]
fn help_mentions_every_selector_the_registry_holds() {
    let out = repro(&["--help"]);
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout);
    for e in &ALL {
        assert!(help.contains(&format!("[--{}]", e.selector)), "--{} missing", e.selector);
    }
    for gone in ["--parallel-lanes", "--lane-oracle", "--protected", "--shards"] {
        assert!(!help.contains(gone), "{gone} is no flag");
    }
}

//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro                       # all experiments, quick scale
//! repro --paper               # all experiments at the paper's sizes (slow)
//! repro --table1              # just Table 1
//! repro --table2              # just Table 2
//! repro --fig4 ... --fig7
//! repro --fig4 --trace t.json # also write a Chrome trace (+ .jsonl sibling)
//! repro --table2 --metrics    # also print the unified metrics summary
//! repro --table2 --faults loss=0.05 --seed 7   # Table 2 under fault injection
//! repro --faults-sweep                         # completion/recovery vs loss rate
//! repro --clients-sweep --shards 8 --threads 4 # client scaling, sharded cache
//! repro --overload-sweep --latency-report      # open-loop tails + attribution
//! repro --validate-trace t.json
//! ```
//!
//! Selectors combine with `--paper`, `--trace`, `--metrics` and `--faults`.
//!
//! This is one of the bench crate's two entry points: it regenerates every
//! table and figure of the paper's evaluation and prints them in the
//! paper's layout. The other is `cargo bench -p ncache-bench`, which times
//! the core data-plane operations and one scaled-down run per registry
//! entry, so regressions in either the library's host performance or the
//! modelled shapes show up in CI.
//!
//! What can be selected, what each selector's modifiers are and which flags
//! each experiment honours all come from the registry,
//! `testbed::experiments::ALL`; this file holds no per-experiment code.

use std::process::ExitCode;
use std::time::Instant;

use testbed::executor;
use testbed::experiments::{chosen, Exp, Experiment, Scale, ALL};

fn validate(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = if path.ends_with(".jsonl") {
        obs::validate_jsonl(&text)
    } else {
        obs::validate_chrome_trace(&text)
    };
    match result {
        Ok(n) => {
            println!("{path}: valid ({n} events)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn write_trace(rec: &obs::Recorder, path: &str) {
    let events = rec.events();
    if rec.dropped() > 0 {
        eprintln!(
            "[trace: ring buffer dropped {} events — raise TraceConfig::capacity]",
            rec.dropped()
        );
    }
    let chrome = obs::export_chrome_trace(&events);
    std::fs::write(path, chrome).expect("write trace file");
    let jsonl_path = std::path::Path::new(path).with_extension("jsonl");
    std::fs::write(&jsonl_path, obs::export_jsonl(&events)).expect("write jsonl file");
    eprintln!(
        "[trace: {} events -> {path} + {}]",
        events.len(),
        jsonl_path.display()
    );
}

fn print_latency_report(rec: &obs::Recorder) {
    let mut report = obs::MetricsReport::new();
    report.add_latency(&rec.histograms());
    println!("# Latency attribution report\n{}", report.render());
}

fn print_metrics(rec: &obs::Recorder) {
    let mut report = obs::MetricsReport::new();
    report.add_counters("recorder counters", &rec.counters());
    let mut hist_entries = Vec::new();
    for (name, h) in rec.histograms() {
        hist_entries.push((format!("{name}.count"), h.count.to_string()));
        hist_entries.push((format!("{name}.mean"), format!("{:.0}", h.mean())));
        hist_entries.push((format!("{name}.max"), h.max.to_string()));
    }
    if !hist_entries.is_empty() {
        report.add_section("histograms", hist_entries);
    }
    println!("# Unified metrics summary\n{}", report.render());
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "repro — regenerate the evaluation of 'Network-Centric Buffer \
             Cache Organization' (ICDCS 2005)\n\n\
             usage: repro [--paper] [--table1] [--table2] [--fig4] [--fig5] \
             [--fig6a] [--fig6b] [--fig7] [--ablations] [--faults-sweep] \
             [--clients-sweep] [--overload-sweep] [--adaptive-sweep]\n       \
             [--threads N] [--shards N] [--parallel-lanes] [--lane-oracle] \
             [--trace FILE] [--metrics] [--latency-report] \
             [--faults SPEC] [--seed N] [--validate-trace FILE]\n\n\
             With no selector, every experiment runs. --paper uses the \
             paper's workload sizes (2 GB all-miss file, 250 MB-1 GB \
             working sets) and takes much longer.\n\n\
             --threads N    run experiment cells on N worker threads\n\
             \x20              (default: NCACHE_THREADS, then the machine's\n\
             \x20              available parallelism); output is identical at\n\
             \x20              every thread count\n\
             --shards N     NCache shard count for --clients-sweep and\n\
             \x20              --overload-sweep\n\
             \x20              (default 1); sharding only partitions the key\n\
             \x20              space, so output is identical at every shard\n\
             \x20              count\n\
             --parallel-lanes\n\
             \x20              run --clients-sweep on the lane-parallel\n\
             \x20              engine: each cell's sessions execute\n\
             \x20              concurrently on --threads host threads over a\n\
             \x20              warmed hot set; output is byte-identical at\n\
             \x20              every thread count and to --lane-oracle;\n\
             \x20              combines with --faults (the reference is then\n\
             \x20              the --threads 1 run: faulted draws are\n\
             \x20              per-lane, not sequential)\n\
             --lane-oracle  run the --parallel-lanes workload through the\n\
             \x20              sequential engine instead — the byte-exact\n\
             \x20              reference the CI gate diffs against\n\
             --trace FILE   write a Chrome trace (chrome://tracing, Perfetto)\n\
             \x20              of the selected experiments to FILE, plus a\n\
             \x20              line-delimited JSON event stream to FILE with a\n\
             \x20              .jsonl extension\n\
             --overload-sweep\n\
             \x20              probe each build's closed-loop capacity, then\n\
             \x20              offer seeded open-loop Poisson+Zipf load at\n\
             \x20              0.5-2.0x of it; prints delivered goodput,\n\
             \x20              p50/p99/p999 tails and the NCache build's\n\
             \x20              per-stage latency shares; byte-identical at\n\
             \x20              every --threads and --shards value\n\
             --protected    with --overload-sweep: run the overload control\n\
             \x20              ablation instead — the NCache build under a\n\
             \x20              mixed read/write open loop with per-request\n\
             \x20              deadlines, once with the control plane off and\n\
             \x20              once with admission control, backpressure and\n\
             \x20              client retry budgets on; prints on-time\n\
             \x20              goodput, tails and request outcomes\n\
             --adaptive-sweep\n\
             \x20              run the static-vs-adaptive cache-split ablation:\n\
             \x20              the NCache build under a phase-changing Zipf\n\
             \x20              workload on a tiered (NVMe-front) backend, once\n\
             \x20              with the split controller frozen and once live;\n\
             \x20              prints per-segment goodput, NCache hit ratio and\n\
             \x20              fast-tier residency; byte-identical at every\n\
             \x20              --threads and --shards value\n\
             --metrics      print the unified metrics summary after the run\n\
             --latency-report\n\
             \x20              print the latency attribution report after the\n\
             \x20              run: per-path tail quantiles plus each pipeline\n\
             \x20              stage's queue/service sums and share of\n\
             \x20              end-to-end latency, with the bottleneck named\n\
             --faults SPEC  run --table2 under deterministic fault injection\n\
             \x20              and enable the --faults-sweep selector; SPEC is\n\
             \x20              comma-separated key=rate pairs (loss, duplicate,\n\
             \x20              reorder, delay, truncate, corrupt, io), e.g.\n\
             \x20              loss=0.05 or loss=0.02,delay=0.01\n\
             --seed N       root seed for fault schedules (default 7); the\n\
             \x20              same seed + spec replays byte-identically at\n\
             \x20              any thread count\n\
             --validate-trace FILE\n\
             \x20              schema-check a trace written by --trace and exit"
        );
        return ExitCode::SUCCESS;
    }

    let (quick, paper) = (Scale::quick(), Scale::paper());
    let rec = obs::Recorder::new();
    let mut x = Exp::new(&quick);
    let mut metrics = false;
    let mut latency_report = false;
    let mut seed_given = false;
    let mut trace_path: Option<String> = None;
    let mut selectors: Vec<&str> = Vec::new();
    let mut modifiers: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--paper" => x.scale = &paper,
            "--metrics" => metrics = true,
            "--latency-report" => latency_report = true,
            "--faults" => match it.next().map(|v| sim::FaultSpec::parse(v)) {
                Some(Ok(spec)) => x.faults = Some(spec),
                Some(Err(e)) => {
                    eprintln!("error: --faults: {e}");
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!("error: --faults needs a spec argument (e.g. loss=0.05)");
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => (x.seed, seed_given) = (n, true),
                None => {
                    eprintln!("error: --seed needs a numeric argument");
                    return ExitCode::FAILURE;
                }
            },
            "--threads" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => x.threads = executor::thread_count(Some(n)),
                None => {
                    eprintln!("error: --threads needs a numeric argument");
                    return ExitCode::FAILURE;
                }
            },
            "--shards" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => x.shards = n,
                _ => {
                    eprintln!("error: --shards needs a positive numeric argument");
                    return ExitCode::FAILURE;
                }
            },
            "--trace" => match it.next() {
                Some(p) => trace_path = Some(p.clone()),
                None => {
                    eprintln!("error: --trace needs a file argument");
                    return ExitCode::FAILURE;
                }
            },
            "--validate-trace" => {
                return match it.next() {
                    Some(p) => validate(p),
                    None => {
                        eprintln!("error: --validate-trace needs a file argument");
                        ExitCode::FAILURE
                    }
                };
            }
            // Everything else is a selector or a modifier the registry
            // holds, or an error: a misspelt selector must not run nothing
            // and exit 0.
            other => {
                let name = other.strip_prefix("--");
                let modifier = ALL
                    .iter()
                    .filter_map(|e| e.modifier)
                    .find(|m| Some(*m) == name);
                if let Some(e) = ALL.iter().find(|e| Some(e.selector) == name) {
                    selectors.push(e.selector);
                } else if let Some(m) = modifier {
                    modifiers.push(m);
                } else {
                    let plain = ALL.iter().filter(|e| e.modifier.is_none());
                    let known: Vec<&str> = plain.map(|e| e.selector).collect();
                    eprintln!(
                        "error: unknown argument {other}; the selectors are --{}",
                        known.join(" --")
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let chosen = chosen(&selectors, &modifiers);

    // A flag no chosen experiment honours is an error, for the reason a
    // misspelt selector is: the run would print what it prints without the
    // flag, and a gate comparing two such outputs passes. (`--threads` and
    // `--shards` are exempt: every experiment's output is invariant in
    // them, so ignoring one is unobservable.)
    type Honours = fn(&Experiment, &str) -> bool;
    // Every variant of a selector honours that selector's modifiers: of
    // several given, the registry's last row runs (`experiments::chosen`).
    let variant: Honours = |e, flag| {
        let modifies = |r: &Experiment| r.selector == e.selector && r.modifier == Some(flag);
        e.modifier.is_some() && ALL.iter().any(modifies)
    };
    let faulted: Honours = |e, _| e.faulted;
    let traced: Honours = |e, _| e.traced;
    let mut given: Vec<(&str, Honours)> = modifiers.iter().map(|&m| (m, variant)).collect();
    for (flag, on, honours) in [
        ("faults", x.faults.is_some(), faulted),
        ("seed", seed_given, faulted),
        ("trace", trace_path.is_some(), traced),
        ("metrics", metrics, traced),
        ("latency-report", latency_report, traced),
    ] {
        if on {
            given.push((flag, honours));
        }
    }
    let names = |rows: &[&Experiment]| {
        let names: Vec<String> = rows.iter().map(|e| e.name()).collect();
        names.join(", ")
    };
    for (flag, honours) in given {
        let (with, without): (Vec<_>, Vec<_>) = chosen.iter().partition(|e| honours(e, flag));
        if with.is_empty() {
            let by: Vec<_> = ALL.iter().filter(|e| honours(e, flag)).collect();
            let by = names(&by);
            eprintln!("error: --{flag} is honoured only by {by}; none of them is selected");
            return ExitCode::FAILURE;
        }
        if !without.is_empty() {
            let ran = names(&without);
            eprintln!("[ran without --{flag}, which they do not honour: {ran}]");
        }
    }

    if trace_path.is_some() || metrics || latency_report {
        rec.enable(obs::TraceConfig::default());
        x.rec = Some(&rec);
    }
    for e in chosen {
        let t0 = Instant::now();
        if let (true, Some(spec)) = (e.faulted, &x.faults) {
            eprintln!("[{} under faults: {spec:?}, seed {}]", e.name(), x.seed);
        }
        println!("{}", (e.render)(&x));
        eprintln!("[{} in {:.1?}]\n", e.name(), t0.elapsed());
    }

    if metrics {
        print_metrics(&rec);
    }
    if latency_report {
        print_latency_report(&rec);
    }
    if let Some(path) = &trace_path {
        write_trace(&rec, path);
    }
    ExitCode::SUCCESS
}

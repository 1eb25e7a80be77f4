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
//! repro --clients-sweep --threads 4            # client scaling
//! repro --overload-sweep --latency-report      # open-loop tails + attribution
//! repro --overload-ablation                    # control plane off vs on
//! repro --validate-trace t.json
//! ```
//!
//! Selectors combine with `--paper`, `--trace`, `--metrics` and `--faults`.
//!
//! This is one of the bench crate's two entry points: it regenerates every
//! table and figure of the paper's evaluation and prints them in the
//! paper's layout. The other is `cargo bench -p ncache-bench`, which times
//! one scaled-down run per registry entry, so a host-time regression of an
//! experiment shows up in CI. The data plane's host time, layer by layer,
//! is the host-time benchmark's (`benchmark/`).
//!
//! What can be selected and which flags each experiment honours both come
//! from the registry, `testbed::experiments::ALL`; this file holds no
//! per-experiment code.

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
            "[trace: the ring buffer kept the last {} events and dropped {} older ones; \
             --metrics and --latency-report still count every event; trace a smaller \
             selector (e.g. --table2) for a complete trace]",
            obs::TraceConfig::default().capacity,
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
        let selectors: Vec<String> = ALL.iter().map(|e| format!("[--{}]", e.selector)).collect();
        println!(
            "repro — regenerate the evaluation of 'Network-Centric Buffer \
             Cache Organization' (ICDCS 2005)\n\n\
             usage: repro [--paper] {}\n       \
             [--threads N] \
             [--trace FILE] [--metrics] [--latency-report] \
             [--faults SPEC] [--seed N] [--validate-trace FILE]\n\n\
             With no selector, every experiment runs. --paper uses the \
             paper's workload sizes (2 GB all-miss file, 250 MB-1 GB \
             working sets) and takes much longer.\n\n\
             --threads N    run experiment cells on N worker threads\n\
             \x20              (default: NCACHE_THREADS, then the machine's\n\
             \x20              available parallelism); output is identical at\n\
             \x20              every thread count\n\
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
             \x20              every --threads value\n\
             --overload-ablation\n\
             \x20              run the overload control ablation: the NCache\n\
             \x20              build under a mixed read/write open loop with\n\
             \x20              per-request deadlines, once with the control\n\
             \x20              plane off and once with admission control,\n\
             \x20              backpressure and client retry budgets on;\n\
             \x20              prints on-time goodput, tails and request\n\
             \x20              outcomes\n\
             --adaptive-sweep\n\
             \x20              run the static-vs-adaptive cache-split ablation:\n\
             \x20              the NCache build under a phase-changing Zipf\n\
             \x20              workload on a tiered (NVMe-front) backend, once\n\
             \x20              with the split controller frozen and once live;\n\
             \x20              prints per-segment goodput, NCache hit ratio and\n\
             \x20              fast-tier residency; byte-identical at every\n\
             \x20              --threads value\n\
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
             \x20              schema-check a trace written by --trace and exit",
            selectors.join(" ")
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
            // Everything else is a selector the registry holds, or an
            // error: a misspelt selector must not run nothing and exit 0.
            other => {
                let name = other.strip_prefix("--");
                if let Some(e) = ALL.iter().find(|e| Some(e.selector) == name) {
                    selectors.push(e.selector);
                } else {
                    let known: Vec<&str> = ALL.iter().map(|e| e.selector).collect();
                    eprintln!(
                        "error: unknown argument {other}; the selectors are --{}",
                        known.join(" --")
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let chosen = chosen(&selectors);

    // A flag no chosen experiment honours is an error, for the reason a
    // misspelt selector is: the run would print what it prints without the
    // flag, and a gate comparing two such outputs passes. (`--threads` is
    // exempt: every experiment's output is invariant in it, so ignoring it
    // is unobservable.)
    type Honours = fn(&Experiment) -> bool;
    let faulted: Honours = |e| e.faulted;
    let traced: Honours = |e| e.traced;
    let given = [
        ("faults", x.faults.is_some(), faulted),
        ("seed", seed_given, faulted),
        ("trace", trace_path.is_some(), traced),
        ("metrics", metrics, traced),
        ("latency-report", latency_report, traced),
    ];
    let names = |rows: &[&Experiment]| {
        let names: Vec<&str> = rows.iter().map(|e| e.selector).collect();
        names.join(", ")
    };
    for (flag, _, honours) in given.into_iter().filter(|g| g.1) {
        let (with, without): (Vec<_>, Vec<_>) = chosen.iter().partition(|e| honours(e));
        if with.is_empty() {
            let by: Vec<_> = ALL.iter().filter(|e| honours(e)).collect();
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
            eprintln!("[{} under faults: {spec:?}, seed {}]", e.selector, x.seed);
        }
        println!("{}", (e.run)(&x));
        eprintln!("[{} in {:.1?}]\n", e.selector, t0.elapsed());
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

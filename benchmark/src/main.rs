//! hostbench: the repo's host-time benchmark. See `benchmark/README.md`.
//!
//! ```text
//! hostbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1 | --traced] [--quick]
//! hostbench --all [--seed <n>] [--seconds <s>] [--traced] [--quick] [--out <file>]
//! hostbench --selftest
//! hostbench compare <A.json> <B.json>
//! hostbench compare --a <A1.json> <A2.json> ... --b <B1.json> <B2.json> ...
//! ```

mod alloc;
mod compare;
mod report;
mod schema;
mod seams;
mod stats;
mod timed;
mod trace;
mod traced;
mod verify;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use report::{driver_json, metric_line, num, parse_metric_line, RunResult};
use seams::json_escape;
use verify::Corrupt;
use workloads::{REFERENCE_SECONDS, REPETITIONS, SPECS};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// `--quick`: one repetition of a twentieth of the requests.
const QUICK_SCALE: f64 = 0.05;

#[derive(Clone, Debug, Default)]
struct Args {
    workload: Option<String>,
    all: bool,
    selftest: bool,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    quick: bool,
    corrupt: Option<Corrupt>,
    out: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    format!(
        "usage: hostbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1 | --traced] [--quick]\n\
         \x20      hostbench --all [--seed <n>] [--seconds <s>] [--traced] [--quick] [--out <file>]\n\
         \x20      hostbench --selftest\n\
         \x20      hostbench compare <A.json> <B.json> | compare --a <A.json>... --b <B.json>...\n\
         workloads: {}",
        names.join(", ")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--traced" => a.traced = true,
            "--quick" => a.quick = true,
            "--all" => a.all = true,
            "--selftest" => a.selftest = true,
            "--out" => a.out = Some(PathBuf::from(value("a file")?)),
            // Used by --selftest on its children; plants a verification fault.
            "--corrupt" => {
                a.corrupt = Some(match value("byte or count")?.as_str() {
                    "byte" => Corrupt::Byte,
                    "count" => Corrupt::Count,
                    other => return Err(format!("--corrupt takes byte or count, not {other}")),
                });
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if usize::from(a.workload.is_some()) + usize::from(a.all) + usize::from(a.selftest) != 1 {
        return Err("give exactly one of --workload, --all, --selftest".into());
    }
    Ok(a)
}

impl Args {
    fn shape(&self) -> timed::Shape {
        let scale = self.seconds.unwrap_or(REFERENCE_SECONDS) / REFERENCE_SECONDS;
        if self.quick {
            timed::Shape {
                scale: scale * QUICK_SCALE,
                repetitions: 1,
            }
        } else {
            timed::Shape {
                scale,
                repetitions: REPETITIONS,
            }
        }
    }
}

/// `benchmark/out` when run from the repository root (as the driver
/// does), `out` when run from inside `benchmark/`.
fn out_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host facts every result records.
struct Host {
    nproc: usize,
    rustc: String,
    commit: String,
}

impl Host {
    fn read() -> Self {
        Host {
            nproc: std::thread::available_parallelism().map_or(0, usize::from),
            rustc: first_line_of("rustc", &["-V"]),
            commit: first_line_of("git", &["rev-parse", "--short", "HEAD"]),
        }
    }
}

fn run_workload(args: &Args, name: &str) -> ExitCode {
    let Some(spec) = workloads::find(name) else {
        eprintln!("unknown workload {name}\n{}", usage());
        return ExitCode::from(2);
    };
    let shape = args.shape();
    let host = Host::read();
    println!("host nproc {}", host.nproc);
    println!("host rustc {}", host.rustc);
    println!("host commit {}", host.commit);
    println!("why {}", spec.why);
    println!(
        "run workload {} seed {} scale {} repetitions {} trace {}",
        spec.name,
        args.seed,
        num(shape.scale),
        shape.repetitions,
        u8::from(args.traced)
    );
    let result = if args.traced {
        let path = out_dir().join(format!("trace-{}.jsonl", spec.name));
        let r = traced::run(spec, args.seed, shape.scale, args.corrupt, &path);
        println!("trace {}", path.display());
        r
    } else {
        timed::run(spec, args.seed, shape, args.corrupt)
    };
    for m in &result.metrics {
        println!("{}", metric_line(m));
    }
    for note in &result.notes {
        println!("note {note}");
    }
    println!("{}", driver_json(&result));
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Re-executes this binary with `child_args`, echoing its output; returns
/// what it printed and whether it exited 0.
fn run_child(child_args: &[String]) -> std::io::Result<(String, bool)> {
    let exe = std::env::current_exe()?;
    let out = Command::new(exe)
        .args(child_args)
        .stderr(Stdio::inherit())
        .output()?;
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    print!("{text}");
    Ok((text, out.status.success()))
}

fn common_child_args(args: &Args, name: &str) -> Vec<String> {
    let mut v = vec![
        "--workload".to_string(),
        name.to_string(),
        "--seed".to_string(),
        args.seed.to_string(),
        "--trace".to_string(),
        u8::from(args.traced).to_string(),
    ];
    if let Some(s) = args.seconds {
        v.extend(["--seconds".to_string(), num(s)]);
    }
    if args.quick {
        v.push("--quick".to_string());
    }
    v
}

/// One process per workload, so peak RSS and allocator counts are
/// per-workload; collects every result into one file.
fn run_all(args: &Args) -> ExitCode {
    let host = Host::read();
    let shape = args.shape();
    let mut all_ok = true;
    let mut entries = Vec::new();
    for spec in &SPECS {
        let (text, ok) = match run_child(&common_child_args(args, spec.name)) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cannot run {}: {e}", spec.name);
                return ExitCode::FAILURE;
            }
        };
        all_ok &= ok;
        let r = parse_child(&text);
        all_ok &= r.is_some();
        let Some(r) = r else {
            eprintln!("{}: no result line", spec.name);
            continue;
        };
        let metrics: Vec<String> = r
            .metrics
            .iter()
            .map(|m| {
                let reps = if m.reps.is_empty() {
                    String::new()
                } else {
                    let list: Vec<String> = m.reps.iter().map(|v| num(*v)).collect();
                    format!(", \"reps\": [{}]", list.join(", "))
                };
                format!(
                    "      \"{}\": {{\"value\": {}, \"unit\": \"{}\"{reps}}}",
                    json_escape(&m.name),
                    num(m.value),
                    json_escape(m.unit)
                )
            })
            .collect();
        entries.push(format!(
            "    \"{}\": {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{\n{}\n    }}}}",
            spec.name,
            ok && r.failed == 0,
            r.attempted,
            r.failed,
            metrics.join(",\n")
        ));
    }
    let doc = format!(
        "{{\n  \"host\": {{\"nproc\": {}, \"rustc\": \"{}\", \"commit\": \"{}\", \"seed\": {}, \"scale\": {}, \"repetitions\": {}, \"traced\": {}}},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        host.nproc,
        json_escape(&host.rustc),
        json_escape(&host.commit),
        args.seed,
        num(shape.scale),
        shape.repetitions,
        args.traced,
        entries.join(",\n")
    );
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("results.json"));
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, doc));
    match written {
        Ok(()) => println!("results {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Rebuilds a child's result from its `metric` lines and driver line.
fn parse_child(text: &str) -> Option<RunResult> {
    let last = text.lines().rev().find(|l| l.starts_with('{'))?;
    let j = seams::json_parse(last).ok()?;
    let count = |k: &str| j.get(k).and_then(seams::Json::as_num).map(|v| v as u64);
    let mut r = RunResult {
        attempted: count("attempted")?,
        failed: count("failed")?,
        ..RunResult::default()
    };
    for (name, value, _, reps) in text.lines().filter_map(parse_metric_line) {
        let unit = schema::unit_of(&name)?;
        r.metrics.push(report::Metric {
            name,
            value,
            unit,
            reps,
        });
    }
    Some(r)
}

/// Proves verification bites: a clean quick run exits 0, and the same run
/// with one expected byte or one expected count corrupted exits non-zero.
fn selftest() -> ExitCode {
    let child = |workload: &str, traced: bool, corrupt: Option<&str>| {
        let mut v: Vec<String> = ["--workload", workload, "--seed", "1", "--quick", "--trace"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        v.push(u8::from(traced).to_string());
        if let Some(c) = corrupt {
            v.extend(["--corrupt".to_string(), c.to_string()]);
        }
        v
    };
    let cases = [
        ("clean traced run", child("nfs_write_mix", true, None), true),
        (
            "one expected byte corrupted",
            child("nfs_write_mix", true, Some("byte")),
            false,
        ),
        ("clean timed run", child("sim_overload", false, None), true),
        (
            "one expected count corrupted",
            child("sim_overload", false, Some("count")),
            false,
        ),
    ];
    let mut ok = true;
    for (what, argv, want_success) in cases {
        let passed = match run_child(&argv) {
            Ok((text, success)) => {
                let said_correct = text
                    .lines()
                    .last()
                    .is_some_and(|l| l.contains("\"correct\": true"));
                success == want_success && said_correct == want_success
            }
            Err(e) => {
                eprintln!("cannot run the child: {e}");
                false
            }
        };
        println!(
            "selftest {what}: expected exit {}, {}",
            if want_success { "zero" } else { "non-zero" },
            if passed { "ok" } else { "FAILED" }
        );
        ok &= passed;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_main(argv: &[String]) -> Result<ExitCode, String> {
    let (a, b): (Vec<&String>, Vec<&String>) = match argv {
        [a, b] if !a.starts_with("--") => (vec![a], vec![b]),
        [flag, rest @ ..] if flag == "--a" => {
            let split = rest
                .iter()
                .position(|s| s == "--b")
                .ok_or("compare --a ... needs --b ...")?;
            (
                rest[..split].iter().collect(),
                rest[split + 1..].iter().collect(),
            )
        }
        _ => return Err(usage()),
    };
    if a.is_empty() || b.is_empty() {
        return Err("compare needs at least one file per side".into());
    }
    let bench_json = [
        "BENCHMARK.json",
        concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"),
    ]
    .iter()
    .find_map(|p| std::fs::read_to_string(p).ok())
    .ok_or("BENCHMARK.json not found in the current directory or the repository root")?;
    let bounds = compare::parse_bounds(&bench_json)?;
    let load = |paths: &[&String]| -> Result<Vec<compare::Samples>, String> {
        paths
            .iter()
            .map(|p| {
                let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
                compare::parse_results(&text).map_err(|e| format!("{p}: {e}"))
            })
            .collect()
    };
    let rows = compare::compare(&bounds, &load(&a)?, &load(&b)?);
    print!("{}", compare::render(&rows));
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} rows: {} ok, {} worse, {} unresolved (ratios are b/a; the base is a)",
        rows.len(),
        count(stats::Verdict::Ok),
        count(stats::Verdict::Worse),
        count(stats::Verdict::Unresolved)
    );
    Ok(if count(stats::Verdict::Worse) == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "compare") {
        return compare_main(&argv[1..]).unwrap_or_else(|e| {
            eprintln!("{e}");
            ExitCode::from(2)
        });
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.selftest {
        selftest()
    } else if args.all {
        run_all(&args)
    } else {
        run_workload(
            &args,
            args.workload.as_deref().expect("checked by parse_args"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a =
            parse_args(&argv("--workload nfs_hit --seed 9 --seconds 8 --trace 1")).expect("valid");
        assert_eq!(a.workload.as_deref(), Some("nfs_hit"));
        assert_eq!((a.seed, a.seconds, a.traced), (9, Some(8.0), true));
        assert_eq!(
            a.shape(),
            timed::Shape {
                scale: 0.8,
                repetitions: REPETITIONS
            }
        );
        let q = parse_args(&argv("--all --quick")).expect("valid");
        assert_eq!(
            q.shape(),
            timed::Shape {
                scale: QUICK_SCALE,
                repetitions: 1
            }
        );
        assert!(!q.traced && q.seed == 1);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nfs_hit --all",
            "--workload",
            "--workload nfs_hit --trace 2",
            "--workload nfs_hit --seconds 0",
            "--workload nfs_hit --seed x",
            "--workload nfs_hit --bogus",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} must be refused");
        }
    }

    #[test]
    fn a_child_result_round_trips_through_its_output() {
        let text =
            "host nproc 2\nmetric setup_s 0.5 s reps 0.4 0.5 0.6\nmetric allocs_per_req 47 count\n\
                    {\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {}}\n";
        let r = parse_child(text).expect("parses");
        assert_eq!((r.attempted, r.failed, r.metrics.len()), (10, 0, 2));
        assert_eq!(
            (r.metrics[0].name.as_str(), r.metrics[0].value),
            ("setup_s", 0.5)
        );
        assert_eq!(r.metrics[0].reps, [0.4, 0.5, 0.6]);
        assert!(r.metrics[1].reps.is_empty());
        assert!(parse_child("no result here").is_none());
    }
}

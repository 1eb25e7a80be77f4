//! A lightweight wall-clock bench harness (the in-tree criterion
//! replacement).
//!
//! Shape mirrors criterion's enough that a bench file migrates
//! mechanically: a [`Harness`] per bench binary, [`Group`]s with a
//! `bench` function and per-group sample counts. Each measurement
//! auto-calibrates an inner iteration count so sub-microsecond operations
//! are timed over batches, then reports median and p95 over the samples.
//!
//! [`Harness::finish`] writes `BENCH_<name>.json` (at the workspace root
//! by default; `BENCH_JSON_DIR` overrides, created if missing — note a
//! relative path resolves against the bench binary's working directory,
//! which under `cargo bench` is the bench *package* dir) so successive
//! runs of
//! `cargo bench` leave a machine-readable timing trajectory. The
//! `BENCH_SAMPLES` environment variable overrides every group's sample
//! count, e.g. `BENCH_SAMPLES=5` for a smoke run.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Target duration for one timed sample; the calibrated inner iteration
/// count aims each sample at roughly this long.
const TARGET_SAMPLE_NS: u64 = 20_000;
const MAX_INNER_ITERS: u64 = 1 << 20;

/// One bench's aggregated measurements, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// `group/function` name.
    pub name: String,
    /// Timed samples taken.
    pub samples: u32,
    /// Iterations batched inside each sample.
    pub inner_iters: u64,
    /// Median nanoseconds per iteration.
    pub median_ns: u64,
    /// 95th-percentile nanoseconds per iteration.
    pub p95_ns: u64,
    /// Fastest sample.
    pub min_ns: u64,
    /// Slowest sample.
    pub max_ns: u64,
    /// Mean nanoseconds per iteration.
    pub mean_ns: u64,
}

impl BenchResult {
    fn from_samples(name: String, inner_iters: u64, mut per_iter_ns: Vec<u64>) -> Self {
        per_iter_ns.sort_unstable();
        let n = per_iter_ns.len();
        assert!(n > 0, "no samples");
        let median_ns = if n.is_multiple_of(2) {
            (per_iter_ns[n / 2 - 1] + per_iter_ns[n / 2]) / 2
        } else {
            per_iter_ns[n / 2]
        };
        let p95_ns = per_iter_ns[(n * 95).div_ceil(100).clamp(1, n) - 1];
        let mean_ns = per_iter_ns.iter().sum::<u64>() / n as u64;
        BenchResult {
            name,
            samples: n as u32,
            inner_iters,
            median_ns,
            p95_ns,
            min_ns: per_iter_ns[0],
            max_ns: per_iter_ns[n - 1],
            mean_ns,
        }
    }
}

fn human_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// A bench binary's collection of measurements; writes one
/// `BENCH_<name>.json` on [`finish`](Harness::finish).
pub struct Harness {
    name: String,
    results: Vec<BenchResult>,
    metrics: Vec<(String, f64)>,
    threads: Option<usize>,
}

impl Harness {
    /// Creates a harness named after the bench binary (`figures`, ...).
    pub fn new(name: impl Into<String>) -> Self {
        Harness {
            name: name.into(),
            results: Vec::new(),
            metrics: Vec::new(),
            threads: None,
        }
    }

    /// Records the worker-thread count the benches ran with; lands as a
    /// top-level `"threads"` field in `BENCH_<name>.json` so timing
    /// trajectories are comparable run-to-run.
    pub fn threads(&mut self, threads: usize) {
        self.threads = Some(threads);
    }

    /// Attaches a named metric to the run; all metrics land in a
    /// `"metrics"` object in `BENCH_<name>.json`. Use this to embed a
    /// snapshot of workload counters (cache hits, copies, ...) next to
    /// the timings they explain.
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Opens a named group; benches register as `group/function`.
    pub fn group(&mut self, name: impl Into<String>) -> Group<'_> {
        Group {
            harness: self,
            name: name.into(),
            samples: 30,
            warmup: 3,
        }
    }

    /// Prints the summary table and writes `BENCH_<name>.json`. Returns
    /// the results for programmatic use.
    pub fn finish(self) -> Vec<BenchResult> {
        let dir = json_dir();
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("warning: could not create {}: {e}", dir.display());
        }
        let path = dir.join(format!("BENCH_{}.json", self.name));
        let json = render_json(&self.name, self.threads, &self.results, &self.metrics);
        match std::fs::write(&path, &json) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
        self.results
    }
}

/// Where the JSON lands: `BENCH_JSON_DIR`, else the workspace root (two
/// levels above the bench crate's manifest), else the working directory.
fn json_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("BENCH_JSON_DIR") {
        return PathBuf::from(dir);
    }
    if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
        let root = PathBuf::from(manifest).join("../..");
        if root.join("Cargo.toml").exists() {
            return root;
        }
    }
    PathBuf::from(".")
}

fn render_json(
    harness: &str,
    threads: Option<usize>,
    results: &[BenchResult],
    metrics: &[(String, f64)],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"harness\": \"{harness}\",\n"));
    out.push_str("  \"schema\": \"check-bench-v1\",\n");
    if let Some(threads) = threads {
        out.push_str(&format!("  \"threads\": {threads},\n"));
    }
    out.push_str("  \"benches\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"samples\": {}, \"inner_iters\": {}, \
             \"median_ns\": {}, \"p95_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \
             \"mean_ns\": {}",
            r.name, r.samples, r.inner_iters, r.median_ns, r.p95_ns, r.min_ns, r.max_ns,
            r.mean_ns
        ));
        out.push('}');
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]");
    if !metrics.is_empty() {
        out.push_str(",\n  \"metrics\": {\n");
        for (i, (name, value)) in metrics.iter().enumerate() {
            let rendered = if value.fract() == 0.0 && value.abs() < 1e15 {
                format!("{}", *value as i64)
            } else {
                format!("{value}")
            };
            out.push_str(&format!("    \"{name}\": {rendered}"));
            out.push_str(if i + 1 < metrics.len() { ",\n" } else { "\n" });
        }
        out.push_str("  }");
    }
    out.push_str("\n}\n");
    out
}

/// A named group of benches sharing a sample count.
pub struct Group<'a> {
    harness: &'a mut Harness,
    name: String,
    samples: u32,
    warmup: u32,
}

impl Group<'_> {
    /// Sets the number of timed samples per bench (criterion's
    /// `sample_size`). `BENCH_SAMPLES` overrides globally.
    pub fn sample_size(&mut self, samples: u32) -> &mut Self {
        self.samples = samples.max(2);
        self
    }

    fn effective_samples(&self) -> u32 {
        std::env::var("BENCH_SAMPLES")
            .ok()
            .and_then(|s| s.parse().ok())
            .map_or(self.samples, |n: u32| n.max(2))
    }

    /// Times `routine` (criterion's `bench_function` + `iter`): the whole
    /// call is the measured iteration.
    pub fn bench<T>(&mut self, name: &str, mut routine: impl FnMut() -> T) {
        // Calibrate the batch size on untimed runs (doubles as warmup).
        let mut inner = 1u64;
        loop {
            let start = Instant::now();
            for _ in 0..inner {
                black_box(routine());
            }
            let ns = start.elapsed().as_nanos() as u64;
            if ns >= TARGET_SAMPLE_NS || inner >= MAX_INNER_ITERS {
                break;
            }
            inner *= 2;
        }
        for _ in 0..self.warmup {
            for _ in 0..inner {
                black_box(routine());
            }
        }
        let samples = self.effective_samples();
        let mut per_iter = Vec::with_capacity(samples as usize);
        for _ in 0..samples {
            let start = Instant::now();
            for _ in 0..inner {
                black_box(routine());
            }
            per_iter.push((start.elapsed().as_nanos() as u64 / inner).max(1));
        }
        self.record(name, inner, per_iter);
    }

    fn record(&mut self, name: &str, inner: u64, per_iter: Vec<u64>) {
        let full = format!("{}/{}", self.name, name);
        let r = BenchResult::from_samples(full, inner, per_iter);
        println!(
            "bench {:<40} median {:>10}  p95 {:>10}",
            r.name,
            human_ns(r.median_ns),
            human_ns(r.p95_ns)
        );
        self.harness.results.push(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_over_known_samples() {
        let r = BenchResult::from_samples("g/f".into(), 1, (1..=100).collect());
        assert_eq!(r.median_ns, 50); // (50 + 51) / 2
        assert_eq!(r.p95_ns, 95);
        assert_eq!(r.min_ns, 1);
        assert_eq!(r.max_ns, 100);
        assert_eq!(r.mean_ns, 50);
    }

    #[test]
    fn bench_measures_and_records() {
        let mut h = Harness::new("selftest");
        let mut g = h.group("unit");
        g.sample_size(3);
        g.bench("spin", || {
            let mut x = 0u64;
            for i in 0..100 {
                x = x.wrapping_add(black_box(i));
            }
            x
        });
        assert_eq!(h.results.len(), 1);
        assert!(h.results.iter().all(|r| r.median_ns >= 1));
        assert_eq!(h.results[0].name, "unit/spin");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let r = BenchResult::from_samples("a/b".into(), 2, vec![10, 20, 30]);
        let json = render_json("t", None, &[r], &[]);
        assert!(json.contains("\"name\": \"a/b\""));
        assert!(json.contains("\"median_ns\": 20"));
        assert!(!json.contains("\"metrics\""));
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn json_embeds_metrics() {
        let r = BenchResult::from_samples("a/b".into(), 2, vec![10, 20, 30]);
        let metrics = vec![
            ("cache.hits".to_string(), 42.0),
            ("throughput_mbs".to_string(), 12.5),
        ];
        let json = render_json("t", Some(4), &[r], &metrics);
        assert!(json.contains("\"threads\": 4"));
        assert!(json.contains("\"metrics\": {"));
        assert!(json.contains("\"cache.hits\": 42"));
        assert!(json.contains("\"throughput_mbs\": 12.5"));
        assert!(json.ends_with("}\n"));
    }
}

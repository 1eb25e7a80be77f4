//! `hostbench compare`: applies the per-metric bounds of `BENCHMARK.json`
//! to two sets of result files and prints one row per (workload, metric).
//!
//! A side given as several files is several runs; a side given as one
//! file falls back on the per-repetition values recorded in it. Where the
//! run-to-run spread is wider than the bound the row reads `unresolved`,
//! not `ok` (choosing-metrics §6.5).

use std::collections::BTreeMap;

use crate::seams::{json_parse, Json};
use crate::stats::{judge, median, quartiles, worsening, Better, Verdict};

/// `(unit, better, bound)` of an end-to-end metric, by name.
pub type Bounds = Vec<(String, String, Better, f64)>;

/// Reads the end-to-end metric list out of `BENCHMARK.json` text.
pub fn parse_bounds(text: &str) -> Result<Bounds, String> {
    let j = json_parse(text)?;
    let list = j
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .ok_or(format!("metric without {k}"))
            };
            let better = Better::parse(s("better")?).ok_or("better must be lower or higher")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_num)
                .ok_or("metric without bound")?;
            Ok((
                s("name")?.to_string(),
                s("unit")?.to_string(),
                better,
                bound,
            ))
        })
        .collect()
}

/// `workload → metric → samples` of one result file: the recorded
/// repetitions where there are any, else the single value.
pub type Samples = BTreeMap<String, BTreeMap<String, (f64, Vec<f64>)>>;

/// Parses a result file written by `hostbench --all`.
pub fn parse_results(text: &str) -> Result<Samples, String> {
    let j = json_parse(text)?;
    let workloads = j
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("result file has no workloads object")?;
    let mut out = Samples::new();
    for (name, w) in workloads {
        let metrics = w
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or(format!("{name}: no metrics object"))?;
        let entry = out.entry(name.clone()).or_default();
        for (metric, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_num)
                .ok_or(format!("{name}.{metric}: no value"))?;
            let reps = m
                .get("reps")
                .and_then(Json::as_arr)
                .map(|r| r.iter().filter_map(Json::as_num).collect())
                .unwrap_or_default();
            entry.insert(metric.clone(), (value, reps));
        }
    }
    Ok(out)
}

/// One side's runs of one (workload, metric): one value per file, or the
/// recorded repetitions when the side is a single file.
fn side_samples(files: &[Samples], workload: &str, metric: &str) -> Vec<f64> {
    let found: Vec<&(f64, Vec<f64>)> = files
        .iter()
        .filter_map(|f| f.get(workload).and_then(|w| w.get(metric)))
        .collect();
    match found.as_slice() {
        [(value, reps)] if reps.is_empty() => vec![*value],
        [(_, reps)] => reps.clone(),
        many => many.iter().map(|(v, _)| *v).collect(),
    }
}

/// One comparison row.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: f64,
    pub b: f64,
    /// `b / a`; the base is `a`.
    pub ratio: f64,
    pub worsening: f64,
    pub bound: f64,
    pub verdict: Verdict,
    /// Quartiles of each side when it has at least two runs.
    pub a_quartiles: Option<(f64, f64)>,
    pub b_quartiles: Option<(f64, f64)>,
    /// Pairs `b` won and pairs run, when the sides pair up file by file.
    pub wins: Option<(usize, usize)>,
}

/// Compares side `b` against side `a` under `bounds`.
pub fn compare(bounds: &Bounds, a: &[Samples], b: &[Samples]) -> Vec<Row> {
    let mut rows = Vec::new();
    let workloads: Vec<&String> = a.first().map(|f| f.keys().collect()).unwrap_or_default();
    for workload in workloads {
        for (metric, unit, better, bound) in bounds {
            let sa = side_samples(a, workload, metric);
            let sb = side_samples(b, workload, metric);
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&sa), median(&sb));
            let paired = a.len() == b.len() && a.len() > 1 && sa.len() == sb.len();
            let wins = paired.then(|| {
                let won = sa
                    .iter()
                    .zip(&sb)
                    .filter(|(x, y)| worsening(**x, **y, *better) < 0.0)
                    .count();
                (won, sa.len())
            });
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.clone(),
                unit: unit.clone(),
                a: ma,
                b: mb,
                ratio: mb / ma,
                worsening: worsening(ma, mb, *better),
                bound: *bound,
                verdict: judge(&sa, &sb, *better, *bound),
                a_quartiles: quartiles(&sa),
                b_quartiles: quartiles(&sb),
                wins,
            });
        }
    }
    rows
}

/// Renders rows as an aligned table, one per line.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<14} {:<26} {:>14} {:>14} {:>9} {:>9} {:>7}  {}\n",
        "workload", "metric", "a (base)", "b", "b/a", "worse by", "bound", "verdict"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:<26} {:>14.6} {:>14.6} {:>9.4} {:>8.2}% {:>6.1}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.ratio,
            100.0 * r.worsening,
            100.0 * r.bound,
            r.verdict.label()
        ));
        if let (Some((a1, a3)), Some((b1, b3))) = (r.a_quartiles, r.b_quartiles) {
            out.push_str(&format!(
                "  a q1..q3 {a1:.6}..{a3:.6}  b q1..q3 {b1:.6}..{b3:.6}"
            ));
        }
        if let Some((won, of)) = r.wins {
            out.push_str(&format!("  b wins {won}/{of}"));
        }
        out.push_str(&format!("  [{}]\n", r.unit));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{"end_to_end": [
        {"name": "req_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "allocs_per_req", "unit": "count", "better": "lower", "bound": 0.0}]}"#;

    fn file(rate: f64, reps: &str, allocs: f64) -> Samples {
        parse_results(&format!(
            r#"{{"host": {{}}, "workloads": {{"w": {{"correct": true, "metrics": {{
                "req_per_s": {{"value": {rate}, "unit": "1/s", "reps": [{reps}]}},
                "allocs_per_req": {{"value": {allocs}, "unit": "count"}}}}}}}}}}"#
        ))
        .expect("valid result file")
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let b = parse_bounds(BENCH).expect("valid");
        assert_eq!(b.len(), 2);
        assert_eq!(
            b[0],
            ("req_per_s".into(), "1/s".into(), Better::Higher, 0.1)
        );
        assert!(parse_bounds("{}").is_err());
    }

    #[test]
    fn single_files_compare_their_repetitions() {
        let bounds = parse_bounds(BENCH).expect("valid");
        let a = [file(100.0, "99, 100, 101, 100, 100", 47.0)];
        let ok = compare(&bounds, &a, &[file(95.0, "94, 95, 96, 95, 95", 47.0)]);
        assert_eq!(ok[0].verdict, Verdict::Ok);
        assert!((ok[0].ratio - 0.95).abs() < 1e-12);
        assert_eq!(ok[1].verdict, Verdict::Ok);
        let worse = compare(&bounds, &a, &[file(80.0, "79, 80, 81, 80, 80", 48.0)]);
        assert_eq!(worse[0].verdict, Verdict::Worse);
        assert_eq!(
            worse[1].verdict,
            Verdict::Worse,
            "exact metrics take no worsening"
        );
        let noisy = compare(&bounds, &a, &[file(95.0, "60, 95, 130, 80, 110", 47.0)]);
        assert_eq!(noisy[0].verdict, Verdict::Unresolved);
    }

    #[test]
    fn several_files_per_side_are_several_runs() {
        let bounds = parse_bounds(BENCH).expect("valid");
        let a: Vec<Samples> = [100.0, 101.0, 99.0]
            .iter()
            .map(|r| file(*r, "1, 2", 47.0))
            .collect();
        let b: Vec<Samples> = [103.0, 104.0, 98.0]
            .iter()
            .map(|r| file(*r, "1, 2", 47.0))
            .collect();
        let rows = compare(&bounds, &a, &b);
        assert_eq!(rows[0].a, 100.0);
        assert_eq!(rows[0].b, 103.0);
        assert_eq!(rows[0].wins, Some((2, 3)));
        assert!(rows[0].a_quartiles.is_some());
        let text = render(&rows);
        assert!(text.contains("b wins 2/3") && text.contains("ok"), "{text}");
    }
}

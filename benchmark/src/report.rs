//! Result records and their two renderings: the `metric` lines a person
//! (and `--all`) reads, and the one-line JSON object the driver reads.

use crate::seams::json_escape;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// The per-repetition values behind a median (empty for exact counts).
    pub reps: Vec<f64>,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
            reps: Vec::new(),
        }
    }

    /// A metric whose value is the median of `reps`.
    pub fn median_of(name: &str, reps: Vec<f64>, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value: crate::stats::median(&reps),
            unit,
            reps,
        }
    }
}

/// What one run of one workload produced.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Failure descriptions and other remarks for the log.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// A float with all its digits, in a form JSON accepts.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `metric <name> <value> <unit> [reps v1 v2 ...]` — one per line.
pub fn metric_line(m: &Metric) -> String {
    let mut line = format!("metric {} {} {}", m.name, num(m.value), m.unit);
    if !m.reps.is_empty() {
        line.push_str(" reps");
        for r in &m.reps {
            line.push(' ');
            line.push_str(&num(*r));
        }
    }
    line
}

/// Parses a [`metric_line`] back into `(name, value, unit, reps)`.
pub fn parse_metric_line(line: &str) -> Option<(String, f64, String, Vec<f64>)> {
    let mut it = line.split_whitespace();
    if it.next()? != "metric" {
        return None;
    }
    let name = it.next()?.to_string();
    let value = it.next()?.parse().ok()?;
    let unit = it.next()?.to_string();
    let mut reps = Vec::new();
    if it.next() == Some("reps") {
        for r in it {
            reps.push(r.parse().ok()?);
        }
    }
    Some((name, value, unit, reps))
}

/// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn driver_json(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_escape(&m.name),
                num(m.value),
                json_escape(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seams::json_parse;

    #[test]
    fn metric_lines_round_trip() {
        let m = Metric::median_of("req_per_s", vec![3.5, 1.25, 2.0], "1/s");
        assert_eq!(m.value, 2.0);
        let line = metric_line(&m);
        assert_eq!(line, "metric req_per_s 2 1/s reps 3.5 1.25 2");
        assert_eq!(
            parse_metric_line(&line),
            Some((
                "req_per_s".to_string(),
                2.0,
                "1/s".to_string(),
                vec![3.5, 1.25, 2.0]
            ))
        );
        let exact = Metric::new("allocs_per_req", 47.0, "count");
        assert_eq!(
            parse_metric_line(&metric_line(&exact)),
            Some((
                "allocs_per_req".to_string(),
                47.0,
                "count".to_string(),
                vec![]
            ))
        );
        assert_eq!(parse_metric_line("host nproc 2"), None);
    }

    #[test]
    fn driver_json_has_exactly_the_contract_keys() {
        let r = RunResult {
            attempted: 10,
            failed: 0,
            metrics: vec![Metric::new("setup_s", 0.8127, "s")],
            notes: vec![],
        };
        let parsed = json_parse(&driver_json(&r)).expect("valid JSON");
        let keys: Vec<&str> = parsed
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = parsed
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(|v| v.as_num()), Some(0.8127));
        assert_eq!(m.get("unit").and_then(|v| v.as_str()), Some("s"));
    }
}

//! [`StatsSnapshot`]: one trait unifying the workspace's per-component
//! statistics structs, and [`MetricsReport`], the single renderer that
//! replaces their ad-hoc pretty-printing.

use crate::hist::HistogramSnapshot;
use std::collections::BTreeMap;

/// The runner's stage names, in pipeline order. Fixed here so rendered
/// reports list stages in execution order (not alphabetically) and the
/// bottleneck tie-break is deterministic.
const STAGE_ORDER: [&str; 7] = [
    "app-rx",
    "app-cpu",
    "app-tx",
    "storage-rx",
    "storage-cpu",
    "storage-tx",
    "disk",
];

/// A uniform, read-only view over a component's statistics: a source name
/// plus named counters. Every `*Stats` struct in the workspace implements
/// this so `repro --metrics`, the examples, and the bench harness can
/// render any of them identically.
pub trait StatsSnapshot {
    /// Stable component name ("fs-cache", "nfs-server", "copy-ledger", ...).
    fn source(&self) -> &'static str;
    /// Counter names and values, in render order.
    fn counters(&self) -> Vec<(&'static str, u64)>;
}

/// An assembled multi-component metrics summary with one deterministic
/// text rendering.
///
/// # Examples
///
/// ```
/// use obs::{MetricsReport, StatsSnapshot};
///
/// struct Demo;
/// impl StatsSnapshot for Demo {
///     fn source(&self) -> &'static str { "demo" }
///     fn counters(&self) -> Vec<(&'static str, u64)> { vec![("ops", 3)] }
/// }
///
/// let mut rep = MetricsReport::new();
/// rep.add_snapshot("app", &Demo);
/// let text = rep.render();
/// assert!(text.contains("app [demo]"));
/// assert!(text.contains("ops"));
/// ```
#[derive(Clone, Debug, Default)]
pub struct MetricsReport {
    sections: Vec<(String, Vec<(String, String)>)>,
}

impl MetricsReport {
    /// An empty report.
    pub fn new() -> Self {
        MetricsReport::default()
    }

    /// Appends a component snapshot as a section titled
    /// `"<label> [<source>]"`.
    pub fn add_snapshot(&mut self, label: &str, snap: &dyn StatsSnapshot) {
        let entries = snap
            .counters()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        self.sections
            .push((format!("{} [{}]", label, snap.source()), entries));
    }

    /// Appends a free-form section of pre-rendered entries.
    pub fn add_section(&mut self, label: &str, entries: Vec<(String, String)>) {
        self.sections.push((label.to_string(), entries));
    }

    /// Appends recorder counters as one section, sorted by name.
    pub fn add_counters(&mut self, label: &str, counters: &BTreeMap<String, u64>) {
        let entries = counters
            .iter()
            .map(|(k, v)| (k.clone(), v.to_string()))
            .collect();
        self.sections.push((label.to_string(), entries));
    }

    /// Appends the latency-attribution view of a recorder's histogram
    /// map: a `latency` section (count / mean / tail quantiles per data
    /// path) and a `stages` section (queue and service sums per pipeline
    /// stage, each stage's share of total end-to-end latency, and a
    /// `bottleneck` line naming the dominant stage). Stage shares are
    /// derived from sums that reconcile exactly against the end-to-end
    /// latencies, so they total 100% up to per-stage rounding. No-op
    /// when no request latencies were recorded.
    pub fn add_latency(&mut self, hists: &BTreeMap<String, HistogramSnapshot>) {
        let Some(total) = hists.get("request.latency_ns") else {
            return;
        };
        let quantiles = |h: &HistogramSnapshot| {
            format!(
                "count {:>8}  mean {:>10}  p50 {:>10}  p90 {:>10}  p99 {:>10}  p999 {:>10}  max {:>10}",
                h.count,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
                h.quantile(0.999),
                h.max,
            )
        };
        let mut entries = vec![("all".to_string(), quantiles(total))];
        for path in ["hit", "substitution", "disk"] {
            if let Some(h) = hists.get(&format!("request.latency_ns.{path}")) {
                entries.push((path.to_string(), quantiles(h)));
            }
        }
        self.add_section("latency [request.latency_ns]", entries);

        // Integer permille of the total latency sum: deterministic, and
        // exact enough that the shares visibly account for all the time.
        let share = |ns: u64| {
            let permille = (ns * 1000).checked_div(total.sum).unwrap_or(0);
            format!("{:>3}.{}%", permille / 10, permille % 10)
        };
        let mut entries = Vec::new();
        let mut bottleneck: Option<(&str, u64)> = None;
        for stage in STAGE_ORDER {
            let q = hists.get(&format!("stage.{stage}.queue_ns"));
            let s = hists.get(&format!("stage.{stage}.service_ns"));
            if q.is_none() && s.is_none() {
                continue;
            }
            let qsum = q.map_or(0, |h| h.sum);
            let ssum = s.map_or(0, |h| h.sum);
            entries.push((
                stage.to_string(),
                format!(
                    "queue {:>12}  service {:>12}  share {}",
                    qsum,
                    ssum,
                    share(qsum + ssum)
                ),
            ));
            if bottleneck.is_none_or(|(_, best)| qsum + ssum > best) {
                bottleneck = Some((stage, qsum + ssum));
            }
        }
        if let Some((stage, ns)) = bottleneck {
            entries.push((
                "bottleneck".to_string(),
                format!("{stage} ({} of end-to-end latency)", share(ns).trim_start()),
            ));
        }
        self.add_section("stages [queue/service ns]", entries);
    }

    /// Renders the report as aligned plain text, sections in insertion
    /// order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (title, entries) in &self.sections {
            out.push_str(title);
            out.push('\n');
            let width = entries.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
            for (k, v) in entries {
                out.push_str(&format!("  {k:<width$}  {v}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake;
    impl StatsSnapshot for Fake {
        fn source(&self) -> &'static str {
            "fake"
        }
        fn counters(&self) -> Vec<(&'static str, u64)> {
            vec![("alpha", 1), ("beta_longer", 22)]
        }
    }

    #[test]
    fn renders_aligned_sections_in_order() {
        let mut rep = MetricsReport::new();
        rep.add_snapshot("first", &Fake);
        rep.add_section(
            "second",
            vec![("k".to_string(), "v".to_string())],
        );
        let text = rep.render();
        let first = text.find("first [fake]").unwrap();
        let second = text.find("second").unwrap();
        assert!(first < second);
        assert!(text.contains("  alpha        1\n"));
        assert!(text.contains("  beta_longer  22\n"));
    }

    #[test]
    fn latency_sections_render_quantiles_and_bottleneck() {
        use crate::hist::Histogram;
        let mut hists = BTreeMap::new();
        let mut record = |key: &str, vals: &[u64]| {
            let mut h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            hists.insert(key.to_string(), h.snapshot());
        };
        record("request.latency_ns", &[1000, 1000, 2000]);
        record("request.latency_ns.hit", &[1000, 1000]);
        record("request.latency_ns.disk", &[2000]);
        record("stage.app-cpu.queue_ns", &[0, 0, 0]);
        record("stage.app-cpu.service_ns", &[500, 500, 500]);
        record("stage.disk.queue_ns", &[100]);
        record("stage.disk.service_ns", &[2400]);
        let mut rep = MetricsReport::new();
        rep.add_latency(&hists);
        let text = rep.render();
        assert!(text.contains("latency [request.latency_ns]"), "{text}");
        assert!(text.contains("p999"), "{text}");
        // disk carries 2500 of 4000 total ns → 62.5%, the bottleneck.
        assert!(text.contains("share  62.5%"), "{text}");
        assert!(text.contains("bottleneck"), "{text}");
        assert!(text.contains("disk (62.5% of end-to-end latency)"), "{text}");
        // No request histogram → no sections.
        let mut empty = MetricsReport::new();
        empty.add_latency(&BTreeMap::new());
        assert!(empty.sections.is_empty());
    }

    #[test]
    fn counters_section_is_sorted() {
        let mut counters = BTreeMap::new();
        counters.insert("z".to_string(), 1u64);
        counters.insert("a".to_string(), 2u64);
        let mut rep = MetricsReport::new();
        rep.add_counters("trace counters", &counters);
        let text = rep.render();
        assert!(text.find("a").unwrap() < text.find("z").unwrap());
        assert!(!rep.sections.is_empty());
    }
}

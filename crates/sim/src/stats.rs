//! Measurement helpers: the throughput meter and the series tables the
//! benchmark harness prints for each paper figure.

use std::collections::BTreeMap;
use std::fmt;

use crate::time::SimTime;

/// Accumulates delivered payload bytes and completed operations over
/// simulated time, and reports throughput the way the paper does
/// (MB/s for micro-benchmarks, ops/s for SPECsfs).
///
/// # Examples
///
/// ```
/// use sim::stats::Throughput;
/// use sim::time::SimTime;
///
/// let mut t = Throughput::default();
/// t.record(1_000_000);
/// t.record(1_000_000);
/// assert_eq!(t.ops(), 2);
/// let mbs = t.megabytes_per_sec(SimTime::from_secs(1));
/// assert!((mbs - 2.0).abs() < 1e-9);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Throughput {
    bytes: u64,
    ops: u64,
}

impl Throughput {
    /// Records one completed operation that delivered `payload` bytes.
    pub fn record(&mut self, payload: u64) {
        self.bytes += payload;
        self.ops += 1;
    }

    /// Total payload bytes delivered.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Total operations completed.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Throughput in decimal megabytes per second over `[0, now]`.
    pub fn megabytes_per_sec(&self, now: SimTime) -> f64 {
        let secs = now.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.bytes as f64 / 1e6 / secs
        }
    }

    /// Throughput in operations per second over `[0, now]`.
    pub fn ops_per_sec(&self, now: SimTime) -> f64 {
        let secs = now.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.ops as f64 / secs
        }
    }
}

/// One row of a figure/table: an x-value plus named y-values, in insertion
/// order per series name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SeriesTable {
    title: String,
    x_label: String,
    columns: Vec<String>,
    rows: Vec<(f64, BTreeMap<String, f64>)>,
}

impl SeriesTable {
    /// Creates an empty table for a figure.
    pub fn new(title: impl Into<String>, x_label: impl Into<String>) -> Self {
        SeriesTable {
            title: title.into(),
            x_label: x_label.into(),
            columns: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Adds (or extends) the row at `x` with `series = y`.
    pub fn put(&mut self, x: f64, series: &str, y: f64) {
        if !self.columns.iter().any(|c| c == series) {
            self.columns.push(series.to_string());
        }
        if let Some((_, m)) = self
            .rows
            .iter_mut()
            .find(|(rx, _)| (*rx - x).abs() < f64::EPSILON)
        {
            m.insert(series.to_string(), y);
        } else {
            let mut m = BTreeMap::new();
            m.insert(series.to_string(), y);
            self.rows.push((x, m));
        }
    }

    /// Value at `(x, series)`, if present.
    pub fn get(&self, x: f64, series: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|(rx, _)| (*rx - x).abs() < f64::EPSILON)
            .and_then(|(_, m)| m.get(series).copied())
    }

    /// All x-values in insertion order.
    pub fn xs(&self) -> Vec<f64> { // test-api: the typed figure claims walk a table's axis
        self.rows.iter().map(|(x, _)| *x).collect()
    }

    /// All series names in insertion order.
    pub fn series(&self) -> &[String] { // test-api: the overload sweep's test sums every stage's share
        &self.columns
    }
}

impl fmt::Display for SeriesTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# {}", self.title)?;
        write!(f, "{:>14}", self.x_label)?;
        for c in &self.columns {
            write!(f, " {c:>16}")?;
        }
        writeln!(f)?;
        for (x, m) in &self.rows {
            write!(f, "{x:>14.1}")?;
            for c in &self.columns {
                match m.get(c) {
                    Some(y) => write!(f, " {y:>16.2}")?,
                    None => write!(f, " {:>16}", "-")?,
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_reports_mb_and_ops() {
        let mut t = Throughput::default();
        for _ in 0..10 {
            t.record(500_000);
        }
        let at = SimTime::from_secs(2);
        assert_eq!(t.bytes(), 5_000_000);
        assert!((t.megabytes_per_sec(at) - 2.5).abs() < 1e-9);
        assert!((t.ops_per_sec(at) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_zero_elapsed_is_zero() {
        let mut t = Throughput::default();
        t.record(100);
        assert_eq!(t.megabytes_per_sec(SimTime::ZERO), 0.0);
        assert_eq!(t.ops_per_sec(SimTime::ZERO), 0.0);
    }

    #[test]
    fn series_table_round_trip() {
        let mut t = SeriesTable::new("Fig X", "req KB");
        t.put(4.0, "original", 10.0);
        t.put(4.0, "ncache", 15.0);
        t.put(8.0, "original", 20.0);
        assert_eq!(t.get(4.0, "ncache"), Some(15.0));
        assert_eq!(t.get(8.0, "ncache"), None);
        assert_eq!(t.xs(), vec![4.0, 8.0]);
        assert_eq!(t.series(), &["original".to_string(), "ncache".to_string()]);
        let s = t.to_string();
        assert!(s.contains("Fig X"));
        assert!(s.contains("original"));
        assert!(s.contains('-'), "missing cells print a dash");
    }
}

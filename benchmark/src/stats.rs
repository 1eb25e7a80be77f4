//! The benchmark's arithmetic: medians, the supported percentile, the
//! quartile spread the acceptance rule uses, and the bound verdict.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count); NaN for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The first and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let q = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Distance between the quartiles as a share of the median: the spread
/// the acceptance rule compares with a metric's bound. 0 when fewer than
/// two values or a zero median leave it undefined.
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => ((q3 - q1) / med).abs(),
        _ => 0.0,
    }
}

/// The highest percentile of `samples` with at least ten samples beyond
/// it, among p99.9, p99, p95, p90, p75 and p50 — capped at `want`.
/// Returns `(percentile, value)`; `None` when even the median lacks ten
/// samples above it.
pub fn supported_percentile(samples: &mut [u64], want: f64) -> Option<(f64, u64)> {
    samples.sort_unstable();
    let n = samples.len();
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .filter(|&p| p <= want)
        .find_map(|p| {
            // Nearest-rank index of the percentile.
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            let idx = rank.max(1) - 1;
            (n > idx && n - 1 - idx >= 10).then(|| (p, samples[idx]))
        })
}

/// How `b` reads against `a` under a metric's bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is no worse than `a` by more than the bound.
    Ok,
    /// `b` is worse than `a` by more than the bound, and the runs resolve it.
    Worse,
    /// The run-to-run spread is wider than the bound, so a change of the
    /// bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of `a`'s median `b`'s median is worse (negative = better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if a == b { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Applies a bound to two sets of runs (choosing-metrics §6.5): compare
/// medians; where either side's spread is wider than the bound the pair
/// is unresolved, unless every run of `b` reads better than every run of
/// `a`.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let noisy = spread(a).max(spread(b)) > bound;
    if noisy {
        let all_better = match better {
            Better::Lower => sorted(b).last() < sorted(a).first(),
            Better::Higher => sorted(b).first() > sorted(a).last(),
        };
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    // A relative tolerance below any measurable difference keeps exact
    // counts that differ only in float formatting from reading as worse.
    if worsening(median(a), median(b), better) > bound + 1e-12 {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[7.0]), 0.0);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 has exactly ten beyond it (ranks 991..1000).
        let mut s: Vec<u64> = (1..=1000).collect();
        assert_eq!(supported_percentile(&mut s, 99.0), Some((99.0, 990)));
        // p99.9 of 1000 has one sample beyond it: falls back to p99.
        assert_eq!(supported_percentile(&mut s, 99.9), Some((99.0, 990)));
        // 100 samples: p99 has none beyond, p95 five, p90 ten.
        let mut s: Vec<u64> = (1..=100).collect();
        assert_eq!(supported_percentile(&mut s, 99.0), Some((90.0, 90)));
        // The median of 20 samples has ten above it; of 19, nine.
        let mut s: Vec<u64> = (1..=20).collect();
        assert_eq!(supported_percentile(&mut s, 50.0), Some((50.0, 10)));
        let mut s: Vec<u64> = (1..=19).collect();
        assert_eq!(supported_percentile(&mut s, 99.0), None);
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
        assert_eq!(worsening(0.0, 1.0, Better::Lower), f64::INFINITY);
    }

    #[test]
    fn judge_applies_the_bound_to_medians() {
        let a = [100.0, 100.0, 100.0];
        assert_eq!(
            judge(&a, &[106.0, 106.0, 106.0], Better::Lower, 0.07),
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &[108.0, 108.0, 108.0], Better::Lower, 0.07),
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &[92.0, 92.0, 92.0], Better::Higher, 0.07),
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &[94.0, 94.0, 94.0], Better::Higher, 0.07),
            Verdict::Ok
        );
        // Exact metrics: any worsening at bound 0 is worse, equality is ok.
        assert_eq!(judge(&[47.0], &[47.0], Better::Lower, 0.0), Verdict::Ok);
        assert_eq!(judge(&[47.0], &[48.0], Better::Lower, 0.0), Verdict::Worse);
        assert_eq!(judge(&[47.0], &[46.0], Better::Lower, 0.0), Verdict::Ok);
    }

    #[test]
    fn judge_reports_noise_wider_than_the_bound_as_unresolved() {
        let a = [100.0, 80.0, 120.0, 90.0, 110.0];
        let b = [101.0, 85.0, 118.0, 95.0, 107.0];
        assert_eq!(judge(&a, &b, Better::Lower, 0.07), Verdict::Unresolved);
        // ... unless every run of b beats every run of a.
        let clear = [50.0, 60.0, 55.0, 58.0, 52.0];
        assert_eq!(judge(&a, &clear, Better::Lower, 0.07), Verdict::Ok);
        assert_eq!(judge(&clear, &a, Better::Higher, 0.07), Verdict::Ok);
    }
}

//! The fine-grained quantile engine: a sub-bucketed log₂ histogram
//! (HDR-style) whose tail quantiles are accurate to one sub-bucket.
//!
//! Layout: values below `SUBS` land in exact width-1 buckets; above
//! that, each power-of-two octave splits into `SUBS` equal sub-buckets,
//! bounding the relative quantile error at `1 / SUBS` (6.25%). The bucket
//! index of a value is a pure function of the value, so merging two
//! histograms bucket-wise ([`Histogram::absorb`]) is exactly equivalent
//! to recording both value streams into one histogram — the property the
//! parallel experiment executor relies on for thread-count-invariant
//! latency reports.

/// Sub-buckets per octave (and the width of the exact low range).
const SUBS: u64 = 16;
/// log₂ of [`SUBS`].
const SUB_BITS: u32 = 4;
/// One past the largest representable bucket index (`bucket_index(u64::MAX)`).
const MAX_BUCKETS: usize = 976;

/// The bucket index holding `v`. Strictly monotone in `v` (non-strictly:
/// buckets hold ranges), continuous at the exact/sub-bucketed boundary,
/// and bounded by [`MAX_BUCKETS`].
fn bucket_index(v: u64) -> usize {
    if v < SUBS {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    // Sub-bucket: the SUB_BITS bits right below the leading one.
    let sub = (v >> (msb - SUB_BITS)) - SUBS;
    (SUBS as usize) + (msb - SUB_BITS) as usize * SUBS as usize + sub as usize
}

/// The inclusive value range `[lo, hi]` bucket `i` holds.
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < 2 * SUBS as usize {
        return (i as u64, i as u64);
    }
    let g = (i - SUBS as usize) / SUBS as usize;
    let sub = (i - SUBS as usize) % SUBS as usize;
    let lo = (SUBS + sub as u64) << g;
    (lo, lo + ((1u64 << g) - 1))
}

/// A mergeable sub-bucketed histogram of `u64` samples (sim-time
/// nanoseconds, byte counts). Buckets allocate lazily up to the largest
/// index actually hit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let idx = bucket_index(v);
        debug_assert!(idx < MAX_BUCKETS);
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        if self.count == 0 || v < self.min {
            self.min = v;
        }
        self.max = self.max.max(v);
        self.count += 1;
        self.sum += v;
    }

    /// Merges `other` into `self`, bucket-wise. Because a sample's bucket
    /// depends only on its value, the merge equals recording both streams
    /// into one histogram, in any order.
    pub fn absorb(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        if self.count == 0 || other.min < self.min {
            self.min = other.min;
        }
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// An immutable snapshot (canonical: trailing empty buckets trimmed,
    /// so equal sample multisets snapshot equal regardless of history).
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.clone().into_snapshot()
    }

    /// [`Histogram::snapshot`] without copying the buckets.
    pub fn into_snapshot(mut self) -> HistogramSnapshot {
        while self.buckets.last() == Some(&0) {
            self.buckets.pop();
        }
        HistogramSnapshot {
            buckets: self.buckets,
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
        }
    }
}

/// A point-in-time view of a [`Histogram`], with quantile queries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (see [`Histogram`] for the bucket layout).
    pub buckets: Vec<u64>,
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value.
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The `p`-quantile of the recorded samples, `0.0 ≤ p ≤ 1.0`.
    ///
    /// Semantics: an empty histogram returns 0; `p ≤ 0` returns the
    /// minimum and `p ≥ 1` the maximum (both exact). Otherwise the result
    /// is the value at rank `⌈p·count⌉` (1-based): the bucket holding
    /// that rank is located, and the estimate interpolates linearly
    /// within the bucket's `[lo, hi]` range by the rank's position among
    /// the bucket's samples, clamped to `[min, max]`. Values below 32 sit
    /// in width-1 buckets, so small quantiles are exact; above that the
    /// estimate errs by at most one sub-bucket (≤ 6.25% of the value).
    /// The result is monotone non-decreasing in `p`.
    pub fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if p <= 0.0 {
            return self.min;
        }
        if p >= 1.0 {
            return self.max;
        }
        // ceil(p * count), clamped into [1, count]. The product is exact
        // enough: counts here are far below 2^53.
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let (lo, hi) = bucket_bounds(i);
                let r = rank - seen; // 1-based rank within this bucket
                let est = lo + (hi - lo) * r / n;
                return est.clamp(self.min, self.max);
            }
            seen += n;
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_continuous() {
        // Exhaustive over the exact range and the first octaves.
        let mut prev = bucket_index(0);
        for v in 1..=4096u64 {
            let idx = bucket_index(v);
            assert!(idx >= prev, "monotone at {v}");
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= v && v <= hi, "{v} in [{lo},{hi}]");
            prev = idx;
        }
        // Spot-check the top: u64::MAX must fit.
        assert!(bucket_index(u64::MAX) < MAX_BUCKETS);
        let (lo, hi) = bucket_bounds(bucket_index(u64::MAX));
        assert!(lo <= hi && hi == u64::MAX);
        // Values below 2*SUBS are exact.
        for v in 0..32u64 {
            assert_eq!(bucket_bounds(bucket_index(v)), (v, v));
        }
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.quantile(0.0), 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.quantile(1.0), 0);
    }

    #[test]
    fn quantile_of_single_sample_is_that_sample() {
        for v in [0u64, 1, 31, 32, 1_000_000, u64::MAX] {
            let mut h = Histogram::new();
            h.record(v);
            let s = h.snapshot();
            for p in [0.0, 0.001, 0.5, 0.999, 1.0] {
                assert_eq!(s.quantile(p), v, "p={p} v={v}");
            }
        }
    }

    #[test]
    fn quantile_edges_are_min_and_max() {
        let mut h = Histogram::new();
        for v in [5u64, 10, 100, 5_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.0), 5);
        assert_eq!(s.quantile(-1.0), 5);
        assert_eq!(s.quantile(1.0), 5_000);
        assert_eq!(s.quantile(2.0), 5_000);
    }

    #[test]
    fn small_quantiles_are_exact() {
        // Values < 32 occupy exact buckets: every quantile is a sample.
        let mut h = Histogram::new();
        for v in 0..20u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.05), 0); // rank 1
        assert_eq!(s.quantile(0.5), 9); // rank 10
        assert_eq!(s.quantile(0.95), 18); // rank 19
        assert_eq!(s.quantile(1.0), 19);
    }

    #[test]
    fn large_quantiles_within_subbucket_error() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 1000);
        }
        let s = h.snapshot();
        for (p, exact) in [(0.5, 5_000_000u64), (0.9, 9_000_000), (0.99, 9_900_000)] {
            let got = s.quantile(p);
            let err = got.abs_diff(exact) as f64 / exact as f64;
            assert!(err <= 1.0 / SUBS as f64, "p={p}: got {got}, exact {exact}");
        }
    }

    #[test]
    fn quantiles_are_monotone_in_p() {
        let mut h = Histogram::new();
        let mut x = 1u64;
        for i in 0..500u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i) >> 16;
            h.record(x % 10_000_000);
        }
        let s = h.snapshot();
        let mut prev = 0u64;
        for i in 0..=1000 {
            let q = s.quantile(i as f64 / 1000.0);
            assert!(q >= prev, "quantile must be monotone at p={}", i as f64 / 1000.0);
            prev = q;
        }
    }

    #[test]
    fn absorb_equals_single_recorder() {
        let vals: Vec<u64> = (0..300u64).map(|i| i * i * 37 % 1_000_000).collect();
        let mut whole = Histogram::new();
        for &v in &vals {
            whole.record(v);
        }
        let (mut a, mut b) = (Histogram::new(), Histogram::new());
        for (i, &v) in vals.iter().enumerate() {
            if i % 3 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.absorb(&b);
        assert_eq!(a, whole);
        assert_eq!(a.snapshot(), whole.snapshot());
        // Absorbing an empty histogram changes nothing, either way.
        let empty = Histogram::new();
        let before = a.clone();
        a.absorb(&empty);
        assert_eq!(a, before);
        let mut e = Histogram::new();
        e.absorb(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn snapshot_is_canonical() {
        // Two histograms over the same samples but different high-water
        // marks (one saw a large value absorbed away... simulate by
        // resizing) snapshot identically.
        let mut a = Histogram::new();
        a.record(5);
        let mut b = Histogram::new();
        b.record(5);
        b.buckets.resize(100, 0); // internal padding only
        assert_eq!(a.snapshot(), b.snapshot());
    }
}

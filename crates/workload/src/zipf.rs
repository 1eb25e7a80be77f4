//! Zipf-distributed sampling.
//!
//! Web page popularity follows a Zipf-like law (Breslau et al., the
//! paper's reference 7); SPECweb99 uses it for directory popularity.
//! The sampler precomputes the CDF and draws by binary search — O(log n)
//! per sample, deterministic given the RNG stream.

use sim::rng::SplitMix64;

/// A Zipf(α) sampler over ranks `0..n` (rank 0 most popular).
///
/// # Examples
///
/// ```
/// use sim::rng::SplitMix64;
/// use workload::zipf::Zipf;
///
/// let z = Zipf::new(100, 1.0);
/// let mut rng = SplitMix64::new(7);
/// let r = z.sample(&mut rng);
/// assert!(r < 100);
/// ```
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks with exponent `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `alpha` is negative/non-finite.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "need at least one rank");
        assert!(alpha.is_finite() && alpha >= 0.0, "alpha must be finite and non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draws a rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Zipf {
        /// Probability mass of rank `k`.
        fn pmf(&self, k: usize) -> f64 {
            self.cdf[k] - k.checked_sub(1).map_or(0.0, |j| self.cdf[j])
        }
    }

    #[test]
    fn pmf_sums_to_one_and_decreases() {
        let z = Zipf::new(50, 1.0);
        let total: f64 = (0..50).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for k in 1..50 {
            assert!(z.pmf(k) <= z.pmf(k - 1) + 1e-12, "monotone at {k}");
        }
    }

    #[test]
    fn rank_zero_dominates_at_alpha_one() {
        let z = Zipf::new(1000, 1.0);
        // p(0) = 1/H_1000 ≈ 1/7.485
        assert!((z.pmf(0) - 1.0 / 7.485).abs() < 0.01);
    }

    #[test]
    fn alpha_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for k in 0..10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn empirical_frequencies_match_pmf() {
        let z = Zipf::new(20, 1.0);
        let mut rng = SplitMix64::new(42);
        let n = 200_000;
        let mut counts = [0u32; 20];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (k, &count) in counts.iter().enumerate() {
            let emp = count as f64 / n as f64;
            assert!(
                (emp - z.pmf(k)).abs() < 0.01,
                "rank {k}: empirical {emp}, pmf {}",
                z.pmf(k)
            );
        }
    }

    #[test]
    fn single_rank() {
        let z = Zipf::new(1, 1.0);
        let mut rng = SplitMix64::new(1);
        assert_eq!(z.sample(&mut rng), 0);
        assert_eq!(z.cdf.len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        Zipf::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_panics() {
        Zipf::new(10, f64::NAN);
    }
}

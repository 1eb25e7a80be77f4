//! Deterministic pseudo-randomness for the simulator.
//!
//! The simulator must be reproducible run-to-run, so all stochastic choices
//! (workload think times, Zipf draws, file selection) flow from seeded
//! [`SplitMix64`] streams. SplitMix64 passes BigCrush for this use and needs
//! no dependencies; heavier distributions (Zipf) live in the `workload`
//! crate on top of this primitive.

/// A tiny, fast, deterministic PRNG (Steele et al.'s SplitMix64).
///
/// # Examples
///
/// ```
/// use sim::rng::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Distinct seeds yield independent
    /// streams for practical purposes.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derives a new independent generator from this one (for giving each
    /// workload source its own stream).
    pub fn split(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64() ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        // `mix64` adds the stream's increment before it finalizes, so the
        // output that goes with the advanced state is the mix of the old.
        let out = crate::hash::mix64(self.state);
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        out
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's multiply-shift rejection method: unbiased.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn split_streams_are_independent_of_parent_reuse() {
        let mut parent = SplitMix64::new(99);
        let mut child = parent.split();
        let c1 = child.next_u64();
        // Re-derive: same parent state evolution gives same child.
        let mut parent2 = SplitMix64::new(99);
        let mut child2 = parent2.split();
        assert_eq!(c1, child2.next_u64());
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = SplitMix64::new(3);
        for _ in 0..10_000 {
            assert!(r.next_below(7) < 7);
        }
        // bound of 1 always yields 0
        assert_eq!(r.next_below(1), 0);
    }

    #[test]
    fn next_below_is_roughly_uniform() {
        let mut r = SplitMix64::new(5);
        let mut counts = [0u32; 8];
        let n = 80_000;
        for _ in 0..n {
            counts[r.next_below(8) as usize] += 1;
        }
        let expect = n / 8;
        for &c in &counts {
            assert!(
                (c as i64 - expect as i64).unsigned_abs() < expect as u64 / 10,
                "bucket count {c} too far from {expect}"
            );
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SplitMix64::new(13);
        for _ in 0..10_000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = SplitMix64::new(17);
        assert!(!r.next_bool(0.0));
        assert!(r.next_bool(1.0));
        assert!(!r.next_bool(-3.0));
        assert!(r.next_bool(7.0));
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        SplitMix64::new(1).next_below(0);
    }
}

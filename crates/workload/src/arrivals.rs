//! Seeded open-loop arrival schedules.
//!
//! A closed-loop client (the session engines in the testbed) waits for
//! each reply before issuing the next request, so its offered load can
//! never exceed the server's capacity. An *open-loop* driver issues
//! requests at pre-drawn absolute instants regardless of completions —
//! the only way to push a system past saturation and watch its queues
//! (and tail latencies) grow. This module draws those instants: Poisson
//! inter-arrivals from a seeded [`SplitMix64`] at one constant rate. The
//! schedule is a pure function of its arguments, so every run over it is
//! byte-deterministic.

use sim::rng::SplitMix64;
use sim::time::SimTime;

/// Draws `n` arrival instants with exponential (Poisson-process)
/// inter-arrivals of mean `mean_interarrival_ns`, strictly increasing
/// (every gap is at least 1 ns).
///
/// # Panics
///
/// Panics if `mean_interarrival_ns` is zero.
pub fn poisson_arrivals(seed: u64, n: usize, mean_interarrival_ns: u64) -> Vec<SimTime> {
    assert!(mean_interarrival_ns > 0, "mean inter-arrival must be positive");
    let mean = mean_interarrival_ns as f64;
    let mut rng = SplitMix64::new(seed);
    let mut t = 0u64;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        // Inverse-CDF draw; 1 - u is in (0, 1], so the log is finite.
        let u = rng.next_f64();
        let dt = (-(1.0 - u).ln() * mean).round().max(1.0) as u64;
        t += dt;
        out.push(SimTime::from_nanos(t));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_strictly_increasing_and_deterministic() {
        let a = poisson_arrivals(7, 500, 10_000);
        let b = poisson_arrivals(7, 500, 10_000);
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.len(), 500);
        for w in a.windows(2) {
            assert!(w[0] < w[1], "strictly increasing");
        }
        let c = poisson_arrivals(8, 500, 10_000);
        assert_ne!(a, c, "a different seed draws a different schedule");
    }

    #[test]
    fn mean_gap_approximates_the_requested_mean() {
        let n = 20_000;
        let mean = 5_000u64;
        let a = poisson_arrivals(42, n, mean);
        let total = a.last().unwrap().as_nanos();
        let got = total as f64 / n as f64;
        assert!(
            (got - mean as f64).abs() < 0.05 * mean as f64,
            "mean gap {got} vs requested {mean}"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mean_panics() {
        poisson_arrivals(1, 1, 0);
    }
}

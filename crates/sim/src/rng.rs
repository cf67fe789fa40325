//! Deterministic randomness for experiments: a seeded RNG wrapper plus the
//! sampling helpers workloads need (weighted choice, exponential
//! inter-arrival times).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic RNG; every experiment derives all randomness from a
/// single `u64` seed so runs are exactly reproducible.
#[derive(Clone, Debug)]
pub struct DetRng {
    inner: StdRng,
}

impl DetRng {
    /// Creates an RNG from a seed.
    pub fn new(seed: u64) -> DetRng {
        DetRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child RNG (e.g. one per simulated user).
    pub fn fork(&mut self, label: u64) -> DetRng {
        let s = self.inner.gen::<u64>() ^ label.wrapping_mul(0x9E3779B97F4A7C15);
        DetRng::new(s)
    }

    /// Uniform `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.gen()
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        self.inner.gen_range(lo..hi)
    }

    /// Uniform u128 in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn range_u128(&mut self, lo: u128, hi: u128) -> u128 {
        assert!(lo < hi, "empty range");
        self.inner.gen_range(lo..hi)
    }

    /// 32 bytes of entropy (for key generation).
    pub fn entropy32(&mut self) -> [u8; 32] {
        let mut out = [0u8; 32];
        self.inner.fill(&mut out);
        out
    }

    /// Weighted index choice: returns `i` with probability
    /// `weights[i] / Σ weights`.
    ///
    /// # Panics
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut draw = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            if draw < *w {
                return i;
            }
            draw -= w;
        }
        weights.len() - 1
    }

    /// Exponentially distributed value with the given rate (events/unit
    /// time) via inverse-transform sampling. Used for Poisson arrivals.
    ///
    /// # Panics
    /// Panics if `rate` is not positive.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "rate must be positive");
        let u = loop {
            let u = self.unit();
            if u > 0.0 {
                break u;
            }
        };
        -u.ln() / rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = DetRng::new(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn forks_are_independent_and_deterministic() {
        let mut root1 = DetRng::new(1);
        let mut root2 = DetRng::new(1);
        let mut f1 = root1.fork(42);
        let mut f2 = root2.fork(42);
        assert_eq!(f1.next_u64(), f2.next_u64());
        let mut g = root1.fork(43);
        assert_ne!(f1.next_u64(), g.next_u64());
    }

    #[test]
    fn unit_in_range() {
        let mut r = DetRng::new(3);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = DetRng::new(4);
        let weights = [93.19, 2.14, 2.38, 2.27];
        let mut counts = [0usize; 4];
        for _ in 0..20_000 {
            counts[r.weighted_index(&weights)] += 1;
        }
        let swap_frac = counts[0] as f64 / 20_000.0;
        assert!((swap_frac - 0.9319).abs() < 0.01, "{swap_frac}");
        assert!(counts[1] > 0 && counts[2] > 0 && counts[3] > 0);
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut r = DetRng::new(5);
        let rate = 4.0;
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| r.exponential(rate)).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        DetRng::new(1).range_u64(5, 5);
    }
}

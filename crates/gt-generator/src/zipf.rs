//! A Zipf-like rank sampler.
//!
//! Table 3 of the paper selects vertices "Zipf (based on degree)". This
//! sampler draws ranks `1..=n` with probability approximately proportional
//! to `rank^-s` using the continuous inverse-CDF approximation
//!
//! ```text
//! x = (1 + u * (n^(1-s) - 1))^(1/(1-s))     for s != 1
//! x = n^u                                    for s  = 1
//! ```
//!
//! which is exact in the continuum limit and accurate enough for workload
//! skew (the workload property that matters is *heavy bias toward low
//! ranks*, not the precise tail exponent). Sampling is O(1) and needs no
//! precomputed tables, so `n` may change between draws — essential for an
//! evolving graph.

use rand::Rng;
use rand::RngExt;

/// Samples ranks `1..=n` with Zipf(`s`) skew.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ZipfSampler {
    /// Skew exponent; larger means heavier bias toward rank 1. Must be > 0.
    pub exponent: f64,
}

impl ZipfSampler {
    /// Creates a sampler with the given exponent.
    ///
    /// # Panics
    /// If `exponent` is not finite and positive.
    pub(crate) fn new(exponent: f64) -> Self {
        assert!(
            exponent.is_finite() && exponent > 0.0,
            "Zipf exponent must be positive and finite"
        );
        ZipfSampler { exponent }
    }

    /// Draws a rank in `1..=n`. Returns 1 when `n <= 1`.
    pub(crate) fn sample(&self, n: usize, rng: &mut impl Rng) -> usize {
        if n <= 1 {
            return 1;
        }
        let n_f = n as f64;
        let u: f64 = rng.random::<f64>().min(1.0 - f64::EPSILON);
        let x = if (self.exponent - 1.0).abs() < 1e-9 {
            n_f.powf(u)
        } else {
            let one_minus_s = 1.0 - self.exponent;
            (1.0 + u * (n_f.powf(one_minus_s) - 1.0)).powf(1.0 / one_minus_s)
        };
        (x.floor() as usize).clamp(1, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn histogram(sampler: ZipfSampler, n: usize, draws: usize) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0usize; n + 1];
        for _ in 0..draws {
            let r = sampler.sample(n, &mut rng);
            counts[r] += 1;
        }
        counts
    }

    #[test]
    fn ranks_are_in_range() {
        let sampler = ZipfSampler::new(1.2);
        let mut rng = StdRng::seed_from_u64(9);
        for n in [1usize, 2, 10, 1000] {
            for _ in 0..200 {
                let r = sampler.sample(n, &mut rng);
                assert!((1..=n).contains(&r), "rank {r} for n={n}");
            }
        }
    }

    #[test]
    fn low_ranks_dominate() {
        let counts = histogram(ZipfSampler::new(1.0), 100, 50_000);
        assert!(counts[1] > counts[10], "{} vs {}", counts[1], counts[10]);
        assert!(counts[1] > counts[50] * 5);
        // Rank 1 should hold a substantial share under s = 1.
        assert!(counts[1] as f64 / 50_000.0 > 0.1);
    }

    #[test]
    fn higher_exponent_means_heavier_head() {
        let mild = histogram(ZipfSampler::new(0.5), 100, 50_000);
        let heavy = histogram(ZipfSampler::new(2.0), 100, 50_000);
        assert!(heavy[1] > mild[1]);
    }

    #[test]
    fn n_one_always_returns_one() {
        let sampler = ZipfSampler::new(1.5);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(sampler.sample(1, &mut rng), 1);
        assert_eq!(sampler.sample(0, &mut rng), 1);
    }

    #[test]
    #[should_panic(expected = "Zipf exponent")]
    fn rejects_non_positive_exponent() {
        ZipfSampler::new(0.0);
    }
}

//! The pure, seeded arrival schedule.
//!
//! An open-loop client's arrival times are a *function of the plan*, not
//! of the SUT: `(rate, seed, n) → timestamps`. Computing the schedule up
//! front, independently of any socket, is what makes the
//! coordinated-omission guard testable — the schedule a client emits
//! must be bit-identical whether the SUT acks promptly or stalls.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use gt_replayer::pattern::CompiledPattern;

/// A precomputed arrival schedule: monotone microsecond offsets from the
/// client's start, one per graph event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalSchedule {
    offsets: Vec<u64>,
}

impl ArrivalSchedule {
    /// A Poisson-process schedule: exponential inter-arrival times with
    /// mean `1/rate`, drawn from a seeded deterministic RNG. This is the
    /// default for open-loop clients — independent arrivals are the
    /// standard traffic model and exercise burstiness that a uniform
    /// schedule hides.
    ///
    /// # Panics
    /// If `rate` is not strictly positive and finite.
    pub fn poisson(rate: f64, events: usize, seed: u64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "arrival rate must be positive"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut offsets = Vec::with_capacity(events);
        let mut t = 0.0_f64;
        for _ in 0..events {
            // Inverse-CDF sampling; 1-u keeps the argument away from 0.
            let u: f64 = rng.random();
            let dt = -(1.0 - u).ln() / rate;
            t += dt;
            offsets.push((t * 1e6) as u64);
        }
        ArrivalSchedule { offsets }
    }

    /// An inhomogeneous-Poisson schedule: arrivals against the
    /// time-varying intensity `rate × pattern(t)`, via exact inversion of
    /// the integrated intensity over the pattern's piecewise-constant
    /// segments. With a uniform pattern this makes the same exponential
    /// draws as [`ArrivalSchedule::poisson`] and matches its offsets to
    /// within microsecond rounding, so shaping a cell's traffic never
    /// changes its uniform baseline.
    ///
    /// # Panics
    /// If `rate` is not strictly positive and finite.
    pub(crate) fn patterned(
        rate: f64,
        events: usize,
        seed: u64,
        pattern: &CompiledPattern,
    ) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "arrival rate must be positive"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut offsets = Vec::with_capacity(events);
        let mut t_micros = 0.0_f64;
        for _ in 0..events {
            let u: f64 = rng.random();
            let area = -(1.0 - u).ln() / rate * 1e6;
            t_micros = pattern.advance_by_area(t_micros, area);
            offsets.push(t_micros as u64);
        }
        ArrivalSchedule { offsets }
    }

    /// A uniform schedule: events exactly `1/rate` apart, as the paper's
    /// §4.4 single-connection replayer paces them.
    ///
    /// # Panics
    /// If `rate` is not strictly positive and finite.
    pub(crate) fn uniform(rate: f64, events: usize) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "arrival rate must be positive"
        );
        let micros_per_event = 1e6 / rate;
        let offsets = (1..=events as u64)
            .map(|i| (i as f64 * micros_per_event) as u64)
            .collect();
        ArrivalSchedule { offsets }
    }

    /// The scheduled arrival offsets in microseconds, in order.
    pub fn offsets_micros(&self) -> &[u64] {
        &self.offsets
    }

    /// Consumes the schedule, yielding its offsets without a copy.
    pub(crate) fn into_offsets_micros(self) -> Vec<u64> {
        self.offsets
    }

    /// Number of scheduled arrivals.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let a = ArrivalSchedule::poisson(10_000.0, 500, 42);
        let b = ArrivalSchedule::poisson(10_000.0, 500, 42);
        let c = ArrivalSchedule::poisson(10_000.0, 500, 43);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds must yield different schedules");
    }

    #[test]
    fn poisson_mean_rate_is_close() {
        let rate = 50_000.0;
        let schedule = ArrivalSchedule::poisson(rate, 20_000, 7);
        let span_secs = schedule.offsets.last().copied().unwrap() as f64 / 1e6;
        let achieved = schedule.len() as f64 / span_secs;
        let error = (achieved - rate).abs() / rate;
        assert!(error < 0.05, "mean rate off by {:.1}%", error * 100.0);
    }

    #[test]
    fn schedules_are_monotone() {
        for schedule in [
            ArrivalSchedule::poisson(1000.0, 1000, 3),
            ArrivalSchedule::uniform(1000.0, 1000),
        ] {
            let offsets = schedule.offsets_micros();
            assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn uniform_spacing() {
        let schedule = ArrivalSchedule::uniform(1000.0, 5);
        assert_eq!(schedule.offsets_micros(), &[1000, 2000, 3000, 4000, 5000]);
    }

    #[test]
    fn empty_schedule() {
        let schedule = ArrivalSchedule::uniform(100.0, 0);
        assert!(schedule.is_empty());
        assert_eq!(schedule.offsets.last().copied(), None);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let _ = ArrivalSchedule::poisson(0.0, 10, 0);
    }

    #[test]
    fn patterned_with_uniform_pattern_matches_poisson() {
        use gt_replayer::pattern::RatePattern;
        let uniform = RatePattern::Uniform.compile(0);
        let plain = ArrivalSchedule::poisson(5_000.0, 2_000, 11);
        let shaped = ArrivalSchedule::patterned(5_000.0, 2_000, 11, &uniform);
        assert_eq!(plain.len(), shaped.len());
        for (a, b) in plain
            .offsets_micros()
            .iter()
            .zip(shaped.offsets_micros().iter())
        {
            assert!(a.abs_diff(*b) <= 1, "offsets diverge: {a} vs {b}");
        }
    }

    #[test]
    fn patterned_is_deterministic_and_monotone() {
        use gt_replayer::pattern::RatePattern;
        let pattern = RatePattern::ParetoBursts {
            alpha: 1.5,
            burst_secs: 0.1,
            peak: 4.0,
        }
        .compile(3);
        let a = ArrivalSchedule::patterned(10_000.0, 2_000, 42, &pattern);
        let b = ArrivalSchedule::patterned(10_000.0, 2_000, 42, &pattern);
        assert_eq!(a, b);
        assert!(a.offsets_micros().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn flash_crowd_concentrates_arrivals_in_the_surge() {
        // 4x surge between 1s and 3s at base 1k/s: the surge window must
        // hold arrivals at roughly 4x the density of the pre-surge second.
        use gt_replayer::pattern::RatePattern;
        let pattern = RatePattern::FlashCrowd {
            at_secs: 1.0,
            factor: 4.0,
            hold_secs: 2.0,
        }
        .compile(0);
        let schedule = ArrivalSchedule::patterned(1_000.0, 6_000, 5, &pattern);
        let count_in = |lo: u64, hi: u64| {
            schedule
                .offsets_micros()
                .iter()
                .filter(|&&t| (lo..hi).contains(&t))
                .count() as f64
        };
        let base = count_in(0, 1_000_000);
        let surge = count_in(1_000_000, 2_000_000);
        let ratio = surge / base;
        assert!(
            (3.0..5.0).contains(&ratio),
            "surge density ratio {ratio:.2} (base {base}, surge {surge})"
        );
    }

    #[test]
    fn diurnal_mean_rate_stays_near_base() {
        // The sine integrates to zero over whole periods: the long-run
        // mean rate of a diurnal schedule must stay near the base rate.
        use gt_replayer::pattern::RatePattern;
        let pattern = RatePattern::Diurnal {
            period_secs: 1.0,
            amplitude: 0.5,
        }
        .compile(0);
        let rate = 10_000.0;
        let schedule = ArrivalSchedule::patterned(rate, 50_000, 7, &pattern);
        let span_secs = schedule.offsets.last().copied().unwrap() as f64 / 1e6;
        let achieved = schedule.len() as f64 / span_secs;
        let error = (achieved - rate).abs() / rate;
        assert!(error < 0.05, "mean rate off by {:.1}%", error * 100.0);
    }
}

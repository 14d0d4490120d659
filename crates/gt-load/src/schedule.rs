//! The pure, seeded arrival schedule.
//!
//! An open-loop client's arrival times are a *function of the plan*, not
//! of the SUT: `(rate, seed, n) → timestamps`. Drawing them from the plan
//! alone, independently of any socket, is what makes the
//! coordinated-omission guard testable — the schedule a client emits
//! must be bit-identical whether the SUT acks promptly or stalls. A
//! client draws them lazily (`Arrivals`) as its events are routed to
//! it; an [`ArrivalSchedule`] is the first `n` of them.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use gt_replayer::pattern::CompiledPattern;

/// An endless arrival process: a client's offsets from its start, drawn
/// as its events come in. Each draw uses only the draws before it, never
/// the event count, so the first `n` offsets are the [`ArrivalSchedule`]
/// of `n` events, bit for bit.
#[derive(Debug, Clone)]
pub(crate) struct Arrivals {
    process: Process,
    /// An offset [`Arrivals::peek`] drew ahead.
    ahead: Option<u64>,
}

#[derive(Debug, Clone)]
enum Process {
    /// Exponential inter-arrival times with mean `1/rate` seconds; `t` is
    /// the last arrival, seconds.
    Poisson { rng: StdRng, rate: f64, t: f64 },
    /// Arrivals against the intensity `rate × pattern(t)`; `t_micros` is
    /// the last arrival.
    Patterned {
        rng: StdRng,
        rate: f64,
        t_micros: f64,
        pattern: CompiledPattern,
    },
    /// Arrival `i` (1-based) at `i × micros_per_event`.
    Uniform { micros_per_event: f64, drawn: u64 },
}

impl Process {
    /// Hands the next `n` offsets to `put`. One `match`, then a loop per
    /// process: a `match` per draw costs more than the draw.
    #[inline]
    fn draw(&mut self, n: usize, mut put: impl FnMut(u64)) {
        match self {
            Process::Poisson { rng, rate, t } => {
                for _ in 0..n {
                    // Inverse-CDF sampling; 1-u keeps the argument away
                    // from 0.
                    let u: f64 = rng.random();
                    let dt = -(1.0 - u).ln() / *rate;
                    *t += dt;
                    put((*t * 1e6) as u64);
                }
            }
            Process::Patterned {
                rng,
                rate,
                t_micros,
                pattern,
            } => {
                for _ in 0..n {
                    let u: f64 = rng.random();
                    let area = -(1.0 - u).ln() / *rate * 1e6;
                    *t_micros = pattern.advance_by_area(*t_micros, area);
                    put(*t_micros as u64);
                }
            }
            Process::Uniform {
                micros_per_event,
                drawn,
            } => {
                for _ in 0..n {
                    *drawn += 1;
                    put((*drawn as f64 * *micros_per_event) as u64);
                }
            }
        }
    }

    fn draw_one(&mut self) -> u64 {
        let mut offset = 0;
        self.draw(1, |drawn| offset = drawn);
        offset
    }
}

fn assert_rate(rate: f64) {
    assert!(
        rate.is_finite() && rate > 0.0,
        "arrival rate must be positive"
    );
}

impl Arrivals {
    fn of(process: Process) -> Self {
        Arrivals {
            process,
            ahead: None,
        }
    }

    /// A Poisson process of `rate` events per second.
    ///
    /// # Panics
    /// If `rate` is not strictly positive and finite.
    pub(crate) fn poisson(rate: f64, seed: u64) -> Self {
        assert_rate(rate);
        let rng = StdRng::seed_from_u64(seed);
        Self::of(Process::Poisson { rng, rate, t: 0.0 })
    }

    /// An inhomogeneous Poisson process of `rate × pattern(t)` events per
    /// second, via exact inversion of the integrated intensity over the
    /// pattern's piecewise-constant segments. With a uniform pattern this
    /// makes the same exponential draws as [`Arrivals::poisson`] and
    /// matches its offsets to within microsecond rounding, so shaping a
    /// cell's traffic never changes its uniform baseline.
    ///
    /// # Panics
    /// If `rate` is not strictly positive and finite.
    pub(crate) fn patterned(rate: f64, seed: u64, pattern: CompiledPattern) -> Self {
        assert_rate(rate);
        let rng = StdRng::seed_from_u64(seed);
        Self::of(Process::Patterned {
            rng,
            rate,
            t_micros: 0.0,
            pattern,
        })
    }

    /// Events exactly `1/rate` seconds apart, as the paper's §4.4
    /// single-connection replayer paces them.
    ///
    /// # Panics
    /// If `rate` is not strictly positive and finite.
    pub(crate) fn uniform(rate: f64) -> Self {
        assert_rate(rate);
        Self::of(Process::Uniform {
            micros_per_event: 1e6 / rate,
            drawn: 0,
        })
    }

    /// The next offset, without taking it.
    pub(crate) fn peek(&mut self) -> u64 {
        match self.ahead {
            Some(offset) => offset,
            None => *self.ahead.insert(self.process.draw_one()),
        }
    }

    /// Appends the next `n` offsets to `out`.
    pub(crate) fn draw_into(&mut self, out: &mut Vec<u64>, n: usize) {
        let n = match self.ahead.take() {
            Some(offset) if n > 0 => {
                out.push(offset);
                n - 1
            }
            ahead => {
                self.ahead = ahead;
                n
            }
        };
        self.process.draw(n, |offset| out.push(offset));
    }
}

impl Iterator for Arrivals {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        Some(match self.ahead.take() {
            Some(offset) => offset,
            None => self.process.draw_one(),
        })
    }
}

/// A precomputed arrival schedule: monotone microsecond offsets from the
/// client's start, one per graph event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalSchedule {
    offsets: Vec<u64>,
}

impl ArrivalSchedule {
    /// The first `events` offsets of an arrival process.
    pub(crate) fn first(mut arrivals: Arrivals, events: usize) -> Self {
        let mut offsets = Vec::with_capacity(events);
        arrivals.draw_into(&mut offsets, events);
        ArrivalSchedule { offsets }
    }

    /// A Poisson-process schedule: exponential inter-arrival times with
    /// mean `1/rate`, drawn from a seeded deterministic RNG. This is the
    /// default for open-loop clients — independent arrivals are the
    /// standard traffic model and exercise burstiness that a uniform
    /// schedule hides.
    ///
    /// # Panics
    /// If `rate` is not strictly positive and finite.
    pub fn poisson(rate: f64, events: usize, seed: u64) -> Self {
        Self::first(Arrivals::poisson(rate, seed), events)
    }

    /// The scheduled arrival offsets in microseconds, in order.
    pub fn offsets_micros(&self) -> &[u64] {
        &self.offsets
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
    use gt_replayer::pattern::RatePattern;

    fn patterned(
        rate: f64,
        events: usize,
        seed: u64,
        pattern: &CompiledPattern,
    ) -> ArrivalSchedule {
        ArrivalSchedule::first(Arrivals::patterned(rate, seed, pattern.clone()), events)
    }

    fn uniform(rate: f64, events: usize) -> ArrivalSchedule {
        ArrivalSchedule::first(Arrivals::uniform(rate), events)
    }

    // The schedules as they were drawn before arrivals became lazy: all
    // `events` offsets in one loop.

    fn eager_poisson(rate: f64, events: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut offsets = Vec::with_capacity(events);
        let mut t = 0.0_f64;
        for _ in 0..events {
            let u: f64 = rng.random();
            let dt = -(1.0 - u).ln() / rate;
            t += dt;
            offsets.push((t * 1e6) as u64);
        }
        offsets
    }

    fn eager_patterned(rate: f64, events: usize, seed: u64, pattern: &CompiledPattern) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut offsets = Vec::with_capacity(events);
        let mut t_micros = 0.0_f64;
        for _ in 0..events {
            let u: f64 = rng.random();
            let area = -(1.0 - u).ln() / rate * 1e6;
            t_micros = pattern.advance_by_area(t_micros, area);
            offsets.push(t_micros as u64);
        }
        offsets
    }

    fn eager_uniform(rate: f64, events: usize) -> Vec<u64> {
        let micros_per_event = 1e6 / rate;
        (1..=events as u64)
            .map(|i| (i as f64 * micros_per_event) as u64)
            .collect()
    }

    #[test]
    fn lazy_draws_equal_the_eager_schedules() {
        const EVENTS: usize = 1_000;
        let patterns = [
            RatePattern::Uniform,
            "diurnal:0.5:0.6".parse().unwrap(),
            "flash:0.05:4:0.2".parse().unwrap(),
            "pareto:1.5:0.2:4".parse().unwrap(),
        ];
        for seed in [0, 7, 42, u64::MAX] {
            for rate in [1.0, 997.0, 75_000.0, 1e9] {
                let lazy = |arrivals: Arrivals| arrivals.take(EVENTS).collect::<Vec<_>>();
                let poisson = eager_poisson(rate, EVENTS, seed);
                assert_eq!(lazy(Arrivals::poisson(rate, seed)), poisson);
                assert_eq!(
                    ArrivalSchedule::poisson(rate, EVENTS, seed).offsets,
                    poisson
                );
                assert_eq!(lazy(Arrivals::uniform(rate)), eager_uniform(rate, EVENTS));
                for pattern in &patterns {
                    let compiled = pattern.compile(seed);
                    assert_eq!(
                        lazy(Arrivals::patterned(rate, seed, compiled.clone())),
                        eager_patterned(rate, EVENTS, seed, &compiled),
                        "{pattern} at {rate}/s, seed {seed}"
                    );
                }
            }
        }
    }

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
            uniform(1000.0, 1000),
        ] {
            let offsets = schedule.offsets_micros();
            assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn uniform_spacing() {
        let schedule = uniform(1000.0, 5);
        assert_eq!(schedule.offsets_micros(), &[1000, 2000, 3000, 4000, 5000]);
    }

    #[test]
    fn empty_schedule() {
        let schedule = uniform(100.0, 0);
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
        let uniform = RatePattern::Uniform.compile(0);
        let plain = ArrivalSchedule::poisson(5_000.0, 2_000, 11);
        let shaped = patterned(5_000.0, 2_000, 11, &uniform);
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
        let pattern = RatePattern::ParetoBursts {
            alpha: 1.5,
            burst_secs: 0.1,
            peak: 4.0,
        }
        .compile(3);
        let a = patterned(10_000.0, 2_000, 42, &pattern);
        let b = patterned(10_000.0, 2_000, 42, &pattern);
        assert_eq!(a, b);
        assert!(a.offsets_micros().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn flash_crowd_concentrates_arrivals_in_the_surge() {
        // 4x surge between 1s and 3s at base 1k/s: the surge window must
        // hold arrivals at roughly 4x the density of the pre-surge second.
        let pattern = RatePattern::FlashCrowd {
            at_secs: 1.0,
            factor: 4.0,
            hold_secs: 2.0,
        }
        .compile(0);
        let schedule = patterned(1_000.0, 6_000, 5, &pattern);
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
        let pattern = RatePattern::Diurnal {
            period_secs: 1.0,
            amplitude: 0.5,
        }
        .compile(0);
        let rate = 10_000.0;
        let schedule = patterned(rate, 50_000, 7, &pattern);
        let span_secs = schedule.offsets.last().copied().unwrap() as f64 / 1e6;
        let achieved = schedule.len() as f64 / span_secs;
        let error = (achieved - rate).abs() / rate;
        assert!(error < 0.05, "mean rate off by {:.1}%", error * 100.0);
    }
}

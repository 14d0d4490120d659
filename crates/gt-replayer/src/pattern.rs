//! Production-shaped rate patterns (§4.4 rate variability).
//!
//! The paper's replayer paces a *constant* target rate; production
//! traffic does not. A [`RatePattern`] is a declarative, seeded
//! description of how the offered rate varies over the run — a diurnal
//! sine wave, heavy-tailed (Pareto) burst trains, a flash-crowd step —
//! that compiles to a pure piecewise-constant multiplier over time
//! ([`CompiledPattern`]). Two consumers share it:
//!
//! * `PacerCore` scales its inter-event
//!   interval by the multiplier at each deadline, so the single-sink
//!   replayer emits the shaped rate;
//! * [`ArrivalSchedule`](../gt_load) draws inhomogeneous-Poisson arrival
//!   times against the shaped intensity for open-loop load clients.
//!
//! Compilation is deterministic per `(pattern, seed)`: the same matrix
//! cell always replays the same traffic shape, which is what makes
//! cross-SUT comparisons and journal resume bit-reproducible.

use std::fmt;
use std::str::FromStr;

use gt_core::spec::{Positional, SpecError};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// How many piecewise-constant steps one diurnal period compiles to.
const DIURNAL_STEPS: usize = 64;

/// How many gap+burst pairs a Pareto burst train compiles to before the
/// pattern cycles.
const PARETO_BURSTS: usize = 32;

/// Heavy-tail clamp: a single Pareto gap never exceeds this multiple of
/// the scale parameter (alpha <= 1 has infinite mean — the draw must not
/// produce an hour-long quiet segment in a 30-second cell).
const PARETO_GAP_CAP: f64 = 100.0;

/// A declarative, seeded rate-variability pattern.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum RatePattern {
    /// Constant rate — the paper's §4.4 uniform pacing.
    #[default]
    Uniform,
    /// Diurnal sine wave: multiplier `1 + amplitude * sin(2πt/period)`.
    /// One period is a full day compressed to `period_secs`.
    Diurnal {
        /// Seconds per full sine period.
        period_secs: f64,
        /// Peak deviation from the base rate, in `(0, 1)` so the
        /// multiplier stays strictly positive.
        amplitude: f64,
    },
    /// Heavy-tailed burst train: quiet stretches at the base rate,
    /// interrupted by `burst_secs`-long bursts at `peak` times the base
    /// rate. Gap lengths are Pareto(alpha)-distributed with scale
    /// `burst_secs`, so long quiet periods are common and extreme ones
    /// possible — the classic self-similar-traffic shape.
    ParetoBursts {
        /// Pareto tail index; smaller = heavier tail. Must be positive.
        alpha: f64,
        /// Burst duration in seconds (also the Pareto scale of the gaps).
        burst_secs: f64,
        /// Rate multiplier during a burst (> 1).
        peak: f64,
    },
    /// Flash crowd: base rate until `at_secs`, a step to `factor` times
    /// the base rate held for `hold_secs`, then back to base.
    FlashCrowd {
        /// Seconds into the run the crowd arrives.
        at_secs: f64,
        /// Rate multiplier while the crowd is present (> 1).
        factor: f64,
        /// Seconds the surge lasts.
        hold_secs: f64,
    },
}

impl RatePattern {
    /// Compiles the pattern into its piecewise-constant multiplier.
    /// Deterministic per `(self, seed)`; the seed only matters for
    /// [`RatePattern::ParetoBursts`], whose gap lengths are drawn from a
    /// seeded RNG.
    pub fn compile(&self, seed: u64) -> CompiledPattern {
        match self {
            RatePattern::Uniform => CompiledPattern {
                segments: vec![(0, 1.0)],
                cycle_micros: None,
            },
            RatePattern::Diurnal {
                period_secs,
                amplitude,
            } => {
                let period_micros = (period_secs * 1e6) as u64;
                let step = (period_micros / DIURNAL_STEPS as u64).max(1);
                let segments = (0..DIURNAL_STEPS)
                    .map(|i| {
                        let start = i as u64 * step;
                        // Sample the sine at the step's midpoint.
                        let mid = (i as f64 + 0.5) / DIURNAL_STEPS as f64;
                        let multiplier = 1.0 + amplitude * (2.0 * std::f64::consts::PI * mid).sin();
                        (start, multiplier)
                    })
                    .collect();
                CompiledPattern {
                    segments,
                    cycle_micros: Some(step * DIURNAL_STEPS as u64),
                }
            }
            RatePattern::ParetoBursts {
                alpha,
                burst_secs,
                peak,
            } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let burst_micros = ((burst_secs * 1e6) as u64).max(1);
                let mut segments = Vec::with_capacity(2 * PARETO_BURSTS);
                let mut t = 0u64;
                for _ in 0..PARETO_BURSTS {
                    // Inverse-CDF Pareto draw: gap = scale / u^(1/alpha),
                    // clamped so a heavy tail stays replayable.
                    let u: f64 = rng.random();
                    let gap =
                        (burst_secs / (1.0 - u).powf(1.0 / alpha)).min(burst_secs * PARETO_GAP_CAP);
                    segments.push((t, 1.0));
                    t += ((gap * 1e6) as u64).max(1);
                    segments.push((t, *peak));
                    t += burst_micros;
                }
                CompiledPattern {
                    segments,
                    cycle_micros: Some(t),
                }
            }
            RatePattern::FlashCrowd {
                at_secs,
                factor,
                hold_secs,
            } => {
                let at = (at_secs * 1e6) as u64;
                let end = at + ((hold_secs * 1e6) as u64).max(1);
                CompiledPattern {
                    segments: vec![(0, 1.0), (at, *factor), (end, 1.0)],
                    cycle_micros: None,
                }
            }
        }
    }

    /// Validates the pattern's parameters, returning a description of the
    /// first problem found.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let positive = |v: f64, what: &str| {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(format!("{what} must be positive and finite, got {v}"))
            }
        };
        match self {
            RatePattern::Uniform => Ok(()),
            RatePattern::Diurnal {
                period_secs,
                amplitude,
            } => {
                positive(*period_secs, "diurnal period")?;
                if !(amplitude.is_finite() && *amplitude > 0.0 && *amplitude < 1.0) {
                    return Err(format!(
                        "diurnal amplitude must be in (0, 1), got {amplitude}"
                    ));
                }
                Ok(())
            }
            RatePattern::ParetoBursts {
                alpha,
                burst_secs,
                peak,
            } => {
                positive(*alpha, "pareto alpha")?;
                positive(*burst_secs, "pareto burst duration")?;
                if !(peak.is_finite() && *peak > 1.0) {
                    return Err(format!("pareto peak multiplier must exceed 1, got {peak}"));
                }
                Ok(())
            }
            RatePattern::FlashCrowd {
                at_secs,
                factor,
                hold_secs,
            } => {
                if !(at_secs.is_finite() && *at_secs >= 0.0) {
                    return Err(format!("flash-crowd onset must be >= 0, got {at_secs}"));
                }
                positive(*hold_secs, "flash-crowd hold")?;
                if !(factor.is_finite() && *factor > 1.0) {
                    return Err(format!("flash-crowd factor must exceed 1, got {factor}"));
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for RatePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RatePattern::Uniform => write!(f, "uniform"),
            RatePattern::Diurnal {
                period_secs,
                amplitude,
            } => write!(f, "diurnal:{period_secs}:{amplitude}"),
            RatePattern::ParetoBursts {
                alpha,
                burst_secs,
                peak,
            } => write!(f, "pareto:{alpha}:{burst_secs}:{peak}"),
            RatePattern::FlashCrowd {
                at_secs,
                factor,
                hold_secs,
            } => write!(f, "flash:{at_secs}:{factor}:{hold_secs}"),
        }
    }
}

impl FromStr for RatePattern {
    type Err = SpecError;

    /// Parses the compact spec syntax used by matrix cells and the CLI, a
    /// positional `gt_core::spec` form: `uniform`,
    /// `diurnal:PERIOD_S:AMPLITUDE`, `pareto:ALPHA:BURST_S:PEAK`,
    /// `flash:AT_S:FACTOR:HOLD_S`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut spec = Positional::new(s, s);
        let pattern = match spec.kind {
            "uniform" => RatePattern::Uniform,
            "diurnal" => RatePattern::Diurnal {
                period_secs: spec.arg("PERIOD_S")?,
                amplitude: spec.arg("AMPLITUDE")?,
            },
            "pareto" => RatePattern::ParetoBursts {
                alpha: spec.arg("ALPHA")?,
                burst_secs: spec.arg("BURST_S")?,
                peak: spec.arg("PEAK")?,
            },
            "flash" => RatePattern::FlashCrowd {
                at_secs: spec.arg("AT_S")?,
                factor: spec.arg("FACTOR")?,
                hold_secs: spec.arg("HOLD_S")?,
            },
            _ => {
                return Err(
                    spec.error("unknown rate pattern (expected uniform, diurnal, pareto, flash)")
                )
            }
        };
        spec.finish()?;
        pattern
            .validate()
            .map_err(|reason| SpecError::new(s, s, reason))?;
        Ok(pattern)
    }
}

/// A compiled pattern: a piecewise-constant rate multiplier over
/// run-relative time, optionally cycling.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPattern {
    /// `(start_micros, multiplier)` segments; the first starts at 0 and
    /// starts are strictly increasing.
    segments: Vec<(u64, f64)>,
    /// Period after which the segments repeat; `None` holds the last
    /// segment's multiplier forever.
    cycle_micros: Option<u64>,
}

impl CompiledPattern {
    /// The multiplier in force at run-relative time `t_micros`.
    pub(crate) fn multiplier_at_micros(&self, t_micros: u64) -> f64 {
        let t = match self.cycle_micros {
            Some(cycle) if cycle > 0 => t_micros % cycle,
            _ => t_micros,
        };
        match self.segments.binary_search_by_key(&t, |&(start, _)| start) {
            Ok(i) => self.segments[i].1,
            Err(0) => self.segments.first().map_or(1.0, |&(_, m)| m),
            Err(i) => self.segments[i - 1].1,
        }
    }

    /// Whether the pattern is the constant multiplier 1.0.
    pub(crate) fn is_uniform(&self) -> bool {
        self.segments.iter().all(|&(_, m)| m == 1.0)
    }

    /// The boundary of the segment containing cycle-relative time
    /// `t_micros` (i.e. where the current multiplier stops applying), or
    /// `None` when the multiplier holds forever from there.
    fn segment_end_micros(&self, t_micros: u64) -> Option<u64> {
        let (cycle_t, base) = match self.cycle_micros {
            Some(cycle) if cycle > 0 => (t_micros % cycle, t_micros - t_micros % cycle),
            _ => (t_micros, 0),
        };
        let next = self
            .segments
            .iter()
            .map(|&(start, _)| start)
            .find(|&start| start > cycle_t);
        match (next, self.cycle_micros) {
            (Some(start), _) => Some(base + start),
            (None, Some(cycle)) if cycle > 0 => Some(base + cycle),
            _ => None,
        }
    }

    /// Walks forward from `t_micros` until `target_area` of
    /// multiplier·time has been consumed, returning the reached time.
    /// This is the exact inverse-integral step an inhomogeneous Poisson
    /// sampler needs: with `target_area = Exp(1)/rate`, the returned time
    /// is the next arrival.
    pub fn advance_by_area(&self, t_micros: f64, target_area_micros: f64) -> f64 {
        let mut t = t_micros;
        let mut remaining = target_area_micros;
        // Bounded walk: patterns have finitely many segments per cycle
        // and every multiplier is strictly positive (validated), so the
        // loop terminates; the cap is defense in depth against a
        // zero-multiplier pattern constructed without validation.
        for _ in 0..1_000_000 {
            let m = self.multiplier_at_micros(t as u64);
            let step = if m > 0.0 {
                remaining / m
            } else {
                f64::INFINITY
            };
            match self.segment_end_micros(t as u64) {
                Some(end) if (t + step) > end as f64 => {
                    remaining -= (end as f64 - t) * m;
                    t = end as f64;
                }
                _ => return t + step,
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_flat() {
        let p = RatePattern::Uniform.compile(1);
        assert!(p.is_uniform());
        for t in [0u64, 1, 1_000_000, u64::MAX / 2] {
            assert_eq!(p.multiplier_at_micros(t), 1.0);
        }
    }

    #[test]
    fn diurnal_oscillates_and_cycles() {
        let pattern = RatePattern::Diurnal {
            period_secs: 64.0,
            amplitude: 0.5,
        };
        let p = pattern.compile(0);
        // Quarter period: near the peak. Three quarters: near the trough.
        let peak = p.multiplier_at_micros(16_000_000);
        let trough = p.multiplier_at_micros(48_000_000);
        assert!(peak > 1.4, "peak {peak}");
        assert!(trough < 0.6, "trough {trough}");
        assert!(trough > 0.0, "multiplier must stay positive");
        // Cycles: one full period later the multiplier repeats exactly.
        for t in (0..64_000_000u64).step_by(1_000_000) {
            assert_eq!(
                p.multiplier_at_micros(t),
                p.multiplier_at_micros(t + 64_000_000)
            );
        }
    }

    #[test]
    fn pareto_bursts_are_seeded_and_heavy_tailed() {
        let pattern = RatePattern::ParetoBursts {
            alpha: 1.5,
            burst_secs: 0.2,
            peak: 4.0,
        };
        let a = pattern.compile(7);
        let b = pattern.compile(7);
        let c = pattern.compile(8);
        assert_eq!(a, b, "same seed, same train");
        assert_ne!(a, c, "different seed, different gaps");
        // The train alternates quiet (1.0) and burst (4.0) segments.
        let mut saw_quiet = false;
        let mut saw_burst = false;
        for t in (0..60_000_000u64).step_by(10_000) {
            let m = a.multiplier_at_micros(t);
            if m == 1.0 {
                saw_quiet = true;
            } else if m == 4.0 {
                saw_burst = true;
            } else {
                panic!("unexpected multiplier {m}");
            }
        }
        assert!(saw_quiet && saw_burst);
    }

    #[test]
    fn flash_crowd_steps_up_and_back() {
        let p = RatePattern::FlashCrowd {
            at_secs: 5.0,
            factor: 4.0,
            hold_secs: 2.0,
        }
        .compile(0);
        assert_eq!(p.multiplier_at_micros(0), 1.0);
        assert_eq!(p.multiplier_at_micros(4_999_999), 1.0);
        assert_eq!(p.multiplier_at_micros(5_000_000), 4.0);
        assert_eq!(p.multiplier_at_micros(6_999_999), 4.0);
        assert_eq!(p.multiplier_at_micros(7_000_000), 1.0);
        // No cycle: the post-surge base rate holds forever.
        assert_eq!(p.multiplier_at_micros(1_000_000_000), 1.0);
    }

    #[test]
    fn spec_round_trip() {
        for spec in [
            "uniform",
            "diurnal:60:0.5",
            "pareto:1.5:0.2:4",
            "flash:5:4:2",
        ] {
            let pattern: RatePattern = spec.parse().unwrap();
            assert_eq!(pattern.to_string(), spec);
            let reparsed: RatePattern = pattern.to_string().parse().unwrap();
            assert_eq!(pattern, reparsed);
        }
    }

    #[test]
    fn bad_specs_are_rejected() {
        for spec in [
            "sawtooth",
            "diurnal:60",
            "diurnal:60:1.5",
            "diurnal:0:0.5",
            "pareto:1.5:0.2:0.5",
            "pareto:0:1:2",
            "flash:5:0.5:2",
            "flash:-1:4:2",
            "diurnal:60:0.5:9",
            "pareto:1.5:abc:4",
        ] {
            assert!(spec.parse::<RatePattern>().is_err(), "accepted `{spec}`");
        }
    }

    #[test]
    fn advance_by_area_inverts_the_integral() {
        // Flash crowd at 4x between 1s and 3s. Walking 1.5s-equivalent of
        // area from t=0.5s: 0.5s at 1x consumes 0.5, then the rest at 4x
        // consumes 1.0 in 0.25s → arrival at 1.25s.
        let p = RatePattern::FlashCrowd {
            at_secs: 1.0,
            factor: 4.0,
            hold_secs: 2.0,
        }
        .compile(0);
        let reached = p.advance_by_area(500_000.0, 1_500_000.0);
        assert!((reached - 1_250_000.0).abs() < 1.0, "reached {reached}");
        // Uniform: the area IS the time.
        let u = RatePattern::Uniform.compile(0);
        assert_eq!(u.advance_by_area(0.0, 123_456.0), 123_456.0);
    }

    #[test]
    fn advance_by_area_crosses_cycles() {
        // Diurnal with a 1s period: averaging over whole periods the
        // multiplier integrates to ~1, so 10 periods of area take ~10s.
        let p = RatePattern::Diurnal {
            period_secs: 1.0,
            amplitude: 0.5,
        }
        .compile(0);
        let reached = p.advance_by_area(0.0, 10_000_000.0);
        assert!(
            (reached - 10_000_000.0).abs() < 100_000.0,
            "reached {reached}"
        );
    }
}

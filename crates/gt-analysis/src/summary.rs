//! Aggregate summaries and confidence-interval comparison (§4.5).
//!
//! The paper's methodology requires "at least n ≥ 30 test runs for each
//! configuration due to the central limit theory", after which systems are
//! compared via 95% confidence intervals of aggregated metrics:
//! non-overlapping intervals are significantly different.

/// Two-sided 97.5% Student-t critical values for degrees of freedom
/// 1..=29, indexed by `df - 1`. Below the paper's n ≥ 30 rule the normal
/// z = 1.96 understates interval widths badly (df = 2 needs 4.30, more
/// than twice the normal width); above it the t distribution is within
/// ~2% of z and the table hands over to 1.96.
const T_CRITICAL_975: [f64; 29] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045,
];

/// The 97.5% critical value for a mean estimated from `n` observations:
/// Student-t for small samples, z = 1.96 once the paper's n ≥ 30 rule
/// licenses the normal approximation.
pub(crate) fn critical_value_95(n: u64) -> f64 {
    if n >= 30 {
        1.96
    } else {
        // ci95 requires n >= 2, so df = n - 1 is in 1..=28 here.
        T_CRITICAL_975[(n.max(2) - 2) as usize]
    }
}

/// Streaming mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Builds a summary from a slice.
    pub fn of(values: &[f64]) -> Self {
        let mut s = Summary::new();
        for &v in values {
            s.add(v);
        }
        s
    }

    /// Adds one observation.
    pub fn add(&mut self, value: f64) {
        self.n += 1;
        let delta = value - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (Bessel-corrected); 0 with fewer than 2 points.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Maximum observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// The 95% confidence interval of the mean: Student-t critical
    /// values below n = 30 (where the normal z = 1.96 understates the
    /// width), the normal approximation the paper's n ≥ 30 rule licenses
    /// from there on.
    ///
    /// Returns `None` with fewer than 2 observations.
    pub fn ci95(&self) -> Option<ConfidenceInterval> {
        if self.n < 2 {
            return None;
        }
        let half = critical_value_95(self.n) * self.stddev() / (self.n as f64).sqrt();
        Some(ConfidenceInterval {
            mean: self.mean,
            lo: self.mean - half,
            hi: self.mean + half,
            n: self.n,
        })
    }

    /// Whether the sample size meets the paper's n ≥ 30 guideline.
    pub fn meets_n30(&self) -> bool {
        self.n >= 30
    }
}

/// A confidence interval of a mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate.
    pub mean: f64,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Sample size.
    pub n: u64,
}

impl ConfidenceInterval {
    /// Whether this interval overlaps another.
    ///
    /// Only meaningful for well-formed intervals: a NaN bound makes every
    /// comparison false, so a degenerate interval silently reads as
    /// "disjoint" here — callers must check [`Self::is_degenerate`] first
    /// (as [`compare_ci95`] does) instead of trusting this answer.
    pub(crate) fn overlaps(&self, other: &ConfidenceInterval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// Whether any bound is non-finite (NaN-poisoned input, infinite
    /// variance). A degenerate interval supports no verdict.
    pub(crate) fn is_degenerate(&self) -> bool {
        !(self.mean.is_finite() && self.lo.is_finite() && self.hi.is_finite())
    }
}

/// The paper's comparison rule: the verdict of comparing two systems by
/// CI95 of an aggregated metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comparison {
    /// `a`'s interval lies entirely above `b`'s: significantly greater.
    AGreater,
    /// `b`'s interval lies entirely above `a`'s.
    BGreater,
    /// Intervals overlap: no significant difference at this level.
    NotSignificant,
}

/// A CI95 verdict together with the methodology caveat it carries: a
/// significant difference from 3 runs is not the paper's significant
/// difference from 30.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CiComparison {
    /// The overlap verdict.
    pub verdict: Comparison,
    /// Whether *both* samples meet the paper's n ≥ 30 rule. A `false`
    /// here means the verdict rests on small-sample t intervals and must
    /// be reported as provisional.
    pub meets_n30: bool,
}

/// Compares two samples via non-overlapping CI95 (§4.5). Returns `None`
/// when either sample is too small for an interval, or when either
/// interval is degenerate (NaN-poisoned metrics must yield "no verdict",
/// never a spurious significant difference — with a NaN bound every
/// float comparison is false, which the overlap logic would otherwise
/// misread as disjoint intervals).
pub fn compare_ci95(a: &Summary, b: &Summary) -> Option<CiComparison> {
    let (ca, cb) = (a.ci95()?, b.ci95()?);
    if ca.is_degenerate() || cb.is_degenerate() {
        return None;
    }
    let verdict = if ca.overlaps(&cb) {
        Comparison::NotSignificant
    } else if ca.lo > cb.hi {
        Comparison::AGreater
    } else {
        Comparison::BGreater
    };
    Some(CiComparison {
        verdict,
        meets_n30: a.meets_n30() && b.meets_n30(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = Summary::of(&values);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample variance of this classic set is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn empty_and_singleton() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert!(s.ci95().is_none());
        let one = Summary::of(&[3.0]);
        assert_eq!(one.mean(), 3.0);
        assert!(one.ci95().is_none());
    }

    #[test]
    fn ci_shrinks_with_n() {
        let narrow = Summary::of(
            &vec![10.0; 100]
                .iter()
                .enumerate()
                .map(|(i, v)| v + (i % 2) as f64)
                .collect::<Vec<_>>(),
        );
        let wide = Summary::of(&[10.0, 11.0, 10.0, 11.0]);
        let cn = narrow.ci95().unwrap();
        let cw = wide.ci95().unwrap();
        assert!(cn.hi - cn.lo < cw.hi - cw.lo);
    }

    #[test]
    fn comparison_verdicts() {
        let a = Summary::of(&(0..40).map(|i| 100.0 + (i % 3) as f64).collect::<Vec<_>>());
        let b = Summary::of(&(0..40).map(|i| 10.0 + (i % 3) as f64).collect::<Vec<_>>());
        let ab = compare_ci95(&a, &b).unwrap();
        assert_eq!(ab.verdict, Comparison::AGreater);
        assert!(ab.meets_n30);
        assert_eq!(compare_ci95(&b, &a).unwrap().verdict, Comparison::BGreater);
        let c = Summary::of(&(0..40).map(|i| 100.2 + (i % 3) as f64).collect::<Vec<_>>());
        let ac = compare_ci95(&a, &c).unwrap();
        assert_eq!(ac.verdict, Comparison::NotSignificant);
    }

    #[test]
    fn small_sample_comparison_carries_the_n30_caveat() {
        // 3 repetitions each, clearly separated: the verdict is still
        // AGreater, but it must arrive flagged as below the paper's
        // repetition rule so the orchestrator reports it as provisional.
        let a = Summary::of(&[100.0, 101.0, 102.0]);
        let b = Summary::of(&[10.0, 11.0, 12.0]);
        let cmp = compare_ci95(&a, &b).unwrap();
        assert_eq!(cmp.verdict, Comparison::AGreater);
        assert!(!cmp.meets_n30);
        // One large side is not enough: both must meet n >= 30.
        let big = Summary::of(&(0..40).map(|i| (i % 3) as f64).collect::<Vec<_>>());
        assert!(!compare_ci95(&a, &big).unwrap().meets_n30);
    }

    #[test]
    fn t_widths_exceed_z_below_n30() {
        // Regression: ci95 used z = 1.96 regardless of n, understating
        // small-sample intervals. Pin the t-based half-widths at n = 3,
        // 10, 29 against the exact critical values, and z at n >= 30.
        let half_width = |ci: ConfidenceInterval| (ci.hi - ci.lo) / 2.0;
        for (n, t) in [(3u64, 4.303), (10, 2.262), (29, 2.048)] {
            let values: Vec<f64> = (0..n).map(|i| 50.0 + (i % 2) as f64).collect();
            let s = Summary::of(&values);
            let expected = t * s.stddev() / (n as f64).sqrt();
            let ci = s.ci95().unwrap();
            assert!(
                (half_width(ci) - expected).abs() < 1e-9,
                "n={n}: half width {} vs t-based {expected}",
                half_width(ci)
            );
            // The z-based width would be narrower — the bug this guards.
            let z_width = 1.96 * s.stddev() / (n as f64).sqrt();
            assert!(half_width(ci) > z_width);
        }
        for n in [30u64, 50, 100] {
            let values: Vec<f64> = (0..n).map(|i| 50.0 + (i % 2) as f64).collect();
            let s = Summary::of(&values);
            let expected = 1.96 * s.stddev() / (n as f64).sqrt();
            assert!((half_width(s.ci95().unwrap()) - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn nan_poisoned_comparison_returns_none() {
        // Regression: a NaN metric poisons the summary, every float
        // comparison against a NaN bound is false, and the overlap logic
        // misread the intervals as disjoint — reporting a *significant*
        // difference out of garbage. Degenerate intervals must yield no
        // verdict at all.
        let poisoned = Summary::of(&[10.0, f64::NAN, 12.0]);
        let clean = Summary::of(&[100.0, 101.0, 102.0]);
        let ci = poisoned.ci95().unwrap();
        assert!(ci.is_degenerate());
        assert_eq!(compare_ci95(&poisoned, &clean), None);
        assert_eq!(compare_ci95(&clean, &poisoned), None);
        assert_eq!(compare_ci95(&poisoned, &poisoned), None);
        assert!(!clean.ci95().unwrap().is_degenerate());
    }

    #[test]
    fn comparison_requires_data() {
        assert_eq!(
            compare_ci95(&Summary::new(), &Summary::of(&[1.0, 2.0])),
            None
        );
    }

    #[test]
    fn n30_guideline() {
        assert!(!Summary::of(&vec![1.0; 29]).meets_n30());
        assert!(Summary::of(&vec![1.0; 30]).meets_n30());
    }

    #[test]
    fn interval_overlap_logic() {
        let a = ConfidenceInterval {
            mean: 5.0,
            lo: 4.0,
            hi: 6.0,
            n: 30,
        };
        let b = ConfidenceInterval {
            mean: 6.5,
            lo: 5.5,
            hi: 7.5,
            n: 30,
        };
        let c = ConfidenceInterval {
            mean: 9.0,
            lo: 8.0,
            hi: 10.0,
            n: 30,
        };
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
    }
}

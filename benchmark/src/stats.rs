//! Order statistics and the regression-bound rule shared by `run` and
//! `compare`.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count; NaN when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    gt_analysis::percentile(values, 50.0).unwrap_or(f64::NAN)
}

/// Distance between the first and third quartile as a share of the
/// median, quartiles as Python's `statistics.quantiles(values, n=4)`
/// gives them. 0 for fewer than two values: one pass has no spread to
/// show.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let mid = median(&v);
    if mid == 0.0 {
        return 0.0;
    }
    ((quartile(3) - quartile(1)) / mid).abs()
}

/// The share of `base` by which `new` is worse (negative when better).
pub fn worsening(better: Better, base: f64, new: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    match better {
        Better::Higher => (base - new) / base,
        Better::Lower => (new - base) / base,
    }
}

/// What a comparison of one metric on one workload shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Within,
    /// Worse by more than the bound.
    Regression,
    /// The spread between passes is wider than the bound, so the
    /// medians cannot resolve a change of that size either way.
    Unresolved,
}

/// Applies a metric's bound: `worse` is the share by which the median
/// worsened, `spread` the wider of the two sides' pass-to-pass spreads.
pub fn verdict(worse: f64, spread: f64, bound: f64) -> Verdict {
    if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else {
        Verdict::Within
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 12, 11], n=4) == [10.0, 11.0, 12.0]
        assert!((quartile_spread(&[10.0, 12.0, 11.0]) - 2.0 / 11.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 110.0) + 0.10).abs() < 1e-12);
        assert!((worsening(Better::Lower, 2.0, 2.5) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn bound_check_separates_the_three_verdicts() {
        assert_eq!(verdict(0.04, 0.02, 0.10), Verdict::Within);
        assert_eq!(verdict(-0.30, 0.02, 0.10), Verdict::Within);
        assert_eq!(verdict(0.12, 0.02, 0.10), Verdict::Regression);
        // A wide spread wins over an apparent regression: unresolved,
        // not unchanged and not regressed.
        assert_eq!(verdict(0.12, 0.15, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(0.00, 0.15, 0.10), Verdict::Unresolved);
    }
}

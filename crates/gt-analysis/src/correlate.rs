//! Correlation analyses between metric series (§4.5: "statistical time
//! series analyses (e.g., cross-correlations)").

/// Pearson correlation coefficient of two equal-length series.
///
/// Returns `None` when the series differ in length, are shorter than 2,
/// either has zero variance, or a non-finite sample (a degraded
/// sampler's NaN) leaves no finite correlation.
pub fn pearson(a: &[f64], b: &[f64]) -> Option<f64> {
    if a.len() != b.len() || a.len() < 2 {
        return None;
    }
    let n = a.len() as f64;
    let mean_a = a.iter().sum::<f64>() / n;
    let mean_b = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut var_a = 0.0;
    let mut var_b = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        let dx = x - mean_a;
        let dy = y - mean_b;
        cov += dx * dy;
        var_a += dx * dx;
        var_b += dy * dy;
    }
    let r = cov / (var_a.sqrt() * var_b.sqrt());
    (var_a != 0.0 && var_b != 0.0 && r.is_finite()).then_some(r)
}

/// Pearson correlation of `a` against `b` shifted by each lag in
/// `-max_lag..=max_lag`: positive lag means `b` is delayed relative to
/// `a` (i.e. `a[t]` is compared with `b[t + lag]`).
///
/// Returns `(lag, correlation)` pairs; lags whose overlap is shorter than
/// 2 samples or degenerate are skipped.
pub fn cross_correlation(a: &[f64], b: &[f64], max_lag: usize) -> Vec<(isize, f64)> {
    let mut out = Vec::with_capacity(2 * max_lag + 1);
    let max_lag = max_lag as isize;
    for lag in -max_lag..=max_lag {
        let (xa, xb): (&[f64], &[f64]) = if lag >= 0 {
            let l = lag as usize;
            if l >= b.len() {
                continue;
            }
            let n = a.len().min(b.len() - l);
            (&a[..n], &b[l..l + n])
        } else {
            let l = (-lag) as usize;
            if l >= a.len() {
                continue;
            }
            let n = b.len().min(a.len() - l);
            (&a[l..l + n], &b[..n])
        };
        if let Some(r) = pearson(xa, xb) {
            out.push((lag, r));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lag with the strongest absolute correlation.
    fn best_lag(a: &[f64], b: &[f64], max_lag: usize) -> Option<(isize, f64)> {
        cross_correlation(a, b, max_lag)
            .into_iter()
            .max_by(|(_, x), (_, y)| x.abs().partial_cmp(&y.abs()).expect("finite"))
    }

    #[test]
    fn a_nan_sample_yields_no_correlation_instead_of_nan() {
        let mut series: Vec<f64> = (1..=8).map(f64::from).collect();
        series[1] = f64::NAN;
        assert_eq!(pearson(&series, &series), None);
        // Every one of the five lags overlaps the NaN on one side: none is
        // a correlation, so none reaches a caller's `partial_cmp`.
        assert_eq!(cross_correlation(&series, &series, 2), []);
        assert_eq!(best_lag(&series, &series, 2), None);
    }

    #[test]
    fn perfect_positive_and_negative() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&a, &b).unwrap() - 1.0).abs() < 1e-12);
        let c = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&a, &c).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn uncorrelated_is_near_zero() {
        let a = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0];
        let b = [1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 2.0, 2.0];
        assert!(pearson(&a, &b).unwrap().abs() < 0.5);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(pearson(&[1.0], &[2.0]), None);
        assert_eq!(pearson(&[1.0, 2.0], &[2.0]), None);
        assert_eq!(pearson(&[3.0, 3.0, 3.0], &[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn cross_correlation_finds_shift() {
        // b is a copy of a delayed by 3 samples.
        let a: Vec<f64> = (0..50).map(|i| ((i % 7) as f64).sin()).collect();
        let mut b = vec![0.0; 3];
        b.extend_from_slice(&a[..47]);
        let (lag, r) = best_lag(&a, &b, 5).unwrap();
        assert_eq!(lag, 3, "best correlation at the injected delay");
        assert!(r > 0.99);
    }

    #[test]
    fn negative_lag_detection() {
        let b: Vec<f64> = (0..50).map(|i| ((i % 5) as f64).cos()).collect();
        let mut a = vec![0.0; 2];
        a.extend_from_slice(&b[..48]);
        // a is b delayed by 2, so b must be shifted by -2 to align.
        let (lag, r) = best_lag(&a, &b, 4).unwrap();
        assert_eq!(lag, -2);
        assert!(r > 0.99);
    }

    #[test]
    fn lag_window_is_bounded() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 2.0, 3.0];
        let all = cross_correlation(&a, &b, 10);
        assert!(all.iter().all(|&(lag, _)| lag.unsigned_abs() < 3));
    }
}

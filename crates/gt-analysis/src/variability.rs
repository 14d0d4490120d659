//! Performance-variability metrics.
//!
//! Graphalytics-style comparisons quantify not only raw performance but
//! its *variability* (§2.1); for online systems the paper adds behavior
//! under varying load (§2.2). These robust statistics characterize how
//! noisy a repeated measurement is: coefficient of variation for the
//! headline number, median absolute deviation and IQR for outlier-robust
//! spread, and an IQR-fence outlier count for run screening.

use crate::percentiles::percentile_sorted;
use crate::summary::Summary;

/// Robust spread statistics of one repeated measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Variability {
    /// Coefficient of variation: stddev / |mean| (0 when the mean is 0).
    pub cv: f64,
    /// Median absolute deviation (unscaled).
    pub mad: f64,
    /// Interquartile range (p75 − p25).
    pub iqr: f64,
    /// Samples outside the Tukey fences `[p25 − 1.5·IQR, p75 + 1.5·IQR]`.
    pub outliers: usize,
    /// Sample count.
    pub n: usize,
}

/// Computes variability statistics; `None` for fewer than 2 samples.
pub fn variability(values: &[f64]) -> Option<Variability> {
    if values.len() < 2 {
        return None;
    }
    let summary = Summary::of(values);
    let mean = summary.mean();
    let cv = if mean == 0.0 {
        0.0
    } else {
        summary.stddev() / mean.abs()
    };

    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("values must not contain NaN"));
    let median = percentile_sorted(&sorted, 50.0);
    let mut deviations: Vec<f64> = sorted.iter().map(|v| (v - median).abs()).collect();
    deviations.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mad = percentile_sorted(&deviations, 50.0);

    let q1 = percentile_sorted(&sorted, 25.0);
    let q3 = percentile_sorted(&sorted, 75.0);
    let iqr = q3 - q1;
    let (lo, hi) = (q1 - 1.5 * iqr, q3 + 1.5 * iqr);
    let outliers = sorted.iter().filter(|&&v| v < lo || v > hi).count();

    Some(Variability {
        cv,
        mad,
        iqr,
        outliers,
        n: values.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tight_measurement_is_stable() {
        let values: Vec<f64> = (0..50).map(|i| 100.0 + (i % 3) as f64 * 0.1).collect();
        let v = variability(&values).unwrap();
        assert!(v.cv < 0.01, "cv {}", v.cv);
        assert_eq!(v.outliers, 0);
        assert_eq!(v.n, 50);
    }

    #[test]
    fn noisy_measurement_is_not_stable() {
        let values: Vec<f64> = (0..50)
            .map(|i| if i % 2 == 0 { 50.0 } else { 150.0 })
            .collect();
        let v = variability(&values).unwrap();
        assert!(v.cv > 0.3);
    }

    #[test]
    fn detects_tukey_outliers() {
        let mut values: Vec<f64> = vec![10.0; 40];
        // Inject mild jitter so the IQR is nonzero.
        for (i, v) in values.iter_mut().enumerate() {
            *v += (i % 5) as f64 * 0.1;
        }
        values.push(100.0); // a run that went haywire
        let v = variability(&values).unwrap();
        assert_eq!(v.outliers, 1);
    }

    #[test]
    fn mad_is_robust_to_a_single_outlier() {
        let mut values: Vec<f64> = (0..40).map(|i| 10.0 + (i % 4) as f64 * 0.5).collect();
        let before = variability(&values).unwrap();
        values.push(1_000.0);
        let after = variability(&values).unwrap();
        // The outlier blows up the CV but barely moves the MAD.
        assert!(after.cv > before.cv * 5.0);
        assert!((after.mad - before.mad).abs() < 1.0);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(variability(&[]).is_none());
        assert!(variability(&[1.0]).is_none());
        let zeros = variability(&[0.0, 0.0, 0.0]).unwrap();
        assert_eq!(zeros.cv, 0.0);
    }
}

//! Trend analysis over metric time series — Table 1's "trend analyses on
//! graph properties" and §3.2's temporal graph properties (densification
//! laws, growth rates).

/// An ordinary-least-squares line fit over `(t, value)` samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trend {
    /// Slope: value change per unit time.
    pub slope: f64,
    /// Intercept at `t = 0`.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]`.
    pub r_squared: f64,
    /// Samples fitted.
    pub n: usize,
}

impl Trend {
    /// Whether the series grows over time with a decent fit.
    pub fn is_growing(&self, min_r_squared: f64) -> bool {
        self.slope > 0.0 && self.r_squared >= min_r_squared
    }
}

/// Fits a least-squares line; `None` with fewer than 2 samples or a
/// degenerate (constant-time) input.
pub fn linear_trend(samples: &[(f64, f64)]) -> Option<Trend> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let n_f = n as f64;
    let mean_t = samples.iter().map(|&(t, _)| t).sum::<f64>() / n_f;
    let mean_v = samples.iter().map(|&(_, v)| v).sum::<f64>() / n_f;
    let mut cov = 0.0;
    let mut var_t = 0.0;
    let mut var_v = 0.0;
    for &(t, v) in samples {
        let dt = t - mean_t;
        let dv = v - mean_v;
        cov += dt * dv;
        var_t += dt * dt;
        var_v += dv * dv;
    }
    if var_t == 0.0 {
        return None;
    }
    let slope = cov / var_t;
    let intercept = mean_v - slope * mean_t;
    let r_squared = if var_v == 0.0 {
        1.0 // constant series: perfectly described by slope 0
    } else {
        (cov * cov) / (var_t * var_v)
    };
    Some(Trend {
        slope,
        intercept,
        r_squared,
        n,
    })
}

/// The densification exponent of Leskovec et al.'s densification law
/// `m ∝ n^a`, fitted as the slope of `log m` over `log n`. Social graphs
/// typically show `1 < a < 2` (edges grow superlinearly in vertices).
/// `None` when fewer than 2 usable (positive) samples exist.
pub fn densification_exponent(samples: &[(usize, usize)]) -> Option<f64> {
    let log_samples: Vec<(f64, f64)> = samples
        .iter()
        .filter(|&&(n, m)| n > 1 && m > 0)
        .map(|&(n, m)| ((n as f64).ln(), (m as f64).ln()))
        .collect();
    linear_trend(&log_samples).map(|t| t.slope)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line() {
        let samples: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 + 2.0 * i as f64)).collect();
        let trend = linear_trend(&samples).unwrap();
        assert!((trend.slope - 2.0).abs() < 1e-12);
        assert!((trend.intercept - 3.0).abs() < 1e-12);
        assert!((trend.r_squared - 1.0).abs() < 1e-12);
        assert!(trend.is_growing(0.9));
    }

    #[test]
    fn noisy_line_keeps_slope_sign() {
        let samples: Vec<(f64, f64)> = (0..50)
            .map(|i| {
                let t = i as f64;
                (t, 10.0 - 0.5 * t + if i % 2 == 0 { 1.0 } else { -1.0 })
            })
            .collect();
        let trend = linear_trend(&samples).unwrap();
        assert!(trend.slope < 0.0);
        assert!(!trend.is_growing(0.0));
        assert!(trend.r_squared > 0.8);
    }

    #[test]
    fn constant_series() {
        let samples: Vec<(f64, f64)> = (0..5).map(|i| (i as f64, 7.0)).collect();
        let trend = linear_trend(&samples).unwrap();
        assert_eq!(trend.slope, 0.0);
        assert_eq!(trend.r_squared, 1.0);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(linear_trend(&[]).is_none());
        assert!(linear_trend(&[(1.0, 2.0)]).is_none());
        // All samples at the same time: undefined slope.
        assert!(linear_trend(&[(1.0, 2.0), (1.0, 3.0)]).is_none());
    }

    #[test]
    fn densification_law_recovered() {
        // m = n^1.3 exactly.
        let samples: Vec<(usize, usize)> = (10..200)
            .step_by(10)
            .map(|n| (n, (n as f64).powf(1.3).round() as usize))
            .collect();
        let a = densification_exponent(&samples).unwrap();
        assert!((a - 1.3).abs() < 0.02, "exponent {a}");
    }

    #[test]
    fn densification_filters_degenerate_points() {
        assert!(densification_exponent(&[(0, 0), (1, 0)]).is_none());
        let a = densification_exponent(&[(0, 0), (10, 10), (100, 100)]).unwrap();
        assert!((a - 1.0).abs() < 1e-9);
    }
}

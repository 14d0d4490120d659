//! Time-series utilities for runtime metric analysis.
//!
//! Metrics in GraphTides are timestamped samples; the standard assessments
//! (stacked time-series plots like Figure 3d) need bucketing and
//! alignment. Event rates are bucketed where the events are counted: by the
//! replayer and by `gt_harness::load`.

use serde::{Deserialize, Serialize};

/// A timestamped series of `(seconds_since_run_start, value)` samples,
/// kept in ascending time order.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    samples: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from samples, sorting by time.
    pub fn from_samples(mut samples: Vec<(f64, f64)>) -> Self {
        samples.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("timestamps must not be NaN"));
        TimeSeries { samples }
    }

    /// Appends a sample; must be at or after the last timestamp.
    ///
    /// # Panics
    /// If `t` precedes the latest sample.
    pub fn push(&mut self, t: f64, value: f64) {
        if let Some(&(last, _)) = self.samples.last() {
            assert!(t >= last, "timestamps must be monotone: {t} < {last}");
        }
        self.samples.push((t, value));
    }

    /// The raw samples.
    pub fn samples(&self) -> &[(f64, f64)] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Just the values.
    pub fn values(&self) -> Vec<f64> {
        self.samples.iter().map(|&(_, v)| v).collect()
    }

    /// Mean value per fixed-width bucket over `[start, end)`. Buckets with
    /// no samples yield `None`.
    pub fn bucket_mean(&self, start: f64, end: f64, width: f64) -> Vec<Option<f64>> {
        assert!(width > 0.0, "bucket width must be positive");
        let buckets = ((end - start) / width).ceil().max(0.0) as usize;
        let mut sums = vec![(0.0f64, 0u64); buckets];
        for &(t, v) in &self.samples {
            if t < start || t >= end {
                continue;
            }
            let idx = ((t - start) / width) as usize;
            if idx < buckets {
                sums[idx].0 += v;
                sums[idx].1 += 1;
            }
        }
        sums.into_iter()
            .map(|(s, c)| (c > 0).then(|| s / c as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_enforces_monotonicity() {
        let mut ts = TimeSeries::new();
        ts.push(0.0, 1.0);
        ts.push(1.0, 2.0);
        assert_eq!(ts.len(), 2);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn push_rejects_backwards_time() {
        let mut ts = TimeSeries::new();
        ts.push(5.0, 1.0);
        ts.push(4.0, 1.0);
    }

    #[test]
    fn from_samples_sorts() {
        let ts = TimeSeries::from_samples(vec![(2.0, 20.0), (1.0, 10.0)]);
        assert_eq!(ts.samples(), [(1.0, 10.0), (2.0, 20.0)]);
    }

    #[test]
    fn bucket_means() {
        let ts = TimeSeries::from_samples(vec![(0.1, 1.0), (0.9, 3.0), (1.5, 10.0), (3.2, 7.0)]);
        let buckets = ts.bucket_mean(0.0, 4.0, 1.0);
        assert_eq!(buckets, [Some(2.0), Some(10.0), None, Some(7.0)]);
    }

    #[test]
    fn bucket_ignores_out_of_window() {
        let ts = TimeSeries::from_samples(vec![(-1.0, 5.0), (10.0, 5.0), (0.5, 2.0)]);
        let buckets = ts.bucket_mean(0.0, 1.0, 1.0);
        assert_eq!(buckets, [Some(2.0)]);
    }
}

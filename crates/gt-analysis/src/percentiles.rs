//! Percentile estimation with linear interpolation.
//!
//! All entry points are NaN-safe: a degraded sampler occasionally emits
//! `NaN` (a division by a zero interval, a salvaged partial log), and one
//! such sample must not abort the analysis of an otherwise healthy run.
//! NaNs are filtered out and *flagged* — [`CleanSeries`] carries the
//! count, so reports can annotate rather than silently drop.

/// A series with its NaN samples filtered out and counted.
///
/// The typed result of [`CleanSeries::of`]: `values` is the finite-sortable
/// remainder (NaN-free, ascending), `nan_count` how many samples were
/// dropped. An all-NaN input yields an empty `values`, which downstream
/// consumers degrade to an "insufficient samples" row.
#[derive(Debug, Clone, PartialEq)]
pub struct CleanSeries {
    /// The NaN-free samples, sorted ascending.
    pub values: Vec<f64>,
    /// How many NaN samples were dropped.
    pub nan_count: usize,
}

impl CleanSeries {
    /// Filters NaNs out of `values` and sorts the remainder ascending
    /// (total order, so signed infinities and zeros sort deterministically).
    pub fn of(values: &[f64]) -> CleanSeries {
        let mut clean = Vec::with_capacity(values.len());
        clean.extend(values.iter().copied().filter(|v| !v.is_nan()));
        // Total order: equal means bit-identical, so no stable sort needed.
        clean.sort_unstable_by(f64::total_cmp);
        CleanSeries {
            nan_count: values.len() - clean.len(),
            values: clean,
        }
    }

    /// Whether any usable samples remain.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of usable samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// The `p`-th percentile of the clean samples; `None` if none remain.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        Some(percentile_sorted(&self.values, p))
    }
}

/// The `p`-th percentile (`0.0..=100.0`) of `values` using linear
/// interpolation between closest ranks. NaN samples are ignored; returns
/// `None` when no usable (non-NaN) samples remain.
///
/// The input need not be sorted; a sorted copy is made internally. For
/// repeated queries over the same data, use [`CleanSeries::of`] once and
/// query it, or sort and call `percentile_sorted`.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    CleanSeries::of(values).percentile(p)
}

/// Like [`percentile`], but requires `sorted` to be ascending.
///
/// # Panics
/// If `sorted` is empty or `p` is outside `0.0..=100.0`.
pub(crate) fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// A bundle of the quantiles GraphTides plots use: min, p5, median, p95,
/// p99, max (Figure 3a reports "range covers 95%, 5th percentile to
/// maximum").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantiles {
    /// Minimum value.
    pub min: f64,
    /// 5th percentile.
    pub p5: f64,
    /// Median.
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum value.
    pub max: f64,
}

impl Quantiles {
    /// Computes the bundle, ignoring NaN samples. Returns `None` when no
    /// usable samples remain — including a non-empty but all-NaN input,
    /// so callers must degrade gracefully rather than `expect` on
    /// non-emptiness of the raw series.
    pub fn of(values: &[f64]) -> Option<Quantiles> {
        let clean = CleanSeries::of(values);
        let sorted = &clean.values;
        if sorted.is_empty() {
            return None;
        }
        Some(Quantiles {
            min: sorted[0],
            p5: percentile_sorted(sorted, 5.0),
            median: percentile_sorted(sorted, 50.0),
            p95: percentile_sorted(sorted, 95.0),
            p99: percentile_sorted(sorted, 99.0),
            max: *sorted.last().expect("non-empty"),
        })
    }
}

/// Tail quantiles for sojourn-latency analysis: p50/p95/p99/p999 plus the
/// sample count the estimate rests on (a p999 from 50 samples is noise;
/// the count lets reports say so).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailQuantiles {
    /// Usable (non-NaN) samples behind the estimates.
    pub n: usize,
    /// NaN samples dropped from the input.
    pub nan_count: usize,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Maximum value.
    pub max: f64,
}

impl TailQuantiles {
    /// Computes the tail bundle, ignoring NaN samples. Returns `None`
    /// when no usable samples remain.
    pub fn of(values: &[f64]) -> Option<TailQuantiles> {
        let clean = CleanSeries::of(values);
        let sorted = &clean.values;
        if sorted.is_empty() {
            return None;
        }
        Some(TailQuantiles {
            n: sorted.len(),
            nan_count: clean.nan_count,
            p50: percentile_sorted(sorted, 50.0),
            p95: percentile_sorted(sorted, 95.0),
            p99: percentile_sorted(sorted, 99.0),
            p999: percentile_sorted(sorted, 99.9),
            max: *sorted.last().expect("non-empty"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[4.0, 1.0, 2.0, 3.0], 50.0), Some(2.5));
    }

    #[test]
    fn extremes() {
        let v = [5.0, 1.0, 9.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(9.0));
    }

    #[test]
    fn interpolation() {
        // 0..=10: p25 lands exactly on 2.5.
        let v: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 25.0), Some(2.5));
        assert_eq!(percentile(&v, 95.0), Some(9.5));
    }

    #[test]
    fn single_value() {
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn empty_is_none() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(Quantiles::of(&[]), None);
        assert_eq!(TailQuantiles::of(&[]), None);
    }

    // Regression: a single NaN rate sample from a degraded sampler used
    // to panic the sort and kill the whole report.
    #[test]
    fn nan_samples_are_filtered_not_fatal() {
        let v = [3.0, f64::NAN, 1.0, 2.0, f64::NAN];
        assert_eq!(percentile(&v, 50.0), Some(2.0));
        let q = Quantiles::of(&v).expect("three usable samples");
        assert_eq!(q.min, 1.0);
        assert_eq!(q.max, 3.0);
        let clean = CleanSeries::of(&v);
        assert_eq!(clean.len(), 3);
        assert_eq!(clean.nan_count, 2, "dropped NaNs are flagged, not hidden");
    }

    #[test]
    fn all_nan_degrades_to_none() {
        let v = [f64::NAN, f64::NAN];
        assert_eq!(percentile(&v, 50.0), None);
        assert_eq!(Quantiles::of(&v), None);
        let clean = CleanSeries::of(&v);
        assert!(clean.is_empty());
        assert_eq!(clean.nan_count, 2);
    }

    #[test]
    fn infinities_sort_deterministically() {
        let v = [f64::INFINITY, 1.0, f64::NEG_INFINITY];
        let q = Quantiles::of(&v).unwrap();
        assert_eq!(q.min, f64::NEG_INFINITY);
        assert_eq!(q.max, f64::INFINITY);
    }

    #[test]
    fn quantiles_bundle_is_ordered() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let q = Quantiles::of(&v).unwrap();
        assert!(q.min <= q.p5);
        assert!(q.p5 <= q.median);
        assert!(q.median <= q.p95);
        assert!(q.p95 <= q.p99);
        assert!(q.p99 <= q.max);
        assert_eq!(q.min, 0.0);
        assert_eq!(q.max, 999.0);
        assert!((q.median - 499.5).abs() < 1e-9);
    }

    #[test]
    fn tail_quantiles_reach_into_the_tail() {
        // 10_000 samples 0..10_000: p999 ≈ 9989, far above p99 ≈ 9899.
        let v: Vec<f64> = (0..10_000).map(f64::from).collect();
        let t = TailQuantiles::of(&v).unwrap();
        assert_eq!(t.n, 10_000);
        assert!(t.p99 < t.p999);
        assert!((t.p999 - 9989.0).abs() < 1.0, "p999 = {}", t.p999);
        assert_eq!(t.max, 9999.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_percentile_panics() {
        percentile_sorted(&[1.0], 101.0);
    }
}

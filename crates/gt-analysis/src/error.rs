//! Accuracy metrics for approximate computations (§4.3 "Computation
//! Metrics"): relative errors against exact references, median relative
//! error (an LB aggregate the paper names explicitly), and top-k overlap
//! for ranking computations like the influence rank of §5.3.2.

use std::collections::BTreeMap;

/// Relative error `|approx - exact| / |exact|`; falls back to absolute
/// error when `exact` is zero.
pub(crate) fn relative_error(approx: f64, exact: f64) -> f64 {
    if exact == 0.0 {
        approx.abs()
    } else {
        (approx - exact).abs() / exact.abs()
    }
}

/// Per-key relative errors for all keys present in `exact`. Keys missing
/// from `approx` count as error 1.0 (the result is entirely absent).
pub(crate) fn relative_errors<K: Ord + Clone>(
    approx: &BTreeMap<K, f64>,
    exact: &BTreeMap<K, f64>,
) -> BTreeMap<K, f64> {
    exact
        .iter()
        .map(|(k, &e)| {
            let err = match approx.get(k) {
                Some(&a) => relative_error(a, e),
                None => 1.0,
            };
            (k.clone(), err)
        })
        .collect()
}

/// Median of per-key relative errors (`None` when `exact` is empty).
pub fn median_relative_error<K: Ord + Clone>(
    approx: &BTreeMap<K, f64>,
    exact: &BTreeMap<K, f64>,
) -> Option<f64> {
    let errors: Vec<f64> = relative_errors(approx, exact).into_values().collect();
    crate::percentiles::percentile(&errors, 50.0)
}

/// Jaccard overlap of the top-k key sets of two rankings: 1.0 means the
/// approximate ranking surfaces exactly the same top-k entities.
pub fn top_k_overlap<K: Ord + Clone>(
    approx: &BTreeMap<K, f64>,
    exact: &BTreeMap<K, f64>,
    k: usize,
) -> f64 {
    if k == 0 {
        return 1.0;
    }
    let top = |m: &BTreeMap<K, f64>| -> Vec<K> {
        let mut entries: Vec<(&K, f64)> = m.iter().map(|(key, &v)| (key, v)).collect();
        entries.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(b.0)));
        entries
            .into_iter()
            .take(k)
            .map(|(key, _)| key.clone())
            .collect()
    };
    let ta = top(approx);
    let tb = top(exact);
    if ta.is_empty() && tb.is_empty() {
        return 1.0;
    }
    let sa: std::collections::BTreeSet<&K> = ta.iter().collect();
    let sb: std::collections::BTreeSet<&K> = tb.iter().collect();
    let inter = sa.intersection(&sb).count() as f64;
    let union = sa.union(&sb).count() as f64;
    inter / union
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(pairs: &[(u32, f64)]) -> BTreeMap<u32, f64> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn basic_relative_error() {
        assert_eq!(relative_error(11.0, 10.0), 0.1);
        assert_eq!(relative_error(10.0, 10.0), 0.0);
        assert_eq!(relative_error(-9.0, -10.0), 0.1);
        // Zero exact falls back to absolute.
        assert_eq!(relative_error(0.5, 0.0), 0.5);
    }

    #[test]
    fn per_key_errors_and_missing_keys() {
        let exact = map(&[(1, 10.0), (2, 20.0), (3, 5.0)]);
        let approx = map(&[(1, 11.0), (2, 20.0)]);
        let errors = relative_errors(&approx, &exact);
        assert!((errors[&1] - 0.1).abs() < 1e-12);
        assert_eq!(errors[&2], 0.0);
        assert_eq!(errors[&3], 1.0);
    }

    #[test]
    fn median_error() {
        let exact = map(&[(1, 10.0), (2, 10.0), (3, 10.0)]);
        let approx = map(&[(1, 10.0), (2, 11.0), (3, 15.0)]);
        let med = median_relative_error(&approx, &exact).unwrap();
        assert!((med - 0.1).abs() < 1e-12);
        assert_eq!(median_relative_error(&approx, &BTreeMap::new()), None);
    }

    #[test]
    fn top_k_overlap_cases() {
        let exact = map(&[(1, 100.0), (2, 90.0), (3, 80.0), (4, 10.0)]);
        let same = exact.clone();
        assert_eq!(top_k_overlap(&same, &exact, 3), 1.0);
        // Approx swaps #3 for #4.
        let approx = map(&[(1, 100.0), (2, 90.0), (4, 80.0), (3, 10.0)]);
        // Top-3 sets {1,2,4} vs {1,2,3}: intersection 2, union 4.
        assert_eq!(top_k_overlap(&approx, &exact, 3), 0.5);
        assert_eq!(top_k_overlap(&approx, &exact, 0), 1.0);
        // k larger than the maps: full sets compared.
        assert_eq!(top_k_overlap(&approx, &exact, 10), 1.0);
    }

    #[test]
    fn top_k_of_empty_maps() {
        let empty: BTreeMap<u32, f64> = BTreeMap::new();
        assert_eq!(top_k_overlap(&empty, &empty, 5), 1.0);
    }
}

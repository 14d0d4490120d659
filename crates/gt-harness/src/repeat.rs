//! Repetition and statistically rigorous comparison (§4.5).

use gt_analysis::summary::{compare_ci95, CiComparison, Summary};
use gt_analysis::ConfidenceInterval;

use crate::watchdog::RunStatus;

/// The aggregate of repeated runs of one configuration.
#[derive(Debug, Clone)]
pub struct RepeatOutcome {
    /// Summary of the collected metric across *clean* repetitions —
    /// aborted/salvaged runs never contribute samples.
    pub summary: Summary,
    /// CI95 of the metric, if computable.
    pub ci95: Option<ConfidenceInterval>,
    /// Whether the clean-repetition count meets the paper's n ≥ 30 rule.
    pub meets_n30: bool,
    /// Repetitions excluded from the summary because the watchdog cut
    /// them short (their salvaged partial metrics would poison the mean).
    pub excluded: u32,
}

/// Runs `reps` repetitions of a measurement closure (repetition index in,
/// metric out) and aggregates. Every repetition counts as clean.
pub fn repeat_runs(reps: u32, mut run: impl FnMut(u32) -> f64) -> RepeatOutcome {
    repeat_status_runs(reps, |i| (run(i), RunStatus::Completed))
}

/// Runs `reps` repetitions of a measurement closure that also reports how
/// each run ended. Only [`RunStatus::Completed`] repetitions enter the
/// summary; aborted (watchdog-salvaged) runs are counted in
/// [`RepeatOutcome::excluded`] instead — a partial run's throughput is
/// not a sample of the configuration's throughput, and averaging it in
/// silently deflates the mean.
pub(crate) fn repeat_status_runs(
    reps: u32,
    mut run: impl FnMut(u32) -> (f64, RunStatus),
) -> RepeatOutcome {
    let mut summary = Summary::new();
    let mut excluded = 0u32;
    for i in 0..reps {
        let (metric, status) = run(i);
        match status {
            RunStatus::Completed => summary.add(metric),
            RunStatus::Aborted(_) => excluded += 1,
        }
    }
    RepeatOutcome {
        ci95: summary.ci95(),
        meets_n30: summary.meets_n30(),
        summary,
        excluded,
    }
}

/// Compares two repeated configurations by CI95 overlap; `None` when
/// either side lacks enough repetitions for an interval (or carries a
/// degenerate one). The verdict arrives with its
/// [`CiComparison::meets_n30`] caveat.
pub fn compare_metric(a: &RepeatOutcome, b: &RepeatOutcome) -> Option<CiComparison> {
    compare_ci95(&a.summary, &b.summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::watchdog::AbortReason;
    use gt_analysis::Comparison;
    use std::time::Duration;

    #[test]
    fn aggregates_runs() {
        let outcome = repeat_runs(30, |i| 100.0 + (i % 5) as f64);
        assert!(outcome.meets_n30);
        assert_eq!(outcome.summary.count(), 30);
        assert_eq!(outcome.excluded, 0);
        let ci = outcome.ci95.unwrap();
        assert!(ci.lo < outcome.summary.mean() && outcome.summary.mean() < ci.hi);
    }

    #[test]
    fn detects_significant_difference() {
        let fast = repeat_runs(30, |i| 1_000.0 + (i % 3) as f64);
        let slow = repeat_runs(30, |i| 100.0 + (i % 3) as f64);
        let cmp = compare_metric(&fast, &slow).unwrap();
        assert_eq!(cmp.verdict, Comparison::AGreater);
        assert!(cmp.meets_n30);
    }

    #[test]
    fn overlapping_runs_are_not_significant() {
        let a = repeat_runs(30, |i| 10.0 + (i % 4) as f64);
        let b = repeat_runs(30, |i| 10.2 + (i % 4) as f64);
        assert_eq!(
            compare_metric(&a, &b).map(|c| c.verdict),
            Some(Comparison::NotSignificant)
        );
    }

    #[test]
    fn too_few_reps_yield_none() {
        let one = repeat_runs(1, |_| 5.0);
        assert!(one.ci95.is_none());
        assert!(!one.meets_n30);
        let other = repeat_runs(30, |_| 5.0);
        assert_eq!(compare_metric(&one, &other), None);
    }

    fn aborted() -> RunStatus {
        RunStatus::Aborted(AbortReason::Stalled {
            stalled_for: Duration::from_secs(1),
            events_delivered: 10,
        })
    }

    #[test]
    fn aborted_repetitions_are_excluded_from_the_summary() {
        // Regression: repeat_runs used to average a salvaged partial
        // run's metric in as if it were a clean sample. A watchdog-cut
        // run reporting ~0 throughput must not deflate the mean.
        let outcome = repeat_status_runs(10, |i| {
            if i % 3 == 2 {
                (0.0, aborted()) // salvaged partial: near-zero throughput
            } else {
                (100.0, RunStatus::Completed)
            }
        });
        assert_eq!(outcome.excluded, 3);
        assert_eq!(outcome.summary.count(), 7);
        assert_eq!(outcome.summary.mean(), 100.0);
        assert_eq!(outcome.summary.min(), Some(100.0));
    }

    #[test]
    fn meets_n30_counts_clean_runs_only() {
        // 30 repetitions launched, 5 aborted: only 25 clean samples, so
        // the n >= 30 rule is NOT met even though reps == 30.
        let outcome = repeat_status_runs(30, |i| {
            if i < 5 {
                (0.0, aborted())
            } else {
                (50.0 + (i % 2) as f64, RunStatus::Completed)
            }
        });
        assert_eq!(outcome.excluded, 5);
        assert_eq!(outcome.summary.count(), 25);
        assert!(!outcome.meets_n30);
    }

    #[test]
    fn all_aborted_yields_empty_summary() {
        let outcome = repeat_status_runs(3, |_| (42.0, aborted()));
        assert_eq!(outcome.excluded, 3);
        assert_eq!(outcome.summary.count(), 0);
        assert!(outcome.ci95.is_none());
    }
}

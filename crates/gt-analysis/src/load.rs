//! Load-run analysis: offered-vs-achieved rate and per-client-class
//! sojourn-latency tails over the whole run.
//!
//! The load layer (`gt-load`) folds its client reports into the merged
//! [`ResultLog`] under the [`LOAD_SOURCE`] source:
//!
//! * `offered_rate.<class>` / `achieved_rate.<class>` — per-second
//!   bucketed rate series (what the class scheduled vs. what its writes
//!   completed);
//! * `sojourn_us.<class>` — one float record per graph event, stamped at
//!   write completion, valued at completion minus *scheduled* arrival.
//!
//! Sojourn — not service time — is the open-loop quantity: it charges
//! the SUT for queueing delay accumulated while it stalled, which is
//! precisely what coordinated omission erases. The tail helpers return
//! [`TailQuantiles`] (p50/p95/p99/p999 plus sample count), NaN-safe like
//! the rest of the percentile toolbox.

use gt_metrics::ResultLog;

use crate::percentiles::TailQuantiles;

/// The result-log source under which the load layer files its records.
pub const LOAD_SOURCE: &str = "load";

/// Offered vs. achieved rate of one client class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OfferedAchieved {
    /// Mean offered rate over the analysed span, events per second.
    pub offered_rate: f64,
    /// Mean achieved (write-completed) rate, events per second.
    pub achieved_rate: f64,
}

impl OfferedAchieved {
    /// Achieved as a fraction of offered; 1.0 when nothing was offered.
    pub fn ratio(&self) -> f64 {
        if self.offered_rate <= 0.0 {
            return 1.0;
        }
        self.achieved_rate / self.offered_rate
    }
}

fn mean(series: &[(f64, f64)]) -> Option<f64> {
    let clean: Vec<f64> = series
        .iter()
        .map(|&(_, v)| v)
        .filter(|v| !v.is_nan())
        .collect();
    if clean.is_empty() {
        return None;
    }
    Some(clean.iter().sum::<f64>() / clean.len() as f64)
}

/// Whole-run offered vs. achieved rate of `class`. `None` when the log
/// has no usable rate samples for the class.
pub fn offered_vs_achieved(log: &ResultLog, class: &str) -> Option<OfferedAchieved> {
    let offered = mean(&log.series(LOAD_SOURCE, &format!("offered_rate.{class}")))?;
    let achieved = mean(&log.series(LOAD_SOURCE, &format!("achieved_rate.{class}")))?;
    Some(OfferedAchieved {
        offered_rate: offered,
        achieved_rate: achieved,
    })
}

/// Whole-run sojourn-latency tail of `class`, microseconds. `None` when
/// the log has no usable sojourn samples for the class.
pub fn sojourn_quantiles(log: &ResultLog, class: &str) -> Option<TailQuantiles> {
    let values: Vec<f64> = log
        .series(LOAD_SOURCE, &format!("sojourn_us.{class}"))
        .into_iter()
        .map(|(_, v)| v)
        .collect();
    TailQuantiles::of(&values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_metrics::MetricRecord;

    fn marker(t: u64, name: &str) -> MetricRecord {
        MetricRecord::text(t, "load", "marker", name)
    }

    fn sample_log() -> ResultLog {
        let mut log = ResultLog::new();
        log.push(marker(0, "start"));
        // 10 seconds of rates: offered flat at 1000 e/s, achieved dips to
        // 200 e/s during seconds 4..6 (a stall window).
        for s in 0..10u64 {
            let t = s * 1_000_000 + 500_000;
            let achieved = if (4..6).contains(&s) { 200.0 } else { 1000.0 };
            log.push(MetricRecord::float(t, "load", "offered_rate.main", 1000.0));
            log.push(MetricRecord::float(
                t,
                "load",
                "achieved_rate.main",
                achieved,
            ));
        }
        // Sojourns: mostly 100us, a burst of 80ms during the stall.
        for i in 0..1000u64 {
            let t = i * 10_000;
            let sojourn = if (400..420).contains(&i) {
                80_000.0
            } else {
                100.0
            };
            log.push(MetricRecord::float(t, "load", "sojourn_us.main", sojourn));
        }
        log.push(marker(4_000_000, "stall-start"));
        log.push(marker(6_000_000, "stall-end"));
        log.push(marker(10_000_000, "end"));
        log.sort();
        log
    }

    #[test]
    fn whole_run_offered_vs_achieved() {
        let log = sample_log();
        let oa = offered_vs_achieved(&log, "main").unwrap();
        assert!((oa.offered_rate - 1000.0).abs() < 1e-9);
        assert!(oa.achieved_rate < 1000.0);
        assert!(oa.ratio() < 1.0 && oa.ratio() > 0.7);
        assert!(offered_vs_achieved(&log, "ghost").is_none());
    }

    #[test]
    fn whole_run_sojourn_catches_the_tail() {
        let log = sample_log();
        let whole = sojourn_quantiles(&log, "main").unwrap();
        assert_eq!(whole.n, 1000);
        assert!(whole.p50 < 1000.0);
        assert!(whole.p999 > 10_000.0, "p999 must see the spike");
    }
}

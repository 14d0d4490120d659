//! Load-run analysis: offered-vs-achieved rate and per-client-class
//! sojourn-latency tails over the whole run.
//!
//! The load layer (`gt-load`) folds its client reports into the merged
//! [`ResultLog`] under the [`LOAD_SOURCE`] source:
//!
//! * `offered_rate.<class>` / `achieved_rate.<class>` — per-second
//!   bucketed rate series (what the class scheduled vs. what its writes
//!   completed);
//! * `sojourn_us.<class>.<field>` — the class's whole-run sojourn tail,
//!   one float record per [`TailQuantiles`] field (`n`, `nan_count`,
//!   `p50`, `p95`, `p99`, `p999`, `max`) stamped at run end, where a
//!   sample is completion minus *scheduled* arrival. The tail is exact:
//!   it is computed from every sample before the samples are dropped
//!   ([`sojourn_tail_records`]), so the log carries a handful of records
//!   per class instead of one per event. A log written with one
//!   `sojourn_us.<class>` record per event has no tail to read.
//!
//! Sojourn — not service time — is the open-loop quantity: it charges
//! the SUT for queueing delay accumulated while it stalled, which is
//! precisely what coordinated omission erases. The tail helpers return
//! [`TailQuantiles`] (p50/p95/p99/p999 plus sample count), NaN-safe like
//! the rest of the percentile toolbox.

use gt_metrics::{MetricRecord, MetricValue, Name, ResultLog};

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

fn tail_metric(class: &str, field: &str) -> String {
    format!("sojourn_us.{class}.{field}")
}

/// `tail` — the whole-run sojourn tail of `class`, microseconds — as the
/// `sojourn_us.<class>.<field>` records [`sojourn_quantiles`] reads back,
/// stamped at `t_micros`.
pub fn sojourn_tail_records<'a>(
    class: &'a str,
    tail: &TailQuantiles,
    t_micros: u64,
) -> impl Iterator<Item = MetricRecord> + 'a {
    let source = Name::from(LOAD_SOURCE);
    [
        ("n", tail.n as f64),
        ("nan_count", tail.nan_count as f64),
        ("p50", tail.p50),
        ("p95", tail.p95),
        ("p99", tail.p99),
        ("p999", tail.p999),
        ("max", tail.max),
    ]
    .into_iter()
    .map(move |(field, value)| {
        let metric = Name::from(tail_metric(class, field));
        MetricRecord::new(t_micros, source.clone(), metric, MetricValue::Float(value))
    })
}

/// Whole-run sojourn-latency tail of `class`, microseconds, as the run
/// folded it (see the module docs). `None` when the log carries no
/// complete tail for the class: the class had no samples, or the log
/// predates the folded convention.
pub fn sojourn_quantiles(log: &ResultLog, class: &str) -> Option<TailQuantiles> {
    let field = |field: &str| {
        let series = log.series(LOAD_SOURCE, &tail_metric(class, field));
        series.last().map(|&(_, value)| value)
    };
    Some(TailQuantiles {
        n: field("n")? as usize,
        nan_count: field("nan_count")? as usize,
        p50: field("p50")?,
        p95: field("p95")?,
        p99: field("p99")?,
        p999: field("p999")?,
        max: field("max")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_metrics::MetricRecord;

    fn marker(t: u64, name: &str) -> MetricRecord {
        MetricRecord::text(t, "load", "marker", name)
    }

    fn sojourns() -> Vec<f64> {
        (0..1000)
            .map(|i| {
                if (400..420).contains(&i) {
                    80_000.0
                } else {
                    100.0
                }
            })
            .collect()
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
        let tail = TailQuantiles::of(&sojourns()).unwrap();
        for record in sojourn_tail_records("main", &tail, 10_000_000) {
            log.push(record);
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

    #[test]
    fn the_folded_tail_reads_back_field_for_field() {
        let log = sample_log();
        let want = TailQuantiles::of(&sojourns()).unwrap();
        assert_eq!(sojourn_quantiles(&log, "main"), Some(want));
        assert_eq!(sojourn_quantiles(&log, "ghost"), None);
        // Through the log file's text form too: the floats round-trip.
        let path = std::env::temp_dir().join(format!("gt-tail-{}.log", std::process::id()));
        log.write_to_file(&path).unwrap();
        let read = ResultLog::read_from_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(sojourn_quantiles(&read, "main"), Some(want));
    }

    // One record per event was the convention before the tail was folded
    // at run end; such a log has no tail to read.
    #[test]
    fn a_log_of_per_event_sojourn_records_has_no_tail() {
        let mut log = ResultLog::new();
        for (i, sojourn) in sojourns().into_iter().enumerate() {
            log.push(MetricRecord::float(
                i as u64,
                "load",
                "sojourn_us.main",
                sojourn,
            ));
        }
        assert_eq!(sojourn_quantiles(&log, "main"), None);
    }
}

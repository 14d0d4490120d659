//! Marker-window analysis: slicing a result log into marker-delimited
//! phases and summarizing or correlating metric series inside each.
//!
//! The paper's watermark pattern (§4.5) injects `MARKER` events into the
//! stream precisely so that runtime metrics can be attributed to stream
//! phases ("before the pause", "during catch-up", …). These helpers close
//! that loop on the analysis side: given the merged [`ResultLog`] of a
//! run, they cut one `(source, metric)` series to the window between two
//! markers and reduce it to summary statistics, or align two series on a
//! common bucket grid inside the window and correlate them (e.g. ingress
//! rate vs. CPU% for a Figure 3d run).

use gt_metrics::ResultLog;

use crate::correlate::pearson;
use crate::summary::Summary;

/// The result-log source under which the Level-2 event tracer
/// (`gt-trace`) files its matched stage-pair latency records. Kept as a
/// string constant so this crate analyses trace output without depending
/// on the tracer.
pub const TRACE_SOURCE: &str = "trace";

/// The tracer's stage-pair latency metrics, in pipeline order: reader
/// dequeue → paced emit → sink write on the replay side, paced emit →
/// connector receive → engine apply across the platform boundary.
pub const TRACE_STAGE_METRICS: [&str; 4] = [
    "reader_to_emit_micros",
    "emit_to_sink_micros",
    "emit_to_connector_micros",
    "connector_to_apply_micros",
];

/// Summary statistics of one metric series within one marker-delimited
/// phase of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStats {
    /// Phase label (caller-chosen, e.g. `load` or `catch-up`).
    pub phase: String,
    /// Window start, seconds since run start (the start marker's time).
    pub start_secs: f64,
    /// Window end, seconds since run start (the end marker's time).
    pub end_secs: f64,
    /// Statistics of the samples inside the window (inclusive bounds).
    pub summary: Summary,
}

impl PhaseStats {
    /// Window length in seconds.
    pub fn duration_secs(&self) -> f64 {
        self.end_secs - self.start_secs
    }
}

/// Summarizes `(source, metric)` within the `[start, end]` marker window,
/// labelled `phase`. `None` when either marker is missing or out of
/// order; a window with no samples yields an empty [`Summary`]
/// (count 0), which is itself informative — the metric was silent during
/// the phase.
pub(crate) fn window_summary(
    log: &ResultLog,
    phase: &str,
    start: &str,
    end: &str,
    source: &str,
    metric: &str,
) -> Option<PhaseStats> {
    let (t0, t1) = window_bounds(log, start, end)?;
    let values: Vec<f64> = log
        .series(source, metric)
        .into_iter()
        .filter(|&(t, _)| t >= t0 && t <= t1)
        .map(|(_, v)| v)
        .collect();
    Some(PhaseStats {
        phase: phase.to_owned(),
        start_secs: t0,
        end_secs: t1,
        summary: Summary::of(&values),
    })
}

/// Per-phase statistics of `(source, metric)` across a list of
/// `(label, start_marker, end_marker)` windows. Phases whose markers are
/// missing are skipped — a partial run still yields the phases it
/// reached.
pub fn phase_summaries(
    log: &ResultLog,
    phases: &[(&str, &str, &str)],
    source: &str,
    metric: &str,
) -> Vec<PhaseStats> {
    phases
        .iter()
        .filter_map(|(label, start, end)| window_summary(log, label, start, end, source, metric))
        .collect()
}

/// Pearson correlation of two metric series within a marker window.
///
/// The series generally come from different samplers at different
/// timestamps, so both are bucketed onto a common grid of `buckets`
/// intervals spanning the window (per-bucket means), and only buckets
/// where *both* series have samples enter the correlation. `None` when a
/// marker is missing, `buckets == 0`, the window has zero length, fewer
/// than 2 shared buckets exist, or either side is constant.
pub fn window_correlation(
    log: &ResultLog,
    start: &str,
    end: &str,
    a: (&str, &str),
    b: (&str, &str),
    buckets: usize,
) -> Option<f64> {
    let (t0, t1) = window_bounds(log, start, end)?;
    if buckets == 0 || t1 <= t0 {
        return None;
    }
    let width = (t1 - t0) / buckets as f64;
    let grid = |source: &str, metric: &str| bucket_mean(&log.series(source, metric), t0, t1, width);
    let ga = grid(a.0, a.1);
    let gb = grid(b.0, b.1);
    let (xs, ys): (Vec<f64>, Vec<f64>) = ga
        .into_iter()
        .zip(gb)
        .filter_map(|(x, y)| Some((x?, y?)))
        .unzip();
    pearson(&xs, &ys)
}

/// Mean value of `(seconds, value)` samples per fixed-width bucket over
/// `[start, end)`. Buckets with no samples yield `None`.
fn bucket_mean(samples: &[(f64, f64)], start: f64, end: f64, width: f64) -> Vec<Option<f64>> {
    let buckets = ((end - start) / width).ceil().max(0.0) as usize;
    let mut sums = vec![(0.0f64, 0u64); buckets];
    for &(t, v) in samples {
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

/// The `(start_secs, end_secs)` of a marker window; `None` when a marker
/// is missing or the end precedes the start.
fn window_bounds(log: &ResultLog, start: &str, end: &str) -> Option<(f64, f64)> {
    let t0 = log.marker(start)?.t_secs();
    let t1 = log.marker(end)?.t_secs();
    (t1 >= t0).then_some((t0, t1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_metrics::MetricRecord;

    /// A log with markers at 1 s / 3 s / 5 s and two series: `cpu` ramps
    /// with time, `rate` ramps along with it inside the middle phase.
    fn phased_log() -> ResultLog {
        let mut records = vec![
            MetricRecord::text(1_000_000, "replayer", "marker", "phase-a"),
            MetricRecord::text(3_000_000, "replayer", "marker", "phase-b"),
            MetricRecord::text(5_000_000, "replayer", "marker", "phase-c"),
        ];
        for i in 0..=50u64 {
            let t = i * 100_000; // every 0.1 s over [0, 5] s
            records.push(MetricRecord::float(t, "sysmon", "cpu", i as f64));
            records.push(MetricRecord::float(
                t + 1_000, // slightly offset timestamps, like a real second sampler
                "replayer",
                "rate",
                2.0 * i as f64,
            ));
        }
        ResultLog::from_records(records)
    }

    #[test]
    fn bucket_means() {
        let samples = [(0.1, 1.0), (0.9, 3.0), (1.5, 10.0), (3.2, 7.0)];
        let buckets = bucket_mean(&samples, 0.0, 4.0, 1.0);
        assert_eq!(buckets, [Some(2.0), Some(10.0), None, Some(7.0)]);
    }

    #[test]
    fn bucket_ignores_out_of_window() {
        let samples = [(-1.0, 5.0), (10.0, 5.0), (0.5, 2.0)];
        assert_eq!(bucket_mean(&samples, 0.0, 1.0, 1.0), [Some(2.0)]);
    }

    #[test]
    fn summary_covers_only_the_window() {
        let log = phased_log();
        let stats = window_summary(&log, "mid", "phase-a", "phase-b", "sysmon", "cpu").unwrap();
        assert_eq!(stats.phase, "mid");
        assert_eq!(stats.start_secs, 1.0);
        assert_eq!(stats.end_secs, 3.0);
        assert!((stats.duration_secs() - 2.0).abs() < 1e-12);
        // Samples 10..=30 fall in [1 s, 3 s].
        assert_eq!(stats.summary.count(), 21);
        assert_eq!(stats.summary.min(), Some(10.0));
        assert_eq!(stats.summary.max(), Some(30.0));
        assert!((stats.summary.mean() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn missing_markers_are_none_and_skipped() {
        let log = phased_log();
        assert!(window_summary(&log, "x", "nope", "phase-b", "sysmon", "cpu").is_none());
        assert!(window_summary(&log, "x", "phase-b", "phase-a", "sysmon", "cpu").is_none());
        let phases = phase_summaries(
            &log,
            &[
                ("load", "phase-a", "phase-b"),
                ("drain", "phase-b", "phase-c"),
                ("ghost", "phase-b", "missing"),
            ],
            "sysmon",
            "cpu",
        );
        let labels: Vec<&str> = phases.iter().map(|p| p.phase.as_str()).collect();
        assert_eq!(labels, ["load", "drain"]);
    }

    #[test]
    fn silent_metric_yields_empty_summary() {
        let log = phased_log();
        let stats = window_summary(&log, "x", "phase-a", "phase-b", "sysmon", "absent").unwrap();
        assert_eq!(stats.summary.count(), 0);
    }

    #[test]
    fn correlated_series_correlate_inside_the_window() {
        let log = phased_log();
        let r = window_correlation(
            &log,
            "phase-a",
            "phase-c",
            ("sysmon", "cpu"),
            ("replayer", "rate"),
            8,
        )
        .unwrap();
        assert!(r > 0.99, "both ramp linearly, r = {r}");
    }

    #[test]
    fn correlation_degenerate_cases() {
        let log = phased_log();
        // Zero buckets, missing marker, constant series.
        assert!(window_correlation(
            &log,
            "phase-a",
            "phase-b",
            ("sysmon", "cpu"),
            ("replayer", "rate"),
            0
        )
        .is_none());
        assert!(window_correlation(
            &log,
            "phase-a",
            "gone",
            ("sysmon", "cpu"),
            ("replayer", "rate"),
            4
        )
        .is_none());
        assert!(window_correlation(
            &log,
            "phase-a",
            "phase-b",
            ("sysmon", "cpu"),
            ("sysmon", "absent"),
            4
        )
        .is_none());
    }
}

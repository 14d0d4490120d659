//! # gt-bench
//!
//! The experiment harness that regenerates every figure and table of the
//! paper's evaluation (§5). Each `fig*`/`table*` binary prints the same
//! rows/series the paper reports, scaled to run on one machine in seconds
//! rather than the paper's multi-machine, multi-minute setups — the
//! *shape* of each result (who wins, where ceilings and crossovers sit)
//! is the reproduction target, not absolute numbers.
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `fig3a_replayer` | Fig. 3a — replayer throughput, pipe vs TCP |
//! | `fig3b_store_throughput` | Fig. 3b — store events/s over time per rate × batch |
//! | `fig3c_store_cpu` | Fig. 3c — timestamper vs shard CPU over time |
//! | `fig3d_chronograph` | Fig. 3d — stacked engine time series + rank error |
//! | `table1_computations` | Table 1 — the computation catalogue, executed |
//!
//! The performance-critical components and the ablations called out in
//! `DESIGN.md` are measured by the committed trajectory ([`trajectory`])
//! and by the per-layer ladder of the end-to-end benchmark (`benchmark/`).

use std::time::Duration;

use gt_metrics::ResultLog;

pub mod trajectory;

/// Scale factor for experiment durations, settable via the
/// `GT_BENCH_SCALE` environment variable (default 1.0). Values below 1
/// shorten runs proportionally — useful for CI smoke tests.
pub fn scale() -> f64 {
    std::env::var("GT_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|s: &f64| *s > 0.0)
        .unwrap_or(1.0)
}

/// A duration scaled by [`scale`].
pub fn scaled(base: Duration) -> Duration {
    base.mul_f64(scale())
}

/// Prints a section header in the common harness style.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// A hub counter's rate, per second, over each sampling interval of a
/// run: the `{counter}.delta` records of `source` in the merged log, each
/// divided by the measured gap since the sampler's previous sample, so a
/// partial interval still reads right. An interval shorter than `min_gap`
/// is folded into the next one; at the end — the sliver between the last
/// periodic sample and the one taken when the run stops — it is dropped.
/// Rows are `(t[s], rate[1/s])`.
pub fn counter_rates(
    log: &ResultLog,
    source: &str,
    counter: &str,
    min_gap: Duration,
) -> Vec<(f64, f64)> {
    let mut rates = Vec::new();
    // A counter's first sample has no delta; its later ones do.
    let Some(&(mut since, _)) = log.series(source, counter).first() else {
        return rates;
    };
    let mut sum = 0.0;
    for (t, delta) in log.series(source, &format!("{counter}.delta")) {
        sum += delta;
        if t - since >= min_gap.as_secs_f64() {
            rates.push((t, sum / (t - since)));
            (since, sum) = (t, 0.0);
        }
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_one() {
        // The env var is not set under `cargo test`.
        if std::env::var("GT_BENCH_SCALE").is_err() {
            assert_eq!(scale(), 1.0);
        }
    }

    #[test]
    fn counter_rates_divide_by_the_measured_gap() {
        use gt_metrics::MetricRecord;
        let record = |t, metric, value| MetricRecord::int(t, "sut", metric, value);
        let log = ResultLog::from_records(vec![
            record(0, "ops", 0),
            record(500_000, "ops", 100),
            record(500_000, "ops.delta", 100),
            // A short interval, folded into the next one.
            record(510_000, "ops", 110),
            record(510_000, "ops.delta", 10),
            record(800_000, "ops", 170),
            record(800_000, "ops.delta", 60),
            // The sliver before the stop sample, dropped.
            record(801_000, "ops", 170),
            record(801_000, "ops.delta", 0),
        ]);
        let rates = counter_rates(&log, "sut", "ops", Duration::from_millis(250));
        assert_eq!(rates.len(), 2);
        for ((t, rate), (want_t, want_rate)) in rates.into_iter().zip([(0.5, 200.0), (0.8, 233.3)])
        {
            assert_eq!(t, want_t);
            assert!((rate - want_rate).abs() < 0.1, "{rate} != {want_rate}");
        }
    }

    #[test]
    fn scaled_duration() {
        let d = scaled(Duration::from_secs(2));
        assert!(d > Duration::ZERO);
    }
}

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

/// Formats a time series as aligned columns.
pub fn print_series(label: &str, series: &[(f64, f64)]) {
    println!("# {label}");
    println!("{:>8}  {:>14}", "t[s]", "value");
    for (t, v) in series {
        println!("{t:>8.2}  {v:>14.2}");
    }
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
    fn scaled_duration() {
        let d = scaled(Duration::from_secs(2));
        assert!(d > Duration::ZERO);
    }
}

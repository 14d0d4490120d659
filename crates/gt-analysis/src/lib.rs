#![warn(missing_docs)]

//! # gt-analysis
//!
//! The statistical toolbox the paper's methodology (§4.5) prescribes for
//! assessing experiment runs:
//!
//! * [`summary`] — means, variance, and the CI95 confidence-interval
//!   comparison ("non-overlapping confidence intervals of the results from
//!   two different systems are indeed significantly different"),
//! * [`percentiles`] — medians, tail percentiles (99th-percentile latency,
//!   5th-percentile-to-maximum throughput ranges as in Figure 3a),
//! * [`correlate`] — Pearson and lagged cross-correlation between metric
//!   series,
//! * [`markers`] — marker-window slicing of result logs: per-phase
//!   summaries and in-window correlation (the analysis side of the §4.5
//!   watermark pattern),
//! * [`error`] — relative errors of approximate results against exact
//!   references (the "relative rank error" of §5.3.2),
//! * [`recovery`] — fault/recovery correlation for chaos runs:
//!   time-to-recover, throughput-dip depth, and events lost per injected
//!   fault,
//! * [`load`] — load-run analysis: offered-vs-achieved rate and
//!   per-client-class sojourn-latency tails (p99/p999) over the run,
//! * [`sharding`] — throughput-vs-shards scaling curves (speedup and
//!   parallel efficiency against the smallest configuration).

pub mod correlate;
pub mod error;
pub mod load;
pub mod markers;
pub mod percentiles;
pub mod recovery;
pub mod sharding;
pub mod summary;
pub mod trend;
pub mod variability;

pub use correlate::{cross_correlation, pearson};
pub use error::{median_relative_error, top_k_overlap};
pub use load::{
    offered_vs_achieved, sojourn_quantiles, sojourn_tail_records, OfferedAchieved, LOAD_SOURCE,
};
pub use markers::{
    phase_summaries, window_correlation, PhaseStats, TRACE_SOURCE, TRACE_STAGE_METRICS,
};
pub use percentiles::{percentile, CleanSeries, Quantiles, TailQuantiles};
pub use recovery::{recovery_windows, recovery_windows_from, RecoveryWindow, CHAOS_SOURCE};
pub use sharding::{shard_scaling, ShardScalingRow};
pub use summary::{compare_ci95, CiComparison, Comparison, ConfidenceInterval, Summary};
pub use trend::{densification_exponent, linear_trend, Trend};
pub use variability::{variability, Variability};

#![warn(missing_docs)]

//! # gt-sysmon
//!
//! The **Level-0 black-box process monitor** (paper §4.3: "agnostic
//! profiling tools"): a [`MetricsLogger`](gt_metrics::MetricsLogger) that
//! reads `/proc/<pid>/stat`, `/proc/<pid>/status`, `/proc/<pid>/io`, and
//! the host-wide `/proc/stat` each time it is sampled and converts raw
//! jiffies and pages into derived resource series —
//!
//! * `cpu_percent` (+ `cpu_user_percent` / `cpu_sys_percent` split),
//! * `rss_bytes` and `threads`,
//! * `io_read_bytes` / `io_write_bytes` (cumulative),
//! * `ctx_voluntary` / `ctx_involuntary` context switches (cumulative),
//! * `host_cpu_percent` (whole-machine utilization),
//!
//! timestamped against the shared run [`gt_metrics::Clock`] and mirrored
//! into [`gt_metrics::MetricsHub`] gauges for live observation. It owns no
//! thread: a run's observer loop samples it every
//! [`SamplerConfig::cadence`], beside the run's other loggers. Watching an
//! external pid makes this the only instrumentation a Level-0 system
//! under test needs — stream in, results out, `/proc` alongside.
//!
//! The parsing layer ([`parse`]) is pure `&str -> value` functions and
//! the reader ([`source::ProcSource`]) is injectable, so every format
//! corner is unit-testable without a live `/proc`; on non-Linux hosts the
//! first sample is one `sysmon/error` record carrying the typed
//! [`SysmonError::Unavailable`], and the series stays empty, keeping runs
//! portable.
//!
//! ```
//! use std::sync::Arc;
//! use gt_metrics::{Clock, MetricsLogger, WallClock};
//! use gt_sysmon::{SamplerConfig, SysmonSampler};
//!
//! let clock: Arc<dyn Clock> = Arc::new(WallClock::start());
//! let mut monitor = SysmonSampler::new(SamplerConfig::default(), clock);
//! // Sample it every `cadence` while the experiment runs:
//! let records = monitor.sample();
//! // On Linux: rss and threads now, CPU% from the second sample on.
//! // Elsewhere: one `sysmon/error` record, then empty samples.
//! assert!(!records.is_empty());
//! ```

use std::fmt;

pub mod parse;
pub mod sampler;
pub mod source;

pub use parse::{Derived, HostStat, PidIo, PidStat, PidStatus, Sample};
pub use sampler::{SamplerConfig, SysmonSampler};
pub use source::{FakeProc, LiveProc, ProcFile, ProcSource};

/// Why the monitor could not observe its target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SysmonError {
    /// The target's `/proc` entry cannot be read at all — non-Linux host,
    /// or the watched pid exited. Level-0 observation is best-effort by
    /// definition, so runs treat this as "no resource series", not a
    /// failure.
    Unavailable {
        /// Which target (`self` or `pid N`).
        target: String,
        /// The underlying I/O error text.
        reason: String,
    },
    /// A `/proc` file was readable but not in the expected shape.
    Parse {
        /// Which file (`pid stat`, `host stat`, …).
        file: String,
        /// What was wrong.
        reason: String,
    },
}

impl SysmonError {
    pub(crate) fn parse(file: impl Into<String>, reason: impl Into<String>) -> Self {
        SysmonError::Parse {
            file: file.into(),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for SysmonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SysmonError::Unavailable { target, reason } => {
                write!(f, "target {target} unobservable: {reason}")
            }
            SysmonError::Parse { file, reason } => write!(f, "malformed {file}: {reason}"),
        }
    }
}

impl std::error::Error for SysmonError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = SysmonError::Unavailable {
            target: "pid 7".into(),
            reason: "No such file".into(),
        };
        assert!(e.to_string().contains("pid 7"));
        let p = SysmonError::parse("pid stat", "no comm field");
        assert!(p.to_string().contains("pid stat"));
    }
}

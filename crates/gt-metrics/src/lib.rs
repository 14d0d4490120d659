#![warn(missing_docs)]

//! # gt-metrics
//!
//! The measurement side of the GraphTides test harness (paper §4.3):
//!
//! * [`record`] — timestamped metric records, the line format of the
//!   result log, and the log collector's merge
//!   ([`ResultLog::from_records`]; [`name`]: the shared series names they
//!   carry),
//! * [`hub`] — a shared registry of named counters and gauges; systems
//!   under test expose Level-1/Level-2 internals through it, loggers
//!   snapshot it,
//! * [`logger`] — periodic samplers: the hub snapshotter and a
//!   closure-based gauge probe,
//! * [`clock`] — run-relative clocks, including a manual clock so
//!   simulated experiments are fully deterministic.
//!
//! The three evaluation levels of the paper map onto this crate as:
//! Level 0 uses only external observation (the `/proc` sampler in
//! `gt-sysmon`);
//! Level 1 systems export read-only counters through a [`hub::MetricsHub`];
//! Level 2 systems are instrumented in-source and push arbitrary records.

pub mod clock;
pub mod hub;
pub mod logger;
pub mod name;
pub mod record;

pub use clock::{Clock, ManualClock, WallClock};
pub use hub::{Histogram, HistogramSnapshot, MetricsHub};
pub use logger::{GaugeSampler, HubSampler, MetricsLogger};
pub use name::{Name, NameTable};
pub use record::{MetricRecord, MetricValue, ResultLog};

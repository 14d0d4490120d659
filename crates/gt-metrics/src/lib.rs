#![warn(missing_docs)]

//! # gt-metrics
//!
//! The measurement side of the GraphTides test harness (paper §4.3):
//!
//! * [`record`] — timestamped metric records and the line format of the
//!   result log ([`name`]: the shared series names they carry),
//! * [`hub`] — a shared registry of named counters and gauges; systems
//!   under test expose Level-1/Level-2 internals through it, loggers
//!   snapshot it,
//! * [`logger`] — periodic samplers: the hub snapshotter, a closure-based
//!   gauge probe, and a Level-0 process sampler reading `/proc/self`,
//! * [`collector`] — the log collector that merges per-logger logs into a
//!   single, chronologically sorted result log,
//! * [`clock`] — run-relative clocks, including a manual clock so
//!   simulated experiments are fully deterministic.
//!
//! The three evaluation levels of the paper map onto this crate as:
//! Level 0 uses only [`logger::ProcessSampler`] and external observation;
//! Level 1 systems export read-only counters through a [`hub::MetricsHub`];
//! Level 2 systems are instrumented in-source and push arbitrary records.

pub mod clock;
pub mod collector;
pub mod hub;
pub mod logger;
pub mod name;
pub mod record;

pub use clock::{Clock, ManualClock, WallClock};
pub use collector::LogCollector;
pub use hub::{Histogram, HistogramSnapshot, MetricsHub};
pub use logger::{GaugeSampler, HubSampler, MetricsLogger, ProcessSampler};
pub use name::{Name, NameTable};
pub use record::{MetricRecord, MetricValue, ResultLog};

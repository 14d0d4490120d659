#![warn(missing_docs)]

//! # gt-trace
//!
//! Level-2 in-source event tracing (paper §4.3): sampled per-event
//! tracepoints that stamp a graph event at each pipeline stage and turn
//! matched stage pairs into end-to-end latency breakdowns.
//!
//! The paper's third evaluation level instruments the system under test
//! *in source*. Always-on per-event tracing would perturb the very
//! latencies it measures, so — following the bounded-overhead style of
//! production stream processors (Flink's latency markers) — this crate
//! samples 1-in-N events and keeps the hot path to one modulo test, with
//! a clock read and a lock-free ring push only for sampled events:
//!
//! ```text
//! reader ──► paced emit ──► sink write ──► connector ──► engine apply
//!   │probe       │probe         │probe        │probe         │probe
//!   ▼            ▼              ▼             ▼              ▼
//!  ring          ring           ring          ring           ring      (per thread)
//!   └────────────┴──────┬───────┴─────────────┴──────────────┘
//!                       ▼  collector thread (drains, matches seqs)
//!        stage-pair Histograms in the MetricsHub  +  per-sample records
//! ```
//!
//! **Correlation without metadata.** Events are never tagged: every
//! stage counts the graph events flowing through it, and because the
//! pipeline preserves stream order at each tracepoint, position *is*
//! identity. All probes sample the same rule (`seq % N == 0`), so the
//! same events are stamped at every stage and a [`Stage::EngineApply`]
//! stamp for seq 128 matches the [`Stage::PacedEmit`] stamp for seq 128.
//! Stages that process out of stream order (sharded appliers) stamp with
//! an externally carried sequence number ([`Probe::stamp_seq`]).
//!
//! The collector publishes each matched stage pair twice: live into
//! [`gt_metrics::Histogram`]s (so a Level-1 `HubSampler` emits
//! `count`/`mean`/`p99`/`max` series for free while the run is still
//! going), and as one [`gt_metrics::MetricRecord`] per sampled event
//! (source `trace`), timestamped at the later stage — which is what lets
//! `gt-analysis` slice latency spikes by marker window afterwards.

mod ring;
mod stage;
mod tracer;

pub use stage::Stage;
pub use tracer::{Probe, TraceConfig, TraceReport, Tracer, TracerCell, TRACE_SOURCE};

#![warn(missing_docs)]

//! # gt-replayer
//!
//! The graph stream replayer (paper §4.1, §5.1): emits a stream of events
//! "with a uniform, yet tunable event rate", decoupling reading from
//! emitting with a multi-threaded design, using high-precision timestamps
//! and busy-waiting for timeliness — here only for the last few
//! microseconds of a wait, the timer's measured wake-up error, because the
//! replayer shares its cores with the platform under test.
//!
//! * [`sink`] — where events go: any [`std::io::Write`] (pipes, files,
//!   stdout) or a TCP connection; all platform-specific connectors
//!   implement one trait, keeping the harness platform-agnostic (§3.3).
//! * `pacing` — the deadline arithmetic of the rate controller, pure
//!   over replay-relative nanoseconds.
//! * `replayer` — the emitter: paces, pauses and timestamps on the run's
//!   [`gt_metrics::Clock`] (one time base and one wait for the whole
//!   instrument, `Clock::wait_until`: sleep on a fine-grained timer, then
//!   spin for the learned wake-up error only), honours in-stream
//!   `SPEED` and `PAUSE` control events, and reports achieved ingress
//!   rates (§4.3 "Streaming Metrics").
//! * [`reader`] — the one stream reader: one borrowed source type
//!   ([`StreamSource`]: a stream file or an in-memory stream), one
//!   reading function over it, and one bounded chunk queue; its lines
//!   come from gt-core's one line reader, [`gt_core::LineReader`]. The
//!   session's reader thread and `gt-load`'s routing pass both read
//!   through it.
//! * [`session`] — the one single-sink driver, for either source: the
//!   composed source→read→pace→sink pipeline with per-stage
//!   instrumentation.
//! * [`reconnect`] — the fault-tolerant TCP connector (capped exponential
//!   backoff, at-least-once resume across connection loss).
//! * [`errors`] — the typed pipeline error.

pub mod errors;
mod pacing;
pub mod pattern;
pub mod reader;
pub mod reconnect;
mod replayer;
pub mod session;
pub mod sink;

pub use errors::ReplayError;
pub use pattern::{CompiledPattern, RatePattern};
pub use reader::StreamSource;
pub use reconnect::{ReconnectPolicy, ReconnectingTcpSink};
pub use replayer::{ReplayReport, ReplayerConfig};
pub use session::{ReplaySession, ReplaySessionConfig, SessionReport};
pub use sink::{CollectSink, EventSink, SinkEvent, SinkEventKind, TcpSink, WriterSink};

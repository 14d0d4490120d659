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
//! * [`pacing`] — the deadline arithmetic of the rate controller, pure
//!   over replay-relative nanoseconds.
//! * [`replayer`] — the driver: paces, pauses and timestamps on the run's
//!   [`gt_metrics::Clock`] (one time base and one wait for the whole
//!   instrument, `Clock::wait_until`: sleep on a fine-grained timer, then
//!   spin for the learned wake-up error only), honours in-stream
//!   `SPEED` and `PAUSE` control events, and reports achieved ingress
//!   rates (§4.3 "Streaming Metrics").
//! * [`reader`] — the decoupled file-reader thread feeding the replayer
//!   through a bounded channel, a chunk of entries at a time; its lines
//!   come from gt-core's one line reader, [`gt_core::LineReader`].
//! * [`session`] — the composed file→parse→pace→sink pipeline with
//!   per-stage instrumentation.
//! * [`reconnect`] — the fault-tolerant TCP connector (capped exponential
//!   backoff, at-least-once resume across connection loss).
//! * [`errors`] — the typed pipeline error.

pub mod errors;
pub mod pacing;
pub mod pattern;
pub mod reader;
pub mod reconnect;
pub mod replayer;
pub mod session;
pub mod sink;

pub use errors::ReplayError;
pub use pacing::{PacerCore, Schedule};
pub use pattern::{CompiledPattern, RatePattern};
pub use reader::{spawn_file_reader, EntryReceiver};
pub use reconnect::{ReconnectPolicy, ReconnectingTcpSink};
pub use replayer::{ReplayReport, Replayer, ReplayerConfig};
pub use session::{ReplaySession, ReplaySessionConfig, SessionReport};
pub use sink::{CollectSink, EventSink, SinkEvent, SinkEventKind, TcpSink, WriterSink};

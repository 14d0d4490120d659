#![warn(missing_docs)]

//! # gt-load
//!
//! The multi-client traffic layer: fans one graph stream, read once and
//! routed as it is read into deterministically partitioned substreams,
//! across many concurrent TCP connections, each driven by an explicit
//! client model, and receives it on the SUT side through a
//! multi-connection listener that feeds the platform's batched
//! [`gt_replayer::EventSink`] connectors while keeping markers totally
//! ordered.
//!
//! The paper's §4.4 rate-controlled replay drives a SUT through a single
//! paced connection — a closed feedback loop in which a stalled SUT
//! silently throttles the offered load, hiding exactly the latency spikes
//! an evaluation should surface (coordinated omission). This crate makes
//! the client model explicit:
//!
//! * **open loop** — arrivals follow a seeded schedule, drawn from the
//!   plan alone, that advances regardless of SUT progress; what the SUT
//!   cannot absorb is *counted as backlog*, and each event's sojourn
//!   latency is measured from its scheduled arrival, so stalls surface as
//!   tail latency.
//! * **closed loop** — the next event is sent only after the previous
//!   write completed (send-after-ack); offered load adapts to the SUT.
//! * **partial open loop** — open-loop arrivals, but an event cannot
//!   arrive before the event a window ahead of it completed, bounding
//!   the outstanding backlog.
//!
//! Modules:
//!
//! * [`model`] — the three client models ([`LoopModel`]).
//! * [`schedule`] — the pure seeded [`ArrivalSchedule`] (the
//!   coordinated-omission guard: bit-identical however the SUT behaves).
//! * [`partition`] — the seeded entity partitioner assigning each graph
//!   event to one connection, markers broadcast to all.
//! * [`feed`] — the routing pass: the stream read once and routed to one
//!   bounded queue per client, never materialised or split.
//! * [`client`] — one load client driving one connection.
//! * [`listener`] — the SUT-side multi-connection listener with the
//!   marker barrier.
//! * [`plan`] — [`LoadPlan`]: connections × rate × model × class mix.
//! * [`runner`] — the composed fan-out: route, listen, drive, report.

pub mod client;
pub mod feed;
pub mod listener;
pub mod model;
pub mod partition;
pub mod plan;
pub mod runner;
pub mod schedule;

pub use client::{run_client, ClientConfig, ClientReport};
pub use feed::{FeedQueue, Router};
pub use listener::{ListenerConfig, ListenerReport, LoadListener};
pub use model::LoopModel;
pub use partition::SeededPartitioner;
pub use plan::{ClientClass, LoadPlan};
pub use runner::{run_load, source_error, ConnectorFactory, LoadOutcome};
pub use schedule::ArrivalSchedule;

pub use gt_netem::{NetemPlan, NetemReport, NetemSchedule};
pub use gt_replayer::pattern::{CompiledPattern, RatePattern};

#![warn(missing_docs)]

//! # tide-graph
//!
//! A sharded, message-passing, vertex-centric engine for online
//! computations on evolving graphs — the stand-in for **Chronograph**, the
//! paper's second system under test (§5.3.2).
//!
//! Chronograph's experiment instrumented the platform at Level 2 to
//! capture "internal queue lengths and operation throughputs of the
//! workers" while an online influence-rank computation ran against a
//! social-network stream with a pause and a doubled-rate phase. The
//! observed pathology (Figure 3d): *graph evolution and computational
//! messages compete for internal communication resources* — worker queues
//! saturate under the doubled rate and the system keeps computing long
//! after the stream has ended, yielding inaccurate results with high
//! delays.
//!
//! This engine reproduces the architecture that produces that behavior:
//!
//! * `W` worker threads, each owning a hash partition of the vertices,
//! * one unbounded FIFO mailbox per worker carrying **both** mutation
//!   events and computational messages (the shared resource; shares
//!   combined per target per round, packed into recycled blocks and
//!   accounted item by item),
//! * an online influence rank implemented as residual forward-push — each
//!   mutation seeds residual mass; pushes fan out as messages to neighbor
//!   owners; the computation converges to (unnormalized) PageRank when the
//!   stream quiesces,
//! * Level-2 instrumentation: per-worker queue-length gauges, operation
//!   counters, busy-time accounting, watermark latency timestamps, and a
//!   *result board* ([`board`]) each worker republishes its slot of
//!   in-source so the harness can sample intermediate results without
//!   queueing behind the backlog.
//!
//! The engine is **programmable** like its archetype: the worker runtime
//! ([`Engine`]) is generic over a vertex program ([`Partition`]). Two
//! programs ship: the influence rank above ([`TideGraph`] =
//! `Engine<RankPartition>`) and online single-source shortest distances
//! ([`start_sssp`]), Table 1's "distributed routing algorithms".

pub mod board;
pub mod connector;
pub mod engine;
#[doc(hidden)]
pub mod mailbox;
pub mod program;
pub mod rank;
pub mod sssp;
pub mod sut;

pub use connector::EngineConnector;
pub use engine::{Engine, EngineConfig, EngineStats, TideGraph};
pub use program::Partition;
pub use rank::RankParams;
pub use sssp::{start_sssp, DistancePartition};
pub use sut::TideGraphSut;

#![warn(missing_docs)]

//! # tide-store
//!
//! A transactional evolving-graph store, built as the stand-in for
//! **Weaver** — the paper's first system under test (§5.3.1). Weaver is "a
//! high-performance, transactional graph database based on refinable
//! timestamps"; its deployment runs a *timestamper* process that orders
//! transactions and *shard* processes that hold graph partitions. The
//! paper's Level-0 evaluation found (Figures 3b/3c):
//!
//! 1. write throughput hits a hard ceiling independent of the offered
//!    stream rate (faster streams get backthrottled), and
//! 2. the timestamper burns far more CPU than the shards — the ordering
//!    component is the bottleneck.
//!
//! This crate reproduces that architecture faithfully enough for both
//! effects to emerge rather than being scripted: a single timestamper
//! thread assigns global transaction timestamps at a configurable
//! per-transaction cost, shard threads apply events at a (much smaller)
//! per-event cost, and bounded queues provide backpressure end to end.
//! Batching multiple events per transaction amortizes the timestamper
//! cost, raising the ceiling — exactly the 1-event-vs-10-events contrast
//! of Figure 3b. Components account their busy time into a
//! [`gt_metrics::MetricsHub`] so a Level-0 logger can chart per-component
//! CPU utilization (Figure 3c).
//!
//! The same [`TideStore`] can instead be started behind a *router*
//! ([`TideStore::start_sharded`], registered as `tide-store-sharded`):
//! each client sequences its own transactions and every shard pays the
//! ordering cost per batch it receives — the scaling counter-move. Only
//! the sequencer differs; the client, the routing body, the shards and
//! the statistics are one code path (see [`store`]). Each shard's state
//! is gt-graph's `AdjacencyStore`, the body the reference `EvolvingGraph`
//! runs on too, and it is exact: the sequencer decides what a shard
//! cannot see locally (whether an edge's endpoints are live, which
//! foreign vertices were removed), so the final graph, its counts and
//! the digest are read off the shards at shutdown, and the store keeps no
//! record per event (see [`partition`]).

pub mod connector;
pub mod partition;
pub mod shard;
pub mod store;
pub mod sut;

pub use connector::BatchingConnector;
pub use partition::{PartitionState, ShardedGraph};
pub use store::{StoreClient, StoreClosed, StoreConfig, StoreStats, TideStore, Transaction};

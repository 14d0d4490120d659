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

pub mod connector;
pub mod partition;
pub mod shard;
pub mod sharded;
pub mod store;
pub mod sut;

pub use connector::{BatchingConnector, StoreFrontend};
pub use partition::PartitionState;
pub use shard::StoreSupervisor;
pub use sharded::{ShardedClient, ShardedStats, ShardedStore};
pub use store::{
    shard_for, shard_for_key, StoreClient, StoreClosed, StoreConfig, StoreStats, TideStore,
    Transaction,
};
pub use sut::TideStoreSut;

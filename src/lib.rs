//! # GraphTides
//!
//! A Rust implementation of **GraphTides** — the evaluation framework for
//! stream-based graph processing platforms from Erb et al. (GRADES-NDA
//! ’18) — together with everything needed to run its experiments end to
//! end: the graph stream format and generator, a rate-controlled
//! replayer, metric loggers and the log collector, reference and online
//! graph computations, analysis statistics, and two built-in systems
//! under test.
//!
//! This crate is a façade: every component lives in its own crate under
//! `crates/`, re-exported here under stable module names.
//!
//! ```
//! use graphtides::prelude::*;
//!
//! // Generate a two-phase stream, replay it into a collecting sink, and
//! // inspect the streaming metrics.
//! let workload = graphtides::workloads::SnbWorkload::scaled(0.005, 7);
//! let stream = workload.generate();
//! let replayer = Replayer::new(ReplayerConfig { target_rate: 1e6, ..Default::default() });
//! let mut sink = CollectSink::new();
//! let report = replayer.replay_stream(&stream, &mut sink).unwrap();
//! assert_eq!(report.graph_events as u64, workload.total_events());
//! ```

/// Reference (batch) and online graph computations.
pub use gt_algorithms as algorithms;
/// Statistics for result analysis.
pub use gt_analysis as analysis;
/// Live fault injection inside the replay path: seeded schedules,
/// crash/stall/disconnect sinks, and the determinism-witness journal.
pub use gt_chaos as chaos;
/// Core event model and graph stream format.
pub use gt_core as core;
/// Deterministic fault injection.
pub use gt_faults as faults;
/// The two-phase stream generator.
pub use gt_generator as generator;
/// The evolving property graph, snapshots, and builders.
pub use gt_graph as graph;
/// The test harness: specs, run loop, repetition.
pub use gt_harness as harness;
/// The multi-client open/closed/partial-open-loop traffic layer.
pub use gt_load as load;
/// Metric records, loggers, hub, and log collector.
pub use gt_metrics as metrics;
/// Deterministic network fault injection: the seeded TCP fault proxy.
pub use gt_netem as netem;
/// The rate-controlled replayer and its connectors.
pub use gt_replayer as replayer;
/// The system-under-test boundary: trait, registry, evaluation levels.
pub use gt_sut as sut;
/// The Level-0 black-box process monitor (`/proc` sampler).
pub use gt_sysmon as sysmon;
/// Level-2 in-source event tracing: sampled pipeline tracepoints.
pub use gt_trace as trace;
/// Ready-made representative workloads.
pub use gt_workloads as workloads;
/// The Chronograph-class online engine under test.
pub use tide_graph as engine;
/// The Weaver-class transactional store under test.
pub use tide_store as store;

/// A [`sut::SutRegistry`] with both built-in platforms registered:
/// `tide-store` (the Weaver-class transactional store) and `tide-graph`
/// (the Chronograph-class online engine).
pub fn builtin_registry() -> gt_sut::SutRegistry {
    let mut registry = gt_sut::SutRegistry::new();
    tide_store::sut::register(&mut registry);
    tide_graph::sut::register(&mut registry);
    registry
}

/// The most commonly used types, for glob import.
pub mod prelude {
    pub use gt_core::prelude::*;
    pub use gt_graph::{CsrSnapshot, EvolvingGraph};
    pub use gt_harness::{run, ExperimentSpec, RunOutcome, RunPlan, Target};
    pub use gt_metrics::{MetricsHub, ResultLog};
    pub use gt_replayer::{CollectSink, EventSink, Replayer, ReplayerConfig};
    pub use gt_sut::{SutOptions, SutRegistry, SystemUnderTest};
}

#![warn(missing_docs)]

//! # gt-harness
//!
//! The GraphTides test harness (paper §4, Figure 2): it wires a graph
//! stream, the replayer, a system under test, and a set of runtime metric
//! loggers into one experiment run, and collects everything into a single
//! chronologically sorted result log.
//!
//! ```text
//! graph stream file ──► Graph Stream Replayer ──► System under Test
//!                            │  markers               │ hub metrics
//!                            ▼                        ▼
//!            observers: loggers, L0 monitor, watchdog (one thread)
//!                            │
//!                            ▼
//!                       Log Collector ──► result log
//! ```
//!
//! * [`spec`] — declarative experiment descriptions (goals, factors,
//!   levels — Jain's methodology, §4.5) with deterministic seeds for
//!   Popper-style re-execution.
//! * [`levels`] — the three evaluation levels (L0 black box, L1 native
//!   metrics, L2 in-source instrumentation).
//! * [`run`](mod@run) — the run path: one [`RunPlan`] (source, front,
//!   observers) driven into one [`Target`] by one [`run()`], returning
//!   one [`RunOutcome`]; replay on the driver thread, every observer
//!   (loggers, the Level-0 monitor, the watchdog) on one background
//!   thread at its own period, every record collected once.
//! * [`sut`] — what `run` does to a platform started from a registry:
//!   level clamp, native-metrics and tracer wiring, the closing report.
//! * [`load`] — the load front: the stream fanned across N concurrent
//!   TCP clients (open/closed/partial-open loop per class) into one
//!   platform connector per connection, and its log records.
//! * [`netem`] — the netem front: a TCP hop in front of the platform
//!   connector that the fault proxy can break.
//! * [`differential`] — the serial-vs-sharded differential harness:
//!   replay the same seeded stream through a `shards=1` baseline and a
//!   `shards=N` candidate and assert bit-identical digests and
//!   per-marker-window computation results.
//! * [`repeat`] — n ≥ 30 repetition helper and CI95 system comparison.
//! * [`orchestrator`] — the scenario-matrix orchestrator: declarative
//!   factor cross-products executed with per-cell repetition, journaled
//!   to disk (one JSON line per finished cell-repetition), and resumable
//!   after a kill without re-running completed cells.
//! * [`watchdog`] — progress-stall and deadline detection on the run
//!   clock: a broken system under test aborts the run with a typed status
//!   instead of hanging the harness.

pub mod differential;
#[doc(hidden)]
pub mod forward;
pub mod levels;
pub mod load;
pub mod netem;
pub mod orchestrator;
pub mod repeat;
pub mod run;
pub mod spec;
pub mod sut;
pub mod sweep;
pub mod watchdog;

pub use differential::{
    graph_from_adjacency, run_differential, window_computations, DifferentialOutcome,
    WindowComputation,
};
#[doc(hidden)]
pub use forward::{run_file_sut_experiment, run_load_file_sut_experiment, FileRunPlan};
pub use levels::EvaluationLevel;
pub use load::{load_records, LOAD_SOURCE};
pub use netem::{sink_records, start_netem_front, NetemFront, NetemFrontReport};
pub use orchestrator::{
    aggregate_records, cell_id, render_matrix_table, run_matrix, run_matrix_with_progress,
    CellAggregate, CellRunResult, CellRunner, Design, JournalRecord, MatrixJournal, MatrixOutcome,
    MatrixProgress, MetricAggregate, ScenarioMatrix,
};
pub use repeat::{compare_metric, repeat_runs, repeat_status_runs, RepeatOutcome};
pub use run::{run, ChaosPlan, Driver, RunError, RunOutcome, RunPlan, Source, Target};
pub use spec::ExperimentSpec;
pub use sut::DEFAULT_QUIESCE_TIMEOUT;
pub use sweep::{Assignment, Factor, FactorSpace};
pub use watchdog::{AbortReason, RunStatus, WatchdogConfig};

pub use gt_chaos::{ChaosJournal, FaultKind, FaultSchedule, FaultTrigger, CHAOS_SOURCE};
pub use gt_load::{ClientClass, CompiledPattern, LoadPlan, LoopModel, RatePattern};
pub use gt_netem::{
    ConnRange, KillMode, NetemFault, NetemFaultKind, NetemPlan, NetemReport, NetemSchedule,
    NETEM_SOURCE,
};
pub use gt_sut::{
    Adjacency, StateDigest, SutOptions, SutRegistry, SutReport, SystemUnderTest, WindowDigest,
    WorkerSupervisor,
};
pub use gt_sysmon::SamplerConfig;
pub use gt_trace::{TraceConfig, Tracer, TRACE_SOURCE};

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
//! * [`EvaluationLevel`] — the three evaluation levels (L0 black box, L1
//!   native metrics, L2 in-source instrumentation), declared by each
//!   platform next to the [`SystemUnderTest`] trait.
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
//! * [`orchestrator`] — the scenario-matrix orchestrator: the factors
//!   and levels of Jain's methodology (§2.3, §4.5), enumerated
//!   full-factorial or one factor at a time, each cell repeated and
//!   journaled to disk (one JSON line per finished cell-repetition),
//!   resumable after a kill without re-running completed cells, and
//!   aggregated into per-cell CI95 summaries (n ≥ 30 caveat included);
//!   [`RunSpec`] is the built-in factor vocabulary a `gt-run` cell sets.
//! * [`render`] — the one renderer: every table `gt-run` prints (run
//!   report, load report, recovery tables, scaling curves, the
//!   `--assert-achieved` gate, the matrix table), rebuilt from a journal
//!   and the result log each cell-repetition writes beside it; `gt-report
//!   --matrix` calls the same functions.
//! * [`watchdog`] — progress-stall and deadline detection on the run
//!   clock: a broken system under test aborts the run with a typed status
//!   instead of hanging the harness.

pub mod differential;
#[doc(hidden)]
pub mod forward;
pub mod load;
pub mod netem;
pub mod orchestrator;
pub mod render;
pub mod run;
pub mod sut;
pub mod watchdog;

pub use differential::{run_differential, DifferentialOutcome};
#[doc(hidden)]
pub use forward::{run_file_sut_experiment, run_load_file_sut_experiment, FileRunPlan};
pub use load::{load_records, LOAD_SOURCE};
pub use orchestrator::{
    aggregate_records, cell_id, run_matrix, run_matrix_with_progress, Assignment, CellAggregate,
    CellRunResult, Design, Factor, FactorSpace, JournalRecord, MatrixJournal, MatrixOutcome,
    MatrixProgress, MetricAggregate, RunSpec, ScenarioMatrix,
};
pub use render::{
    matrix_head, render_differential, render_journal, render_matrix_table, write_result_log,
    FLAG_VIEWS,
};
pub use run::{run, ChaosPlan, Driver, RunError, RunOutcome, RunPlan, Source, Target};
pub use watchdog::{AbortReason, RunStatus, WatchdogConfig};

pub use gt_chaos::{ChaosJournal, FaultKind, FaultSchedule, FaultTrigger, CHAOS_SOURCE};
pub use gt_load::{ClientClass, CompiledPattern, LoadPlan, LoopModel, RatePattern};
pub use gt_netem::{
    ConnRange, KillMode, NetemFault, NetemFaultKind, NetemPlan, NetemReport, NetemSchedule,
    NETEM_SOURCE,
};
pub use gt_sut::{
    Adjacency, EvaluationLevel, StateDigest, SutOptions, SutRegistry, SutReport, SystemUnderTest,
    WindowDigest, WorkerSupervisor,
};
pub use gt_sysmon::SamplerConfig;
pub use gt_trace::{TraceConfig, Tracer, TRACE_SOURCE};

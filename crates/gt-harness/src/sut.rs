//! The generic SUT runner: one experiment against any platform selected
//! from a [`SutRegistry`] by name.
//!
//! This is the harness half of the Figure 2 contract — the platform half
//! is the [`SystemUnderTest`] trait. The runner:
//!
//! 1. starts the named platform from its registered builder,
//! 2. clamps the plan's evaluation level to what the platform declares
//!    (asking for Level 2 from a black-box platform silently degrades
//!    to what is actually observable),
//! 3. wires the platform's native metrics hub ([`SystemUnderTest::hub`])
//!    into the sampling thread when the effective level grants Level 1,
//! 4. starts a Level-2 event tracer and installs it into the platform
//!    ([`SystemUnderTest::install_tracer`]) when the effective level
//!    grants in-source instrumentation, so sampled events carry
//!    emit→connector→apply tracepoint stamps,
//! 5. replays the plan through the platform's connector on the shared
//!    run clock,
//! 6. drops the connector, waits for the platform to drain
//!    ([`SystemUnderTest::quiesce`]), shuts it down, and folds the final
//!    [`SutReport`] plus the tracer's stage-pair latency records into the
//!    merged [`ResultLog`] (source = the platform name / `trace`,
//!    timestamped at run end / emit time).

use std::sync::Arc;
use std::time::Duration;

use gt_metrics::{
    Clock, HubSampler, MetricRecord, MetricValue, MetricsHub, Name, ResultLog, WallClock,
};
use gt_netem::{NetemPlan, NETEM_SOURCE};
use gt_replayer::{EventSink, ReplayError};
use gt_sut::{StateDigest, SutError, SutOptions, SutRegistry, SutReport, SystemUnderTest};
use gt_trace::{TraceConfig, Tracer, TRACE_SOURCE};

use crate::levels::EvaluationLevel;
use crate::netem::{sink_records, start_netem_front};
use crate::run::{
    run_experiment_with_clock, run_file_experiment_with_clock, FileRunOutcome, FileRunPlan,
    RunOutcome, RunPlan,
};

/// How long the runner waits for a platform to drain its backlog after
/// the stream ends, before shutting it down.
pub const DEFAULT_QUIESCE_TIMEOUT: Duration = Duration::from_secs(30);

/// The outputs of one registry-selected run.
#[derive(Debug)]
pub struct SutRunOutcome<O> {
    /// The plain run outcome ([`RunOutcome`] or [`FileRunOutcome`]), with
    /// the platform's final report already folded into its log.
    pub run: O,
    /// The platform's final report (also available via the log).
    pub report: SutReport,
    /// Whether the platform drained within the quiesce timeout. A `false`
    /// here is itself a finding — the paper's Figure 3d system keeps
    /// computing long after the stream has ended.
    pub quiesced: bool,
    /// The platform's final-state digest, present only when the platform
    /// was started with its `digest=1` option — the raw material of the
    /// serial-vs-sharded differential harness ([`crate::differential`]).
    pub digest: Option<StateDigest>,
}

/// What can go wrong in a registry-selected run.
#[derive(Debug)]
pub enum SutRunError {
    /// Unknown platform name, or the platform failed to start.
    Sut(SutError),
    /// The replay itself failed (sink error, unreadable stream file, …).
    Replay(ReplayError),
}

impl std::fmt::Display for SutRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SutRunError::Sut(e) => write!(f, "system under test: {e}"),
            SutRunError::Replay(e) => write!(f, "replay: {e}"),
        }
    }
}

impl std::error::Error for SutRunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SutRunError::Sut(e) => Some(e),
            SutRunError::Replay(e) => Some(e),
        }
    }
}

impl From<SutError> for SutRunError {
    fn from(e: SutError) -> Self {
        SutRunError::Sut(e)
    }
}

impl From<ReplayError> for SutRunError {
    fn from(e: ReplayError) -> Self {
        SutRunError::Replay(e)
    }
}

impl From<std::io::Error> for SutRunError {
    fn from(e: std::io::Error) -> Self {
        SutRunError::Replay(ReplayError::from_sink_error(e))
    }
}

/// Prepares a started SUT for the run: clamps the level and registers the
/// L1 hub sampler. Returns the effective level.
pub(crate) fn wire_sut(
    sut: &mut Box<dyn SystemUnderTest>,
    plan_level: EvaluationLevel,
    loggers: &mut Vec<Box<dyn gt_metrics::MetricsLogger>>,
    clock: &Arc<dyn Clock>,
) -> EvaluationLevel {
    let effective = plan_level.min(sut.level());
    if effective.includes(EvaluationLevel::Level1) {
        if let Some(hub) = sut.hub() {
            loggers.push(Box::new(HubSampler::new(
                hub.clone(),
                Arc::clone(clock),
                sut.name(),
            )));
        }
    }
    effective
}

/// Starts the Level-2 event tracer when the effective level grants
/// in-source instrumentation: the tracer publishes its stage-pair
/// latency histograms through a dedicated hub sampled under
/// [`TRACE_SOURCE`], and the platform installs probes at its own
/// tracepoints ([`SystemUnderTest::install_tracer`]) *before* the first
/// connector is built, so the connector can stamp received events.
fn wire_tracer(
    sut: &mut Box<dyn SystemUnderTest>,
    effective: EvaluationLevel,
    loggers: &mut Vec<Box<dyn gt_metrics::MetricsLogger>>,
    clock: &Arc<dyn Clock>,
) -> Option<Tracer> {
    if !effective.includes(EvaluationLevel::Level2) {
        return None;
    }
    let trace_hub = MetricsHub::new();
    let tracer = Tracer::new(TraceConfig::default(), Arc::clone(clock), &trace_hub);
    loggers.push(Box::new(HubSampler::new(
        trace_hub,
        Arc::clone(clock),
        TRACE_SOURCE,
    )));
    sut.install_tracer(&tracer);
    Some(tracer)
}

/// The platform's final report as `float` records under the platform's
/// name, timestamped at `t_micros`.
pub fn report_records(report: &SutReport, t_micros: u64) -> Vec<MetricRecord> {
    let source = Name::from(report.name.as_str());
    let record = |(metric, value): &(String, f64)| {
        let value = MetricValue::Float(*value);
        MetricRecord::new(t_micros, source.clone(), metric.as_str().into(), value)
    };
    report.summary.iter().map(record).collect()
}

/// Everything the run's end adds to the log, in the order it is folded:
/// the platform's report, the tracer's matched stage-pair latency records
/// (stopping the tracer; they carry their own emit-time timestamps, so
/// they interleave chronologically with the sampled series), then the
/// netem front's records.
fn closing_records(
    report: &SutReport,
    t_micros: u64,
    tracer: Option<Tracer>,
    netem_records: Vec<MetricRecord>,
) -> Vec<MetricRecord> {
    let mut records = report_records(report, t_micros);
    if let Some(tracer) = tracer {
        records.extend(tracer.stop().records);
    }
    records.extend(netem_records);
    records
}

/// Arms a chaos plan with the platform's own crash/restart surface when
/// the caller has not wired one explicitly. A platform without a
/// supervisor leaves crash faults journaled as undeliverable.
fn wire_chaos_supervisor(chaos: &mut Option<crate::run::ChaosPlan>, sut: &dyn SystemUnderTest) {
    if let Some(chaos) = chaos {
        if chaos.supervisor.is_none() {
            chaos.supervisor = sut.supervisor();
        }
    }
}

/// Runs the replay either straight into the connector or — when the plan
/// carried a netem plan — through the [`crate::netem`] front (sink →
/// fault proxy → bridge → connector). Returns the run result plus the
/// netem records to fold into the merged log: the front's counters, the
/// sink's per-cause disconnect stats, and the fault journal under the
/// `netem` source.
///
/// In both arms the connector is dropped before returning (directly, or
/// by the bridge thread joining), so the platform sees end-of-stream
/// before the caller quiesces it.
fn run_with_netem_front<O>(
    netem: Option<NetemPlan>,
    mut connector: Box<dyn EventSink + Send>,
    clock: &Arc<dyn Clock>,
    run: impl FnOnce(&mut (dyn EventSink + Send)) -> Result<O, SutRunError>,
) -> (Result<O, SutRunError>, Vec<MetricRecord>) {
    let Some(netem) = netem else {
        let result = run(&mut *connector);
        drop(connector);
        return (result, Vec::new());
    };
    let journal = netem.journal.clone();
    let (mut sink, front) = match start_netem_front(&netem, connector, Arc::clone(clock)) {
        Ok(pair) => pair,
        Err(e) => return (Err(e.into()), Vec::new()),
    };
    let result = run(&mut sink);
    let mut records = sink_records(&sink, clock.now_micros());
    // Dropping the sink closes the client socket; the in-flight proxy
    // connection drains to EOF before the front honors its stop flag.
    drop(sink);
    let result = match front.finish() {
        Ok(report) => {
            records.extend(report.records(clock.now_micros()));
            result
        }
        // A run error (if any) explains the front error; keep the former.
        Err(e) => result.and(Err(e.into())),
    };
    records.extend(journal.records_with_source(NETEM_SOURCE));
    (result, records)
}

/// Folds extra records into a log: the log's records move, the extras are
/// appended, and one stable sort restores chronological order.
pub(crate) fn fold_records(log: ResultLog, extra: Vec<MetricRecord>) -> ResultLog {
    if extra.is_empty() {
        return log;
    }
    let mut records = log.into_records();
    records.extend(extra);
    ResultLog::from_records(records)
}

/// Runs an in-memory plan against the platform registered under `name`.
///
/// See the module docs for the exact wiring sequence. The plan's `level`
/// is treated as *requested* access; the effective level is
/// `min(plan.level, sut.level())`.
pub fn run_sut_experiment(
    plan: RunPlan,
    registry: &SutRegistry,
    name: &str,
    options: &SutOptions,
) -> Result<SutRunOutcome<RunOutcome>, SutRunError> {
    run_sut_experiment_with_timeout(plan, registry, name, options, DEFAULT_QUIESCE_TIMEOUT)
}

/// [`run_sut_experiment`] with an explicit quiesce timeout — how long the
/// runner waits for the platform to drain after the stream ends. A
/// platform still busy when the timeout expires yields `quiesced ==
/// false` while its partial report and sampled metrics are folded into
/// the outcome as usual.
pub fn run_sut_experiment_with_timeout(
    mut plan: RunPlan,
    registry: &SutRegistry,
    name: &str,
    options: &SutOptions,
    quiesce_timeout: Duration,
) -> Result<SutRunOutcome<RunOutcome>, SutRunError> {
    let clock: Arc<dyn Clock> = Arc::new(WallClock::start());
    let mut sut = registry.start(name, options)?;
    plan.level = wire_sut(&mut sut, plan.level, &mut plan.loggers, &clock);
    let tracer = wire_tracer(&mut sut, plan.level, &mut plan.loggers, &clock);
    if let Some(tracer) = &tracer {
        plan.tracer = Some(tracer.clone());
    }
    wire_chaos_supervisor(&mut plan.chaos, sut.as_ref());

    let connector = sut.connector()?;
    let netem = plan.netem.take();
    let run_clock = Arc::clone(&clock);
    let (result, netem_records) = run_with_netem_front(netem, connector, &clock, move |sink| {
        run_experiment_with_clock(plan, sink, run_clock).map_err(SutRunError::from)
    });

    let quiesced = sut.quiesce(quiesce_timeout);
    let (report, digest) = sut.shutdown_digest();
    let mut run = match result {
        Ok(run) => run,
        Err(e) => {
            if let Some(tracer) = tracer {
                tracer.stop();
            }
            return Err(e);
        }
    };
    let closing = closing_records(&report, clock.now_micros(), tracer, netem_records);
    run.log = fold_records(run.log, closing);
    Ok(SutRunOutcome {
        run,
        report,
        quiesced,
        digest,
    })
}

/// Runs a file-backed plan against the platform registered under `name`
/// — the same wiring as [`run_sut_experiment`] on the streaming pipeline.
pub fn run_file_sut_experiment(
    plan: FileRunPlan,
    registry: &SutRegistry,
    name: &str,
    options: &SutOptions,
) -> Result<SutRunOutcome<FileRunOutcome>, SutRunError> {
    run_file_sut_experiment_with_timeout(plan, registry, name, options, DEFAULT_QUIESCE_TIMEOUT)
}

/// [`run_file_sut_experiment`] with an explicit quiesce timeout (see
/// [`run_sut_experiment_with_timeout`]).
pub fn run_file_sut_experiment_with_timeout(
    mut plan: FileRunPlan,
    registry: &SutRegistry,
    name: &str,
    options: &SutOptions,
    quiesce_timeout: Duration,
) -> Result<SutRunOutcome<FileRunOutcome>, SutRunError> {
    let clock: Arc<dyn Clock> = Arc::new(WallClock::start());
    let mut sut = registry.start(name, options)?;
    plan.level = wire_sut(&mut sut, plan.level, &mut plan.loggers, &clock);
    let tracer = wire_tracer(&mut sut, plan.level, &mut plan.loggers, &clock);
    if let Some(tracer) = &tracer {
        plan.tracer = Some(tracer.clone());
    }
    wire_chaos_supervisor(&mut plan.chaos, sut.as_ref());

    let connector = sut.connector()?;
    let netem = plan.netem.take();
    let run_clock = Arc::clone(&clock);
    let (result, netem_records) = run_with_netem_front(netem, connector, &clock, move |sink| {
        run_file_experiment_with_clock(plan, sink, run_clock).map_err(SutRunError::from)
    });

    let quiesced = sut.quiesce(quiesce_timeout);
    let (report, digest) = sut.shutdown_digest();
    let mut run = match result {
        Ok(run) => run,
        Err(e) => {
            if let Some(tracer) = tracer {
                tracer.stop();
            }
            return Err(e);
        }
    };
    let closing = closing_records(&report, clock.now_micros(), tracer, netem_records);
    run.log = fold_records(run.log, closing);
    Ok(SutRunOutcome {
        run,
        report,
        quiesced,
        digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_core::prelude::*;

    fn registry() -> SutRegistry {
        let mut registry = SutRegistry::new();
        tide_store::sut::register(&mut registry);
        tide_graph::sut::register(&mut registry);
        registry
    }

    fn stream(n: u64) -> GraphStream {
        let mut s: GraphStream = (0..n)
            .map(|i| {
                StreamEntry::graph(GraphEvent::AddVertex {
                    id: VertexId(i),
                    state: State::empty(),
                })
            })
            .collect();
        s.push(StreamEntry::marker("stream-end"));
        s
    }

    #[test]
    fn store_runs_through_registry() {
        let options = SutOptions::new()
            .set("timestamper_cost_us", 0)
            .set("shard_cost_us", 0)
            .set("batch_size", 10);
        let plan = RunPlan::new(stream(500), 200_000.0).at_level(EvaluationLevel::Level2);
        let outcome = run_sut_experiment(plan, &registry(), "tide-store", &options).unwrap();

        assert!(outcome.quiesced);
        assert_eq!(outcome.run.report.graph_events, 500);
        assert_eq!(outcome.report.get("events"), Some(500.0));
        assert_eq!(outcome.report.get("vertices"), Some(500.0));
        // The final report is folded into the merged log...
        assert!(!outcome.run.log.series("tide-store", "events").is_empty());
        // ...and the L1 hub sampler captured the store's native counters.
        assert!(!outcome
            .run
            .log
            .series("tide-store", "store.events")
            .is_empty());
        assert!(outcome.run.log.marker("stream-end").is_some());
        // Level 2 granted: the tracer broke the pipeline latency down by
        // stage — sampled events carry emit→connector and connector→apply
        // records in the merged log (sampling is 1-in-64, so 500 events
        // yield a handful, and event #0 is always sampled).
        assert!(!outcome
            .run
            .log
            .series(TRACE_SOURCE, "emit_to_connector_micros")
            .is_empty());
        assert!(!outcome
            .run
            .log
            .series(TRACE_SOURCE, "connector_to_apply_micros")
            .is_empty());
    }

    #[test]
    fn graph_runs_through_registry() {
        let options = SutOptions::new().set("workers", 2).set("epsilon", 1e-3);
        let plan = RunPlan::new(stream(300), 200_000.0).at_level(EvaluationLevel::Level2);
        let outcome = run_sut_experiment(plan, &registry(), "tide-graph", &options).unwrap();

        assert!(outcome.quiesced);
        assert_eq!(outcome.report.get("events"), Some(300.0));
        assert_eq!(outcome.report.get("vertices"), Some(300.0));
        assert!(!outcome.run.log.series("tide-graph", "events").is_empty());
        // L1 sampling surfaced the per-worker counters.
        assert!(!outcome
            .run
            .log
            .series("tide-graph", "worker-0.ops")
            .is_empty());
        // The engine's worker threads stamped sampled events too.
        assert!(!outcome
            .run
            .log
            .series(TRACE_SOURCE, "connector_to_apply_micros")
            .is_empty());
    }

    #[test]
    fn level0_plan_suppresses_native_metrics() {
        let options = SutOptions::new()
            .set("timestamper_cost_us", 0)
            .set("shard_cost_us", 0);
        let mut plan = RunPlan::new(stream(100), 200_000.0).at_level(EvaluationLevel::Level0);
        plan.sysmon = None;
        let outcome = run_sut_experiment(plan, &registry(), "tide-store", &options).unwrap();
        // No L1 sampler: the only tide-store records are the final report.
        assert!(outcome
            .run
            .log
            .series("tide-store", "store.events")
            .is_empty());
        // No L2 tracer either: in-source tracepoints stay dark.
        assert!(outcome
            .run
            .log
            .records()
            .iter()
            .all(|r| r.source != TRACE_SOURCE));
        assert_eq!(outcome.report.get("events"), Some(100.0));
    }

    /// A stub platform that ingests everything but never drains: its
    /// `quiesce` honours the timeout contract by polling a backlog that
    /// never empties. The real-world shape is the paper's Figure 3d
    /// system, still computing long after the stream ends.
    struct NeverDrains {
        hub: MetricsHub,
        events: std::sync::Arc<std::sync::atomic::AtomicU64>,
    }

    struct NeverDrainsSink {
        events: std::sync::Arc<std::sync::atomic::AtomicU64>,
        counter: gt_metrics::hub::Counter,
    }

    impl gt_replayer::EventSink for NeverDrainsSink {
        fn send(&mut self, entry: &StreamEntry) -> std::io::Result<()> {
            if matches!(entry, StreamEntry::Graph(_)) {
                self.events
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                self.counter.inc();
            }
            Ok(())
        }
        fn send_batch(&mut self, batch: &[SharedEntry]) -> std::io::Result<()> {
            for entry in batch {
                self.send(entry)?;
            }
            Ok(())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SystemUnderTest for NeverDrains {
        fn name(&self) -> &str {
            "never-drains"
        }
        fn level(&self) -> EvaluationLevel {
            EvaluationLevel::Level1
        }
        fn connector(&mut self) -> std::io::Result<Box<dyn gt_replayer::EventSink + Send>> {
            Ok(Box::new(NeverDrainsSink {
                events: std::sync::Arc::clone(&self.events),
                counter: self.hub.counter("stub.events"),
            }))
        }
        fn hub(&self) -> Option<&MetricsHub> {
            Some(&self.hub)
        }
        fn quiesce(&mut self, timeout: Duration) -> bool {
            // The backlog never empties: poll until the timeout burns off.
            let deadline = std::time::Instant::now() + timeout;
            while std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            false
        }
        fn shutdown(self: Box<Self>) -> SutReport {
            SutReport::new("never-drains").with(
                "events",
                self.events.load(std::sync::atomic::Ordering::Relaxed) as f64,
            )
        }
        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
            self
        }
    }

    #[test]
    fn quiesce_timeout_yields_false_but_still_folds_the_partial_outcome() {
        let mut registry = SutRegistry::new();
        registry.register("never-drains", |_options| {
            Ok(Box::new(NeverDrains {
                hub: MetricsHub::new(),
                events: std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0)),
            }) as Box<dyn SystemUnderTest>)
        });

        let plan = RunPlan::new(stream(300), 300_000.0).at_level(EvaluationLevel::Level1);
        let started = std::time::Instant::now();
        let outcome = run_sut_experiment_with_timeout(
            plan,
            &registry,
            "never-drains",
            &SutOptions::new(),
            Duration::from_millis(50),
        )
        .unwrap();
        // The runner gave up within the (shortened) timeout instead of
        // hanging for the 30 s default...
        assert!(started.elapsed() < DEFAULT_QUIESCE_TIMEOUT);
        assert!(!outcome.quiesced);
        // ...while the partial report and sampled metrics still made it
        // into the outcome.
        assert_eq!(outcome.report.get("events"), Some(300.0));
        assert!(!outcome.run.log.series("never-drains", "events").is_empty());
        assert!(!outcome
            .run
            .log
            .series("never-drains", "stub.events")
            .is_empty());
        assert_eq!(outcome.run.report.graph_events, 300);
    }

    #[test]
    fn chaos_crash_supervisor_is_wired_from_the_platform() {
        use crate::run::ChaosPlan;
        use gt_chaos::FaultSchedule;

        // Kill store shard 1 at event 100, restart it 200 events later:
        // the supervisor must come from the platform itself (the plan
        // leaves it None), and both fault and recovery must be journaled.
        let options = SutOptions::new()
            .set("timestamper_cost_us", 0)
            .set("shard_cost_us", 0)
            .set("supervised", 1);
        let chaos =
            ChaosPlan::new(FaultSchedule::parse("crash@100,worker=1,restart=200", 11).unwrap());
        let journal = chaos.journal.clone();
        let plan = RunPlan::new(stream(600), 300_000.0).with_chaos(chaos);
        let outcome = run_sut_experiment(plan, &registry(), "tide-store", &options).unwrap();

        assert_eq!(
            journal.signature(),
            vec![
                (100, "crash(worker=1, restart=+200) ok".to_owned()),
                (300, "restart(worker=1) ok".to_owned()),
            ]
        );
        assert!(outcome
            .run
            .log
            .records()
            .iter()
            .any(|r| r.source == gt_chaos::CHAOS_SOURCE && r.metric == "fault"));
        assert!(outcome
            .run
            .log
            .records()
            .iter()
            .any(|r| r.source == gt_chaos::CHAOS_SOURCE && r.metric == "recovery"));
        // The platform counted the crash and restart in its final report.
        assert_eq!(outcome.report.get("crashes"), Some(1.0));
        assert_eq!(outcome.report.get("restarts"), Some(1.0));
    }

    // Tentpole: a single-sink run through the netem front. The partition
    // blackholes the replayer's connection for 200 ms mid-run; TCP
    // backpressure rides it out, every event still reaches the platform,
    // and the fault journal is exact — whether the events fired live or
    // were fast-forwarded at stop, the signature is identical.
    #[test]
    fn netem_partition_rides_through_a_single_sink_run() {
        let options = SutOptions::new()
            .set("timestamper_cost_us", 0)
            .set("shard_cost_us", 0);
        let netem =
            NetemPlan::new(gt_netem::NetemSchedule::parse("partition@100ms,dur=200ms", 5).unwrap());
        let journal = netem.journal.clone();
        let plan = RunPlan::new(stream(3_000), 6_000.0).with_netem(netem);
        let outcome = run_sut_experiment(plan, &registry(), "tide-store", &options).unwrap();

        assert_eq!(outcome.run.report.graph_events, 3_000);
        assert_eq!(outcome.report.get("events"), Some(3_000.0));
        assert!(outcome.run.log.marker("stream-end").is_some());
        assert_eq!(
            journal.signature(),
            vec![
                (100, "partition(dur=200ms)@100ms".to_owned()),
                (300, "heal(partition(dur=200ms)@100ms)".to_owned()),
            ]
        );
        // Fault and recovery land in the merged log under the netem
        // source, next to the front's traffic counters.
        let records = outcome.run.log.records();
        assert!(records
            .iter()
            .any(|r| r.source == NETEM_SOURCE && r.metric == "fault"));
        assert!(records
            .iter()
            .any(|r| r.source == NETEM_SOURCE && r.metric == "recovery"));
        assert!(records
            .iter()
            .any(|r| r.source == NETEM_SOURCE && r.metric == "lines_forwarded"));
    }

    // A graceful FIN kill mid-run: the reconnecting sink classifies the
    // drop, dials again, and the bridge picks the fresh connection up —
    // the run completes with the reconnect visible in the log.
    #[test]
    fn netem_fin_kill_reconnects_and_completes() {
        let options = SutOptions::new()
            .set("timestamper_cost_us", 0)
            .set("shard_cost_us", 0);
        let netem =
            NetemPlan::new(gt_netem::NetemSchedule::parse("kill@150ms,mode=fin", 9).unwrap());
        let journal = netem.journal.clone();
        let plan = RunPlan::new(stream(3_000), 6_000.0).with_netem(netem);
        let outcome = run_sut_experiment(plan, &registry(), "tide-store", &options).unwrap();

        // The replayer offered everything; the kill may cost in-flight
        // lines (at-least-once replays the unflushed tail), so the
        // platform sees most-but-possibly-not-all, never zero.
        assert_eq!(outcome.run.report.graph_events, 3_000);
        assert!(outcome.report.get("events").unwrap() > 1_000.0);
        assert_eq!(journal.signature().len(), 1);
        assert!(journal.signature()[0].1.contains("kill(mode=fin)"));
        let records = outcome.run.log.records();
        let reconnects = records
            .iter()
            .find(|r| r.source == NETEM_SOURCE && r.metric == "sink.reconnects")
            .and_then(|r| r.value.as_f64())
            .unwrap();
        assert!(reconnects >= 1.0, "sink reconnected after the kill");
        let bridge_conns = records
            .iter()
            .find(|r| r.source == NETEM_SOURCE && r.metric == "bridge_connections")
            .and_then(|r| r.value.as_f64())
            .unwrap();
        assert!(bridge_conns >= 2.0, "bridge saw the replacement connection");
    }

    #[test]
    fn unknown_name_is_a_sut_error() {
        let plan = RunPlan::new(stream(10), 100_000.0);
        let err = run_sut_experiment(plan, &registry(), "no-such-platform", &SutOptions::new())
            .unwrap_err();
        assert!(matches!(err, SutRunError::Sut(SutError::Unknown { .. })));
        assert!(err.to_string().contains("no-such-platform"));
    }

    #[test]
    fn file_plan_runs_through_registry() {
        let dir = std::env::temp_dir().join("gt-harness-sut-run-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.csv");
        let mut content = String::new();
        for i in 0..2_000 {
            content.push_str(&format!("ADD_VERTEX,{i},\n"));
        }
        content.push_str("MARKER,stream-end,\n");
        std::fs::write(&path, content).unwrap();

        let options = SutOptions::new()
            .set("timestamper_cost_us", 0)
            .set("shard_cost_us", 0);
        let plan = FileRunPlan::new(&path, 400_000.0).at_level(EvaluationLevel::Level2);
        let outcome = run_file_sut_experiment(plan, &registry(), "tide-store", &options).unwrap();

        assert!(outcome.quiesced);
        assert_eq!(outcome.run.report.replay.graph_events, 2_000);
        assert_eq!(outcome.report.get("events"), Some(2_000.0));
        assert!(!outcome.run.log.series("tide-store", "events").is_empty());
        assert!(!outcome
            .run
            .log
            .series("pipeline", "ingress_events")
            .is_empty());
        // The full pipeline is traced end to end on the file path:
        // reader → paced emit → sink write on the replay side, plus
        // connector → apply inside the platform.
        for metric in [
            "reader_to_emit_micros",
            "emit_to_sink_micros",
            "emit_to_connector_micros",
            "connector_to_apply_micros",
        ] {
            assert!(
                !outcome.run.log.series(TRACE_SOURCE, metric).is_empty(),
                "missing trace series {metric}"
            );
        }
        std::fs::remove_file(path).ok();
    }
}

//! The platform side of a run: what [`crate::run()`] does to a platform it
//! started from a [`gt_sut::SutRegistry`] before the first event moves,
//! and how the platform's closing report enters the log.
//!
//! This is the harness half of the Figure 2 contract — the platform half
//! is the [`SystemUnderTest`] trait. Before the run, `wire`:
//!
//! 1. clamps the requested evaluation level to what the platform declares
//!    (asking for Level 2 from a black-box platform degrades to what is
//!    actually observable),
//! 2. adds the platform's native metrics hub ([`SystemUnderTest::hub`])
//!    to the sampled loggers when the effective level grants Level 1,
//! 3. starts a Level-2 event tracer and installs it into the platform
//!    ([`SystemUnderTest::install_tracer`]) when the effective level
//!    grants in-source instrumentation, so sampled events carry
//!    emit→connector→apply tracepoint stamps,
//! 4. lends a chaos plan the platform's own crash/restart surface.
//!
//! After the stream, `run` drops the connector, waits for the platform to
//! drain ([`SystemUnderTest::quiesce`]), shuts it down, and adds the final
//! [`SutReport`] ([`report_records`]) plus the tracer's stage-pair latency
//! records and its final summaries to the merged log (source = the
//! platform name / `trace`, timestamped at run end / emit time).

use std::sync::Arc;
use std::time::Duration;

use gt_metrics::{Clock, HubSampler, MetricRecord, MetricValue, MetricsHub, MetricsLogger, Name};
use gt_sut::{EvaluationLevel, SutReport, SystemUnderTest};
use gt_trace::{TraceConfig, Tracer, TRACE_SOURCE};

use crate::run::ChaosPlan;

/// How long a run waits, by default, for a platform to drain its backlog
/// after the stream ends, before shutting it down
/// ([`crate::RunPlan::quiesce_timeout`]).
pub(crate) const DEFAULT_QUIESCE_TIMEOUT: Duration = Duration::from_secs(30);

/// The Level-2 tracer a run started, with the hub its stage-pair
/// summaries publish into.
pub(crate) struct RunTracer {
    pub(crate) tracer: Tracer,
    hub: MetricsHub,
}

impl RunTracer {
    /// Stops the tracer after a final drain and returns one record per
    /// matched pair, then one last sample of the `<pair>.count|mean|p99|max`
    /// summaries. The run's observers take their final sample before the
    /// platform drains, so the pairs matched after it would reach the
    /// records but not the sampled summaries; this sample, taken once the
    /// collector has stopped, makes the summaries' last value the whole
    /// run's.
    pub(crate) fn stop(self, clock: &Arc<dyn Clock>) -> Vec<MetricRecord> {
        let mut records = self.tracer.stop().records;
        let mut summaries = HubSampler::new(self.hub, Arc::clone(clock), TRACE_SOURCE);
        records.extend(summaries.sample());
        records
    }
}

/// Prepares a started platform for the run (see the module docs).
/// Returns the tracer it started, if any — the caller stops it.
///
/// The tracer publishes its stage-pair latency histograms through a
/// dedicated hub sampled under [`TRACE_SOURCE`], and is installed
/// *before* the first connector is built, so the connector can stamp
/// received events. A platform without a supervisor leaves crash faults
/// journaled as undeliverable.
pub(crate) fn wire(
    sut: &mut dyn SystemUnderTest,
    requested: EvaluationLevel,
    loggers: &mut Vec<Box<dyn MetricsLogger>>,
    chaos: &mut Option<ChaosPlan>,
    clock: &Arc<dyn Clock>,
) -> Option<RunTracer> {
    let effective = requested.min(sut.level());
    let mut sample = |hub: MetricsHub, source: &str| {
        loggers.push(Box::new(HubSampler::new(hub, Arc::clone(clock), source)));
    };
    if effective.includes(EvaluationLevel::Level1) {
        if let Some(hub) = sut.hub() {
            sample(hub.clone(), sut.name());
        }
    }
    let tracer = effective.includes(EvaluationLevel::Level2).then(|| {
        let hub = MetricsHub::new();
        let tracer = Tracer::new(TraceConfig::default(), Arc::clone(clock), &hub);
        sample(hub.clone(), TRACE_SOURCE);
        sut.install_tracer(&tracer);
        RunTracer { tracer, hub }
    });
    if let Some(chaos) = chaos {
        if chaos.supervisor.is_none() {
            chaos.supervisor = sut.supervisor();
        }
    }
    tracer
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run, RunError, RunPlan, Source, Target};
    use gt_core::prelude::*;
    use gt_netem::{NetemPlan, NETEM_SOURCE};
    use gt_sut::{SutError, SutOptions, SutRegistry};

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

    /// `stream(n)` in memory and in a file named `name`: the two sources
    /// a run can drive, and the file's path.
    fn sources(n: u64, name: &str) -> ([Source; 2], std::path::PathBuf) {
        let dir = std::env::temp_dir().join("gt-harness-sut-run-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}.csv", std::process::id()));
        stream(n).write_to_file(&path).unwrap();
        let sources = [Source::Memory(stream(n)), Source::File(path.clone())];
        (sources, path)
    }

    #[test]
    fn store_runs_through_registry_from_either_source() {
        let options = SutOptions::new()
            .set("timestamper_cost_us", 0)
            .set("shard_cost_us", 0)
            .set("batch_size", 10);
        let (sources, path) = sources(2_000, "store-run");
        for source in sources {
            let plan = RunPlan::new(source, 400_000.0).at_level(EvaluationLevel::Level2);
            let outcome = run(plan, Target::Sut(&registry(), "tide-store", &options)).unwrap();

            assert!(outcome.quiesced);
            assert_eq!(outcome.replay().graph_events, 2_000);
            assert_eq!(outcome.sut_report().get("events"), Some(2_000.0));
            assert_eq!(outcome.sut_report().get("vertices"), Some(2_000.0));
            // The final report is folded into the merged log...
            assert!(!outcome.log.series("tide-store", "events").is_empty());
            // ...the L1 hub sampler captured the store's native counters...
            assert!(!outcome.log.series("tide-store", "store.events").is_empty());
            // ...and the pipeline's own stage metrics.
            assert!(!outcome.log.series("pipeline", "ingress_events").is_empty());
            assert!(outcome.log.marker("stream-end").is_some());
            // Level 2 granted: the full pipeline is traced end to end —
            // reader → paced emit → sink write on the replay side, plus
            // connector → apply inside the platform (sampling is 1-in-64,
            // and event #0 is always sampled).
            for metric in [
                "reader_to_emit_micros",
                "emit_to_sink_micros",
                "emit_to_connector_micros",
                "connector_to_apply_micros",
            ] {
                assert!(
                    !outcome.log.series(TRACE_SOURCE, metric).is_empty(),
                    "missing trace series {metric}"
                );
            }
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn graph_runs_through_registry() {
        let options = SutOptions::new().set("workers", 2).set("epsilon", 1e-3);
        let plan = RunPlan::new(stream(300), 200_000.0).at_level(EvaluationLevel::Level2);
        let outcome = run(plan, Target::Sut(&registry(), "tide-graph", &options)).unwrap();

        assert!(outcome.quiesced);
        assert_eq!(outcome.sut_report().get("events"), Some(300.0));
        assert_eq!(outcome.sut_report().get("vertices"), Some(300.0));
        assert!(!outcome.log.series("tide-graph", "events").is_empty());
        // L1 sampling surfaced the per-worker counters.
        assert!(!outcome.log.series("tide-graph", "worker-0.ops").is_empty());
        // The engine's worker threads stamped sampled events too.
        assert!(!outcome
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
        let outcome = run(plan, Target::Sut(&registry(), "tide-store", &options)).unwrap();
        // No L1 sampler: the only tide-store records are the final report.
        assert!(outcome.log.series("tide-store", "store.events").is_empty());
        // No L2 tracer either: in-source tracepoints stay dark.
        assert!(outcome
            .log
            .records()
            .iter()
            .all(|r| r.source != TRACE_SOURCE));
        assert_eq!(outcome.sut_report().get("events"), Some(100.0));
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

        let mut plan = RunPlan::new(stream(300), 300_000.0).at_level(EvaluationLevel::Level1);
        plan.quiesce_timeout = Duration::from_millis(50);
        let started = std::time::Instant::now();
        let target = Target::Sut(&registry, "never-drains", &SutOptions::new());
        let outcome = run(plan, target).unwrap();
        // The runner gave up within the (shortened) timeout instead of
        // hanging for the 30 s default...
        assert!(started.elapsed() < DEFAULT_QUIESCE_TIMEOUT);
        assert!(!outcome.quiesced);
        // ...while the partial report and sampled metrics still made it
        // into the outcome.
        assert_eq!(outcome.sut_report().get("events"), Some(300.0));
        assert!(!outcome.log.series("never-drains", "events").is_empty());
        assert!(!outcome.log.series("never-drains", "stub.events").is_empty());
        assert_eq!(outcome.replay().graph_events, 300);
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
        let outcome = run(plan, Target::Sut(&registry(), "tide-store", &options)).unwrap();

        assert_eq!(
            journal.signature(),
            vec![
                (100, "crash(worker=1, restart=+200) ok".to_owned()),
                (300, "restart(worker=1) ok".to_owned()),
            ]
        );
        assert!(outcome
            .log
            .records()
            .iter()
            .any(|r| r.source == gt_chaos::CHAOS_SOURCE && r.metric == "fault"));
        assert!(outcome
            .log
            .records()
            .iter()
            .any(|r| r.source == gt_chaos::CHAOS_SOURCE && r.metric == "recovery"));
        // The platform counted the crash and restart in its final report.
        assert_eq!(outcome.sut_report().get("crashes"), Some(1.0));
        assert_eq!(outcome.sut_report().get("restarts"), Some(1.0));
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
        let outcome = run(plan, Target::Sut(&registry(), "tide-store", &options)).unwrap();

        assert_eq!(outcome.replay().graph_events, 3_000);
        assert_eq!(outcome.sut_report().get("events"), Some(3_000.0));
        assert!(outcome.log.marker("stream-end").is_some());
        assert_eq!(
            journal.signature(),
            vec![
                (100, "partition(dur=200ms)@100ms".to_owned()),
                (300, "heal(partition(dur=200ms)@100ms)".to_owned()),
            ]
        );
        // Fault and recovery land in the merged log under the netem
        // source, next to the front's traffic counters.
        let records = outcome.log.records();
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
    // the run completes with the disconnect and the reconnect visible in
    // the log, from either source.
    #[test]
    fn netem_fin_kill_reconnects_and_completes() {
        let options = SutOptions::new()
            .set("timestamper_cost_us", 0)
            .set("shard_cost_us", 0);
        let (sources, path) = sources(3_000, "fin-kill");
        for source in sources {
            let schedule = gt_netem::NetemSchedule::parse("kill@150ms,mode=fin", 9).unwrap();
            let netem = NetemPlan::new(schedule);
            let journal = netem.journal.clone();
            let plan = RunPlan::new(source, 6_000.0).with_netem(netem);
            let outcome = run(plan, Target::Sut(&registry(), "tide-store", &options)).unwrap();

            // The replayer offered everything; the kill may cost in-flight
            // lines (at-least-once replays the unflushed tail), so the
            // platform sees most-but-possibly-not-all, never zero.
            assert_eq!(outcome.replay().graph_events, 3_000);
            assert!(outcome.sut_report().get("events").unwrap() > 1_000.0);
            assert_eq!(journal.signature().len(), 1);
            assert!(journal.signature()[0].1.contains("kill(mode=fin)"));
            let records = outcome.log.records();
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
            for metric in ["disconnect", "reconnect"] {
                assert!(
                    records
                        .iter()
                        .any(|r| r.source == "sink" && r.metric == metric),
                    "no sink/{metric} record"
                );
            }
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn unknown_name_is_a_sut_error() {
        let plan = RunPlan::new(stream(10), 100_000.0);
        let target = Target::Sut(&registry(), "no-such-platform", &SutOptions::new());
        let err = run(plan, target).unwrap_err();
        assert!(matches!(err, RunError::Sut(SutError::Unknown { .. })));
        assert!(err.to_string().contains("no-such-platform"));
    }
}

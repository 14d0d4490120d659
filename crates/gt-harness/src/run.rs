//! The experiment run loop.
//!
//! One run = one replay of one stream into one system under test, with
//! metric loggers sampling concurrently on a background thread, and all
//! outputs merged into a single chronologically sorted [`ResultLog`]
//! (Figure 2's data path).

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use gt_chaos::{ChaosJournal, ChaosSink, FaultSchedule};
use gt_core::prelude::*;
use gt_metrics::hub::Counter;
use gt_metrics::{
    Clock, HubSampler, LogCollector, MetricRecord, MetricsHub, MetricsLogger, ResultLog, WallClock,
};
use gt_replayer::{
    EventSink, ReplayError, ReplayReport, ReplaySession, ReplaySessionConfig, Replayer,
    ReplayerConfig, SessionReport, SinkEventKind,
};
use gt_sut::WorkerSupervisor;
use gt_sysmon::SamplerConfig;
use gt_trace::{Stage, Tracer};

use crate::levels::EvaluationLevel;
use crate::watchdog::{spawn_watchdog, RunStatus, WatchdogConfig, WatchdogHandle};

/// Live chaos for one run: a deterministic fault schedule, the journal it
/// writes to, and (optionally) the platform's crash/restart surface.
///
/// The journal is shared — keep a clone to assert on
/// [`ChaosJournal::signature`] after the run; the run loop also folds
/// [`ChaosJournal::records`] into the merged log under the `chaos` source.
pub struct ChaosPlan {
    /// The faults to inject, pinned to stream positions.
    pub schedule: FaultSchedule,
    /// Where fault/recovery events are journaled.
    pub journal: ChaosJournal,
    /// The platform's crash/restart surface. The SUT runner fills this
    /// from [`gt_sut::SystemUnderTest::supervisor`] when left `None`.
    pub supervisor: Option<Arc<dyn WorkerSupervisor>>,
}

impl ChaosPlan {
    /// A chaos plan for the given schedule with a fresh journal.
    pub fn new(schedule: FaultSchedule) -> Self {
        ChaosPlan {
            schedule,
            journal: ChaosJournal::new(),
            supervisor: None,
        }
    }

    /// Attaches a crash/restart surface (builder style).
    #[must_use]
    pub fn with_supervisor(mut self, supervisor: Arc<dyn WorkerSupervisor>) -> Self {
        self.supervisor = Some(supervisor);
        self
    }
}

/// Everything a single run needs besides the system under test.
pub struct RunPlan {
    /// The stream to replay.
    pub stream: GraphStream,
    /// Replayer configuration (target rate, pause handling).
    pub replayer: ReplayerConfig,
    /// Metric loggers sampled during the run.
    pub loggers: Vec<Box<dyn MetricsLogger>>,
    /// Sampling interval for the logger thread.
    pub sampling_interval: Duration,
    /// The access level granted by the system under test. Level-0
    /// (black-box `/proc` observation) is included in every level, so the
    /// resource monitor runs unless [`Self::sysmon`] is `None`.
    pub level: EvaluationLevel,
    /// Level-0 resource monitor configuration; `None` disables it.
    pub sysmon: Option<SamplerConfig>,
    /// Level-2 event tracer. When set, the replayer stamps a
    /// [`Stage::PacedEmit`] tracepoint for every sampled graph event it
    /// emits, so emit→connector→apply latencies can be broken down per
    /// stage. The caller keeps a clone and calls [`Tracer::stop`] after
    /// the run to collect the matched stage-pair records.
    pub tracer: Option<Tracer>,
    /// Experiment watchdog; `None` runs unguarded. When set, the replayer
    /// carries the watchdog's abort flag and the outcome's
    /// [`RunOutcome::status`] reports whether the run was cut short.
    pub watchdog: Option<WatchdogConfig>,
    /// Live fault injection; `None` runs clean. When set, the sink is
    /// wrapped in a [`ChaosSink`] and the journal's fault/recovery events
    /// land in the merged log under the `chaos` source.
    pub chaos: Option<ChaosPlan>,
    /// Multi-client traffic layer; `None` replays single-sink. When set,
    /// the SUT runner ([`crate::load::run_load_sut_experiment`]) fans the
    /// stream across `load.total_connections()` concurrent TCP clients
    /// instead of the single replayer sink, and the plan's `replayer`
    /// pacing is ignored (each client paces its own arrival schedule).
    pub load: Option<gt_load::LoadPlan>,
    /// Deterministic network fault injection; `None` runs on a clean
    /// path. Honored by the SUT runners: single-sink runs get a TCP hop
    /// through a [`gt_netem::NetemProxy`] (see [`crate::netem`]), and
    /// load runs route every client through the proxy. The bare
    /// [`run_experiment`] has no TCP path and ignores this field.
    pub netem: Option<gt_netem::NetemPlan>,
}

impl RunPlan {
    /// A plan with the given stream and target rate, no loggers, at
    /// Level 0 with the default resource monitor and no tracer.
    pub fn new(stream: GraphStream, target_rate: f64) -> Self {
        RunPlan {
            stream,
            replayer: ReplayerConfig {
                target_rate,
                ..Default::default()
            },
            loggers: Vec::new(),
            sampling_interval: Duration::from_millis(100),
            level: EvaluationLevel::Level0,
            sysmon: Some(SamplerConfig::default()),
            tracer: None,
            watchdog: None,
            chaos: None,
            load: None,
            netem: None,
        }
    }

    /// Adds a logger (builder style).
    #[must_use]
    pub fn with_logger(mut self, logger: Box<dyn MetricsLogger>) -> Self {
        self.loggers.push(logger);
        self
    }

    /// Attaches a multi-client load plan (builder style).
    #[must_use]
    pub fn with_load(mut self, load: gt_load::LoadPlan) -> Self {
        self.load = Some(load);
        self
    }

    /// Sets the evaluation level (builder style).
    #[must_use]
    pub fn at_level(mut self, level: EvaluationLevel) -> Self {
        self.level = level;
        self
    }

    /// Replaces the Level-0 monitor configuration (builder style).
    #[must_use]
    pub fn with_sysmon(mut self, config: SamplerConfig) -> Self {
        self.sysmon = Some(config);
        self
    }

    /// Attaches a Level-2 event tracer (builder style).
    #[must_use]
    pub fn with_tracer(mut self, tracer: &Tracer) -> Self {
        self.tracer = Some(tracer.clone());
        self
    }

    /// Arms the experiment watchdog (builder style).
    #[must_use]
    pub fn with_watchdog(mut self, config: WatchdogConfig) -> Self {
        self.watchdog = Some(config);
        self
    }

    /// Arms live chaos injection (builder style).
    #[must_use]
    pub fn with_chaos(mut self, chaos: ChaosPlan) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Arms deterministic network fault injection (builder style).
    #[must_use]
    pub fn with_netem(mut self, netem: gt_netem::NetemPlan) -> Self {
        self.netem = Some(netem);
        self
    }
}

/// Spawns the Level-0 monitor when the plan's level grants black-box
/// process access and a sampler is configured.
pub(crate) fn spawn_sysmon(
    level: EvaluationLevel,
    config: &Option<SamplerConfig>,
    clock: &Arc<dyn Clock>,
    hub: Option<&MetricsHub>,
) -> Option<gt_sysmon::SysmonHandle> {
    if !level.includes(EvaluationLevel::Level0) {
        return None;
    }
    let config = config.as_ref()?;
    Some(gt_sysmon::spawn(config.clone(), Arc::clone(clock), hub))
}

/// Stops the monitor and converts its outcome into records: the sampled
/// resource series, plus one text record when observation failed (so a
/// log from a non-Linux host says *why* the series is empty).
pub(crate) fn sysmon_records(
    handle: Option<gt_sysmon::SysmonHandle>,
    config: &Option<SamplerConfig>,
    clock: &Arc<dyn Clock>,
) -> Vec<MetricRecord> {
    let Some(handle) = handle else {
        return Vec::new();
    };
    let outcome = handle.stop();
    let mut records = outcome.records;
    if let Some(error) = outcome.error {
        let source = config
            .as_ref()
            .map_or_else(|| "sysmon".to_owned(), |c| c.source.clone());
        records.push(MetricRecord::text(
            clock.now_micros(),
            &source,
            "error",
            error.to_string(),
        ));
    }
    records
}

/// The outputs of one run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Streaming metrics from the replayer.
    pub report: ReplayReport,
    /// The merged result log: logger samples plus replayer marker
    /// records (source `replayer`, metric `marker`).
    pub log: ResultLog,
    /// Whether the run completed or the watchdog aborted it. An abort is
    /// also recorded in the log (source `watchdog`, metric `abort`).
    pub status: RunStatus,
}

/// The running sampler thread and the flag that ends it.
pub(crate) struct Sampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<MetricRecord>>,
}

/// Spawns the background thread that drives all loggers every `interval`
/// until [`join_sampler`] stops it, finishing with one final sample so
/// the log covers the run end.
pub(crate) fn spawn_sampler(
    mut loggers: Vec<Box<dyn MetricsLogger>>,
    interval: Duration,
) -> Sampler {
    let stop = Arc::new(AtomicBool::new(false));
    let stopped = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("gt-harness-sampler".into())
        .spawn(move || {
            let mut records = Vec::new();
            while !stopped.load(Ordering::Acquire) {
                for logger in &mut loggers {
                    records.extend(logger.sample());
                }
                // Parked, not asleep: `join_sampler` ends the wait at
                // once instead of after up to a whole interval, which
                // every measured run window would otherwise include.
                std::thread::park_timeout(interval);
            }
            for logger in &mut loggers {
                records.extend(logger.sample());
            }
            records
        })
        .expect("spawn sampler");
    Sampler { stop, thread }
}

/// Stops and joins the sampler thread, degrading gracefully: a panicked
/// logger must not poison the whole run, so the lost series is replaced
/// by one typed degradation record (source `harness`) explaining the gap.
pub(crate) fn join_sampler(sampler: Sampler, clock: &Arc<dyn Clock>) -> Vec<MetricRecord> {
    sampler.stop.store(true, Ordering::Release);
    sampler.thread.thread().unpark();
    sampler.thread.join().unwrap_or_else(|_| {
        vec![MetricRecord::text(
            clock.now_micros(),
            "harness",
            "degradation",
            "sampler thread panicked; sampled metric series truncated",
        )]
    })
}

/// Stops the watchdog (if armed) and converts its verdict into a run
/// status plus the abort record for the merged log.
pub(crate) fn finish_watchdog(
    watchdog: Option<WatchdogHandle>,
    clock: &Arc<dyn Clock>,
) -> (RunStatus, Vec<MetricRecord>) {
    let Some(reason) = watchdog.and_then(WatchdogHandle::finish) else {
        return (RunStatus::Completed, Vec::new());
    };
    let record = MetricRecord::text(clock.now_micros(), "watchdog", "abort", reason.to_string());
    (RunStatus::Aborted(reason), vec![record])
}

/// Replayer marker and ingress-rate records for the merged log.
fn replay_records(report: &ReplayReport) -> Vec<MetricRecord> {
    let mut records: Vec<MetricRecord> = report
        .markers
        .iter()
        .map(|(name, t)| MetricRecord::text(*t, "replayer", "marker", name.clone()))
        .collect();
    records.extend(report.rate_series.iter().map(|(t, rate)| {
        MetricRecord::float((*t * 1e6) as u64, "replayer", "ingress_rate", *rate)
    }));
    records
}

/// Executes one run: replays `plan.stream` into `sink` while sampling all
/// loggers every `plan.sampling_interval` on a background thread.
///
/// The shared run clock is created here; marker timestamps and logger
/// sample timestamps are directly comparable.
pub fn run_experiment<S: EventSink>(plan: RunPlan, sink: &mut S) -> std::io::Result<RunOutcome> {
    run_experiment_with_clock(plan, sink, Arc::new(WallClock::start()))
}

/// [`run_experiment`] against a caller-supplied clock, so records produced
/// *outside* the run (e.g. a system under test's final report) can share
/// its timeline. This is the primitive the SUT runner
/// ([`crate::sut::run_sut_experiment`]) builds on.
pub fn run_experiment_with_clock<S: EventSink + ?Sized>(
    plan: RunPlan,
    sink: &mut S,
    clock: Arc<dyn Clock>,
) -> std::io::Result<RunOutcome> {
    let sysmon = spawn_sysmon(plan.level, &plan.sysmon, &clock, None);
    let sampler = spawn_sampler(plan.loggers, plan.sampling_interval);

    let abort = Arc::new(AtomicBool::new(false));
    let progress = Counter::default();
    let watchdog = plan
        .watchdog
        .clone()
        .map(|config| spawn_watchdog(config, progress.clone(), Arc::clone(&abort)));

    let mut replayer = Replayer::new(plan.replayer).with_clock(Arc::clone(&clock));
    if watchdog.is_some() {
        replayer = replayer
            .with_abort_flag(Arc::clone(&abort))
            .with_ingress_counter(progress);
    }
    if let Some(tracer) = &plan.tracer {
        replayer = replayer.with_trace_probe(tracer.probe(Stage::PacedEmit));
    }
    let result = match &plan.chaos {
        Some(chaos) => {
            let mut chaos_sink = ChaosSink::new(
                &mut *sink,
                &chaos.schedule,
                chaos.journal.clone(),
                Arc::clone(&clock),
            );
            if let Some(supervisor) = &chaos.supervisor {
                chaos_sink = chaos_sink.with_supervisor(Arc::clone(supervisor));
            }
            replayer.replay_stream(&plan.stream, &mut chaos_sink)
        }
        None => replayer.replay_stream(&plan.stream, sink),
    };

    let sampled = join_sampler(sampler, &clock);
    let resource = sysmon_records(sysmon, &plan.sysmon, &clock);
    let (status, abort_records) = finish_watchdog(watchdog, &clock);
    let report = result?;

    let mut collector = LogCollector::new();
    collector
        .add_records(sampled)
        .add_records(resource)
        .add_records(replay_records(&report))
        .add_records(abort_records);
    if let Some(chaos) = &plan.chaos {
        collector.add_records(chaos.journal.records());
    }
    Ok(RunOutcome {
        report,
        log: collector.collect(),
        status,
    })
}

/// A run driven by the file-backed streaming pipeline instead of an
/// in-memory stream: the stream file is parsed on a dedicated reader
/// thread and never fully materialized.
pub struct FileRunPlan {
    /// Path of the stream file to replay.
    pub path: PathBuf,
    /// Pipeline configuration (pacing, channel capacity).
    pub session: ReplaySessionConfig,
    /// Metric loggers sampled during the run (the pipeline's own stage
    /// metrics are sampled automatically).
    pub loggers: Vec<Box<dyn MetricsLogger>>,
    /// Sampling interval for the logger thread.
    pub sampling_interval: Duration,
    /// The access level granted by the system under test. Level-0
    /// (black-box `/proc` observation) is included in every level, so the
    /// resource monitor runs unless [`Self::sysmon`] is `None`.
    pub level: EvaluationLevel,
    /// Level-0 resource monitor configuration; `None` disables it.
    pub sysmon: Option<SamplerConfig>,
    /// Level-2 event tracer. When set, the pipeline stamps
    /// [`Stage::ReaderDequeue`], [`Stage::PacedEmit`] and
    /// [`Stage::SinkWrite`] tracepoints for sampled graph events, so the
    /// replay pipeline's internal latencies can be broken down per stage.
    pub tracer: Option<Tracer>,
    /// Experiment watchdog; `None` runs unguarded. When set, the session
    /// carries the watchdog's abort flag and the outcome's
    /// [`FileRunOutcome::status`] reports whether the run was cut short.
    pub watchdog: Option<WatchdogConfig>,
    /// Live fault injection; `None` runs clean. When set, the sink is
    /// wrapped in a [`ChaosSink`] and the journal's fault/recovery events
    /// land in the merged log under the `chaos` source.
    pub chaos: Option<ChaosPlan>,
    /// Multi-client traffic layer; `None` replays single-sink. The load
    /// path materializes the stream file first (substream partitioning
    /// needs the whole stream), so a file plan with load behaves like the
    /// in-memory path — see [`crate::load::run_load_file_sut_experiment`].
    pub load: Option<gt_load::LoadPlan>,
    /// Deterministic network fault injection; `None` runs on a clean
    /// path. Honored by the SUT runners (see [`RunPlan::netem`]).
    pub netem: Option<gt_netem::NetemPlan>,
}

impl FileRunPlan {
    /// A plan replaying `path` at `target_rate`, no extra loggers, at
    /// Level 0 with the default resource monitor and no tracer.
    pub fn new(path: impl Into<PathBuf>, target_rate: f64) -> Self {
        FileRunPlan {
            path: path.into(),
            session: ReplaySessionConfig {
                replayer: ReplayerConfig {
                    target_rate,
                    ..Default::default()
                },
                ..Default::default()
            },
            loggers: Vec::new(),
            sampling_interval: Duration::from_millis(100),
            level: EvaluationLevel::Level0,
            sysmon: Some(SamplerConfig::default()),
            tracer: None,
            watchdog: None,
            chaos: None,
            load: None,
            netem: None,
        }
    }

    /// Adds a logger (builder style).
    #[must_use]
    pub fn with_logger(mut self, logger: Box<dyn MetricsLogger>) -> Self {
        self.loggers.push(logger);
        self
    }

    /// Attaches a multi-client load plan (builder style).
    #[must_use]
    pub fn with_load(mut self, load: gt_load::LoadPlan) -> Self {
        self.load = Some(load);
        self
    }

    /// Arms deterministic network fault injection (builder style).
    #[must_use]
    pub fn with_netem(mut self, netem: gt_netem::NetemPlan) -> Self {
        self.netem = Some(netem);
        self
    }

    /// Sets the reader→emitter channel capacity (builder style).
    #[must_use]
    pub fn with_buffer(mut self, entries: usize) -> Self {
        self.session.buffer = entries;
        self
    }

    /// Sets the evaluation level (builder style).
    #[must_use]
    pub fn at_level(mut self, level: EvaluationLevel) -> Self {
        self.level = level;
        self
    }

    /// Replaces the Level-0 monitor configuration (builder style).
    #[must_use]
    pub fn with_sysmon(mut self, config: SamplerConfig) -> Self {
        self.sysmon = Some(config);
        self
    }

    /// Attaches a Level-2 event tracer (builder style).
    #[must_use]
    pub fn with_tracer(mut self, tracer: &Tracer) -> Self {
        self.tracer = Some(tracer.clone());
        self
    }

    /// Arms the experiment watchdog (builder style).
    #[must_use]
    pub fn with_watchdog(mut self, config: WatchdogConfig) -> Self {
        self.watchdog = Some(config);
        self
    }

    /// Arms live chaos injection (builder style).
    #[must_use]
    pub fn with_chaos(mut self, chaos: ChaosPlan) -> Self {
        self.chaos = Some(chaos);
        self
    }
}

/// The outputs of one file-backed run.
#[derive(Debug)]
pub struct FileRunOutcome {
    /// Streaming metrics plus per-stage pipeline health.
    pub report: SessionReport,
    /// The merged result log: logger samples, pipeline stage samples,
    /// replayer markers, ingress-rate series, and sink
    /// disconnect/reconnect events.
    pub log: ResultLog,
    /// Whether the run completed or the watchdog aborted it. An abort is
    /// also recorded in the log (source `watchdog`, metric `abort`).
    pub status: RunStatus,
}

/// Executes one file-backed run through [`ReplaySession`]: parses and
/// paces `plan.path` into `sink` while a background thread samples the
/// pipeline's stage metrics (queue depth, stalls, emit latency) and any
/// extra loggers. Sink disconnect/reconnect events land in the merged log
/// under source `sink`.
pub fn run_file_experiment<S: EventSink>(
    plan: FileRunPlan,
    sink: &mut S,
) -> Result<FileRunOutcome, ReplayError> {
    run_file_experiment_with_clock(plan, sink, Arc::new(WallClock::start()))
}

/// [`run_file_experiment`] against a caller-supplied clock — the
/// file-backed primitive of the SUT runner
/// ([`crate::sut::run_file_sut_experiment`]).
pub fn run_file_experiment_with_clock<S: EventSink + ?Sized>(
    plan: FileRunPlan,
    sink: &mut S,
    clock: Arc<dyn Clock>,
) -> Result<FileRunOutcome, ReplayError> {
    let hub = MetricsHub::new();
    let sysmon = spawn_sysmon(plan.level, &plan.sysmon, &clock, Some(&hub));
    let mut loggers = plan.loggers;
    loggers.push(Box::new(HubSampler::new(
        hub.clone(),
        Arc::clone(&clock),
        "pipeline",
    )));
    let sampler = spawn_sampler(loggers, plan.sampling_interval);

    let abort = Arc::new(AtomicBool::new(false));
    // The session's replayer counts emitted graph events into the
    // pipeline hub; the watchdog watches the very same counter.
    let watchdog = plan
        .watchdog
        .clone()
        .map(|config| spawn_watchdog(config, hub.counter("ingress_events"), Arc::clone(&abort)));

    let mut session = ReplaySession::new(plan.session)
        .with_clock(Arc::clone(&clock))
        .with_hub(hub);
    if watchdog.is_some() {
        session = session.with_abort_flag(Arc::clone(&abort));
    }
    if let Some(tracer) = &plan.tracer {
        session = session.with_tracer(tracer);
    }
    let result = match &plan.chaos {
        Some(chaos) => {
            let mut chaos_sink = ChaosSink::new(
                &mut *sink,
                &chaos.schedule,
                chaos.journal.clone(),
                Arc::clone(&clock),
            );
            if let Some(supervisor) = &chaos.supervisor {
                chaos_sink = chaos_sink.with_supervisor(Arc::clone(supervisor));
            }
            session.run(&plan.path, &mut chaos_sink)
        }
        None => session.run(&plan.path, sink),
    };

    let sampled = join_sampler(sampler, &clock);
    let resource = sysmon_records(sysmon, &plan.sysmon, &clock);
    let (status, abort_records) = finish_watchdog(watchdog, &clock);
    let report = result?;

    let sink_records: Vec<MetricRecord> = report
        .sink_events
        .iter()
        .map(|e| {
            let metric = match e.kind {
                SinkEventKind::Disconnected { .. } => "disconnect",
                SinkEventKind::Reconnected { .. } => "reconnect",
            };
            MetricRecord::text(e.t_micros, "sink", metric, e.detail.clone())
        })
        .collect();

    let mut collector = LogCollector::new();
    collector
        .add_records(sampled)
        .add_records(resource)
        .add_records(replay_records(&report.replay))
        .add_records(sink_records)
        .add_records(abort_records);
    if let Some(chaos) = &plan.chaos {
        collector.add_records(chaos.journal.records());
    }
    Ok(FileRunOutcome {
        report,
        log: collector.collect(),
        status,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_metrics::{GaugeSampler, ManualClock};
    use gt_replayer::CollectSink;

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
    fn sampler_stops_promptly_and_still_takes_the_final_sample() {
        let clock: Arc<dyn Clock> = Arc::new(ManualClock::new());
        let probe = GaugeSampler::new(Arc::clone(&clock), "probe", "answer", || Some(42.0));
        let sampler = spawn_sampler(vec![Box::new(probe)], Duration::from_millis(500));
        // Long enough for the first sample, far shorter than the interval.
        std::thread::sleep(Duration::from_millis(50));
        let stopping = std::time::Instant::now();
        let records = join_sampler(sampler, &clock);
        let took = stopping.elapsed();
        assert!(took < Duration::from_millis(50), "stop-to-joined {took:?}");
        assert_eq!(records.len(), 2, "the first and the final sample");
    }

    #[test]
    fn run_produces_merged_log() {
        let clock: Arc<dyn Clock> = Arc::new(ManualClock::new());
        let probe_clock = Arc::clone(&clock);
        let plan = RunPlan::new(stream(2_000), 50_000.0).with_logger(Box::new(GaugeSampler::new(
            probe_clock,
            "probe",
            "answer",
            || Some(42.0),
        )));
        let mut sink = CollectSink::new();
        let outcome = run_experiment(plan, &mut sink).unwrap();

        assert_eq!(outcome.report.graph_events, 2_000);
        assert!(outcome.log.marker("stream-end").is_some());
        // The probe sampled at least twice (startup + final flush).
        assert!(outcome.log.series("probe", "answer").len() >= 2);
        // The log is sorted.
        let ts: Vec<u64> = outcome.log.records().iter().map(|r| r.t_micros).collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted);
        // Ingress rate records exist.
        assert!(!outcome.log.series("replayer", "ingress_rate").is_empty());
    }

    #[test]
    fn file_run_merges_pipeline_metrics() {
        let dir = std::env::temp_dir().join("gt-harness-file-run-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.csv");
        let mut content = String::new();
        for i in 0..3_000 {
            content.push_str(&format!("ADD_VERTEX,{i},\n"));
        }
        content.push_str("MARKER,stream-end,\n");
        std::fs::write(&path, content).unwrap();

        let plan = FileRunPlan::new(&path, 100_000.0).with_buffer(256);
        let mut sink = CollectSink::new();
        let outcome = run_file_experiment(plan, &mut sink).unwrap();

        assert_eq!(outcome.report.replay.graph_events, 3_000);
        assert_eq!(outcome.report.entries_read, 3_001);
        assert_eq!(outcome.report.emit_latency.count, 3_000);
        assert!(outcome.log.marker("stream-end").is_some());
        assert!(!outcome.log.series("replayer", "ingress_rate").is_empty());
        // The auto-registered pipeline sampler recorded stage metrics.
        assert!(!outcome.log.series("pipeline", "ingress_events").is_empty());
        assert!(!outcome.log.series("pipeline", "queue_depth").is_empty());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn file_run_surfaces_parse_errors() {
        let dir = std::env::temp_dir().join("gt-harness-file-run-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broken.csv");
        std::fs::write(&path, "ADD_VERTEX,1,\nBOGUS\n").unwrap();
        let plan = FileRunPlan::new(&path, 100_000.0);
        let mut sink = CollectSink::new();
        assert!(matches!(
            run_file_experiment(plan, &mut sink),
            Err(ReplayError::Source(_))
        ));
        std::fs::remove_file(path).ok();
    }

    /// True when the live `/proc` interface the monitor needs exists
    /// (Linux). Elsewhere the graceful-degradation assertions apply.
    fn proc_available() -> bool {
        std::path::Path::new("/proc/self/stat").exists()
    }

    #[test]
    fn level0_run_produces_resource_series() {
        let plan = RunPlan::new(stream(2_000), 50_000.0)
            .with_sysmon(SamplerConfig::default().every(Duration::from_millis(5)));
        assert_eq!(plan.level, EvaluationLevel::Level0);
        let mut sink = CollectSink::new();
        let outcome = run_experiment(plan, &mut sink).unwrap();
        if proc_available() {
            assert!(!outcome.log.series("sysmon", "rss_bytes").is_empty());
            // cpu_percent needs two ticks; the 5 ms cadence plus the
            // final flush tick guarantees them.
            assert!(!outcome.log.series("sysmon", "cpu_percent").is_empty());
        } else {
            // Off-Linux: empty series plus one typed error record.
            assert!(outcome.log.series("sysmon", "rss_bytes").is_empty());
            assert!(outcome
                .log
                .records()
                .iter()
                .any(|r| r.source == "sysmon" && r.metric == "error"));
        }
    }

    #[test]
    fn file_run_at_level0_produces_cpu_and_rss_series() {
        let dir = std::env::temp_dir().join("gt-harness-file-run-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sysmon-stream.csv");
        let mut content = String::new();
        for i in 0..5_000 {
            content.push_str(&format!("ADD_VERTEX,{i},\n"));
        }
        std::fs::write(&path, content).unwrap();

        let plan = FileRunPlan::new(&path, 100_000.0)
            .at_level(EvaluationLevel::Level0)
            .with_sysmon(SamplerConfig::default().every(Duration::from_millis(5)));
        let mut sink = CollectSink::new();
        let outcome = run_file_experiment(plan, &mut sink).unwrap();
        if proc_available() {
            assert!(!outcome.log.series("sysmon", "cpu_percent").is_empty());
            assert!(!outcome.log.series("sysmon", "rss_bytes").is_empty());
        } else {
            assert!(outcome
                .log
                .records()
                .iter()
                .any(|r| r.source == "sysmon" && r.metric == "error"));
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn sysmon_none_disables_the_monitor() {
        let mut plan = RunPlan::new(stream(200), 100_000.0);
        plan.sysmon = None;
        let mut sink = CollectSink::new();
        let outcome = run_experiment(plan, &mut sink).unwrap();
        assert!(outcome.log.records().iter().all(|r| r.source != "sysmon"));
    }

    #[test]
    fn marker_timestamps_are_monotone() {
        let mut s = stream(100);
        s.push(StreamEntry::marker("late"));
        let plan = RunPlan::new(s, 100_000.0);
        let mut sink = CollectSink::new();
        let outcome = run_experiment(plan, &mut sink).unwrap();
        let markers = &outcome.report.markers;
        assert_eq!(markers.len(), 2);
        assert!(markers[0].1 <= markers[1].1);
    }

    #[test]
    fn unguarded_run_completes() {
        let plan = RunPlan::new(stream(100), 200_000.0);
        let mut sink = CollectSink::new();
        let outcome = run_experiment(plan, &mut sink).unwrap();
        assert_eq!(outcome.status, crate::watchdog::RunStatus::Completed);
        assert!(!outcome.report.aborted);
        assert!(outcome.log.records().iter().all(|r| r.source != "watchdog"));
    }

    #[test]
    fn watchdog_aborts_a_stalled_run_and_salvages_the_log() {
        use crate::watchdog::{AbortReason, RunStatus};
        // A scripted 60 s pause stalls ingress; the watchdog must cut the
        // run short in well under a second and the partial log must still
        // carry everything delivered before the stall.
        let mut s: GraphStream = (0..50)
            .map(|i| {
                StreamEntry::graph(GraphEvent::AddVertex {
                    id: VertexId(i),
                    state: State::empty(),
                })
            })
            .collect();
        s.push(StreamEntry::pause(Duration::from_secs(60)));
        for i in 50..100 {
            s.push(StreamEntry::graph(GraphEvent::AddVertex {
                id: VertexId(i),
                state: State::empty(),
            }));
        }
        let mut plan = RunPlan::new(s, 1_000_000.0).with_watchdog(
            crate::watchdog::WatchdogConfig::stall_after(Duration::from_millis(100))
                .polling_every(Duration::from_millis(5)),
        );
        plan.sysmon = None;

        let started = std::time::Instant::now();
        let mut sink = CollectSink::new();
        let outcome = run_experiment(plan, &mut sink).unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "watchdog failed to cut the pause short"
        );
        assert!(outcome.report.aborted);
        match &outcome.status {
            RunStatus::Aborted(AbortReason::Stalled {
                events_delivered, ..
            }) => assert_eq!(*events_delivered, 50),
            other => panic!("expected a stall abort, got {other:?}"),
        }
        // Everything before the stall was salvaged...
        assert_eq!(outcome.report.graph_events, 50);
        // ...and the abort itself is a typed record in the merged log.
        assert!(outcome
            .log
            .records()
            .iter()
            .any(|r| r.source == "watchdog" && r.metric == "abort"));
    }

    #[test]
    fn watchdog_deadline_cuts_a_slow_run_short() {
        use crate::watchdog::{AbortReason, RunStatus};
        // 10k events at 1k/s would take 10 s; the 150 ms deadline fires
        // even though ingress keeps progressing the whole time.
        let mut plan = RunPlan::new(stream(10_000), 1_000.0).with_watchdog(
            crate::watchdog::WatchdogConfig::stall_after(Duration::from_secs(60))
                .with_deadline(Duration::from_millis(150))
                .polling_every(Duration::from_millis(5)),
        );
        plan.sysmon = None;
        let started = std::time::Instant::now();
        let mut sink = CollectSink::new();
        let outcome = run_experiment(plan, &mut sink).unwrap();
        assert!(started.elapsed() < Duration::from_secs(10));
        assert!(outcome.report.aborted);
        assert!(matches!(
            outcome.status,
            RunStatus::Aborted(AbortReason::DeadlineExceeded { .. })
        ));
        assert!(outcome.report.graph_events < 10_000);
    }

    #[test]
    fn chaos_run_folds_fault_and_recovery_markers_into_the_log() {
        use gt_chaos::FaultSchedule;
        let schedule = FaultSchedule::parse("disconnect@10,lose=5; stall@30,ms=1", 7).unwrap();
        let chaos = ChaosPlan::new(schedule);
        let journal = chaos.journal.clone();
        let mut plan = RunPlan::new(stream(100), 500_000.0).with_chaos(chaos);
        plan.sysmon = None;
        let mut sink = CollectSink::new();
        let outcome = run_experiment(plan, &mut sink).unwrap();
        // The replayer emitted all 100; 5 were lost downstream of it.
        assert_eq!(outcome.report.graph_events, 100);
        let delivered = sink
            .entries
            .iter()
            .filter(|e| matches!(e, StreamEntry::Graph(_)))
            .count();
        assert_eq!(delivered, 95);
        // Fault and recovery markers sit in the merged log under `chaos`.
        let faults: Vec<_> = outcome
            .log
            .records()
            .iter()
            .filter(|r| r.source == gt_chaos::CHAOS_SOURCE && r.metric == "fault")
            .collect();
        assert_eq!(faults.len(), 2);
        assert!(outcome
            .log
            .records()
            .iter()
            .any(|r| r.source == gt_chaos::CHAOS_SOURCE && r.metric == "recovery"));
        // The journal clone the caller kept sees the same events.
        assert_eq!(journal.signature().len(), 4);
    }

    /// A logger that panics on its very first sample — the regression
    /// shape for the old `sampler.join().expect("sampler panicked")`.
    struct PanickingLogger;

    impl MetricsLogger for PanickingLogger {
        fn sample(&mut self) -> Vec<MetricRecord> {
            panic!("deliberate test panic in logger");
        }
        fn source(&self) -> &str {
            "panicking"
        }
    }

    #[test]
    fn panicking_logger_degrades_instead_of_poisoning_the_run() {
        let mut plan = RunPlan::new(stream(200), 200_000.0).with_logger(Box::new(PanickingLogger));
        plan.sysmon = None;
        let mut sink = CollectSink::new();
        let outcome = run_experiment(plan, &mut sink).unwrap();
        // The run itself is unharmed...
        assert_eq!(outcome.report.graph_events, 200);
        assert_eq!(outcome.status, crate::watchdog::RunStatus::Completed);
        // ...and the lost series is explained by a typed degradation
        // record instead of a harness panic.
        assert!(outcome.log.records().iter().any(|r| r.source == "harness"
            && r.metric == "degradation"
            && r.value.to_string().contains("sampler")));
    }

    #[test]
    fn file_run_watchdog_and_chaos_share_the_pipeline() {
        use gt_chaos::FaultSchedule;
        let dir = std::env::temp_dir().join("gt-harness-file-run-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("chaos-stream.csv");
        let mut content = String::new();
        for i in 0..2_000 {
            content.push_str(&format!("ADD_VERTEX,{i},\n"));
        }
        std::fs::write(&path, content).unwrap();

        let chaos = ChaosPlan::new(FaultSchedule::parse("disconnect@100,lose=50", 1).unwrap());
        let plan = FileRunPlan::new(&path, 400_000.0)
            .with_watchdog(crate::watchdog::WatchdogConfig::default())
            .with_chaos(chaos);
        let mut sink = CollectSink::new();
        let outcome = run_file_experiment(plan, &mut sink).unwrap();
        assert_eq!(outcome.status, crate::watchdog::RunStatus::Completed);
        assert_eq!(outcome.report.replay.graph_events, 2_000);
        let delivered = sink
            .entries
            .iter()
            .filter(|e| matches!(e, StreamEntry::Graph(_)))
            .count();
        assert_eq!(delivered, 1_950);
        assert!(outcome
            .log
            .records()
            .iter()
            .any(|r| r.source == gt_chaos::CHAOS_SOURCE && r.metric == "recovery"));
        std::fs::remove_file(path).ok();
    }
}

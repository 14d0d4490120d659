//! The run path: one plan, one target, one [`run`].
//!
//! One run = one stream driven into one target, with every observer
//! sampled on one background thread, and all outputs merged
//! into a single chronologically sorted [`ResultLog`] (Figure 2's data
//! path). A run is described along four independent axes:
//!
//! * **source** ([`Source`]) — an in-memory [`GraphStream`] or a stream
//!   file;
//! * **target** ([`Target`]) — a caller-owned sink, or a platform started
//!   by name from a [`SutRegistry`];
//! * **front** — how entries reach the target: directly (the default),
//!   through the `gt-load` client fleet ([`RunPlan::load`]), or over a TCP
//!   hop the fault proxy can break ([`RunPlan::netem`]);
//! * **observers** — evaluation level, resource monitor, loggers, tracer,
//!   watchdog, chaos.
//!
//! [`run`] fixes the order every combination goes through: start and wire
//! the platform, open the front, start the observers, drive, stop the
//! observers, close the front, wait for the platform to drain, release
//! the stream, shut the platform down, stop the tracer (its summaries
//! sampled once more, so they cover the drain), and collect every record
//! once.
//! Combinations it cannot honour are rejected up front by
//! [`RunPlan::check`] with [`RunError::InvalidInput`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use gt_chaos::{ChaosJournal, ChaosSink, FaultSchedule, CHAOS_SOURCE};
use gt_core::prelude::*;
use gt_load::{LoadOutcome, LoadPlan};
use gt_metrics::hub::Counter;
use gt_metrics::{
    Clock, HubSampler, MetricRecord, MetricsHub, MetricsLogger, ResultLog, WallClock,
};
use gt_netem::{NetemPlan, NETEM_SOURCE};
use gt_replayer::{
    EventSink, ReconnectingTcpSink, ReplayError, ReplayReport, ReplaySession, ReplaySessionConfig,
    ReplayerConfig, SessionReport, SinkEventKind, StreamSource,
};
use gt_sut::{
    EvaluationLevel, StateDigest, SutError, SutOptions, SutRegistry, SutReport, SystemUnderTest,
    WorkerSupervisor,
};
use gt_sysmon::{SamplerConfig, SysmonSampler};
use gt_trace::Tracer;

use crate::load::{drive_clients, load_records};
use crate::netem::{sink_records, start_netem_front, NetemFront};
use crate::sut::{report_records, wire, DEFAULT_QUIESCE_TIMEOUT};
use crate::watchdog::{AbortReason, RunStatus, Watchdog, WatchdogConfig};

/// The source of a run's own records in its log: how it ended
/// (`status`, `quiesced`) and its driver's totals — `graph_events`,
/// `duration_us` and `achieved_rate` of a replay, `offered_rate` and
/// `achieved_rate` of a load front. A replay pipeline's own totals
/// (`entries_read`, `emit_latency_p99_us`) go under its `pipeline`
/// source, beside its stage metrics.
pub(crate) const RUN_SOURCE: &str = "run";

/// The source a replay pipeline's stage metrics are sampled under.
pub(crate) const PIPELINE_SOURCE: &str = "pipeline";

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
    /// The platform's crash/restart surface. A registry target fills this
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
}

/// Where a run's stream comes from: the run owns it, and both fronts read
/// it through the borrowed [`StreamSource`] it lends them — on the
/// replay session's reader thread ([`ReplaySession`]), or in a load
/// front's routing pass ([`gt_load::Router`]).
#[derive(Debug)]
pub enum Source {
    /// An in-memory stream.
    Memory(GraphStream),
    /// A stream file, parsed as it is driven and never materialised.
    File(PathBuf),
}

impl<'a> From<&'a Source> for StreamSource<'a> {
    fn from(source: &'a Source) -> Self {
        match source {
            Source::Memory(stream) => StreamSource::Stream(stream),
            Source::File(path) => StreamSource::File(path),
        }
    }
}

impl From<GraphStream> for Source {
    fn from(stream: GraphStream) -> Self {
        Source::Memory(stream)
    }
}

impl<P: AsRef<Path> + ?Sized> From<&P> for Source {
    fn from(path: &P) -> Self {
        Source::File(path.as_ref().to_owned())
    }
}

/// What a run drives its stream into.
pub enum Target<'a> {
    /// A caller-owned sink. Nothing is started, drained or shut down, and
    /// the outcome carries no platform report.
    Sink(&'a mut dyn EventSink),
    /// The platform registered under a name, started with these options.
    /// The plan's `level` is *requested* access: the effective level is
    /// `min(plan.level, platform level)`, Level 1 adds the platform's
    /// native metrics hub to the sampled loggers, and Level 2 installs a
    /// tracer at its tracepoints. After the stream the platform is
    /// drained ([`RunPlan::quiesce_timeout`]) and shut down; its closing
    /// report lands in the outcome and in the log.
    Sut(&'a SutRegistry, &'a str, &'a SutOptions),
}

/// Everything a single run needs besides its target.
pub struct RunPlan {
    /// The stream to drive.
    pub source: Source,
    /// Replay configuration: pacing (`session.replayer`) and reader
    /// buffering. A load front ignores it — each client paces its own
    /// arrival schedule, and the routing pass has its own bound.
    pub session: ReplaySessionConfig,
    /// Metric loggers sampled during the run (a single-sink run's
    /// pipeline stage metrics are sampled automatically, under
    /// `pipeline`).
    pub loggers: Vec<Box<dyn MetricsLogger>>,
    /// How often the run's observer thread samples the loggers (the plan's
    /// own, and the hub samplers the run adds).
    pub sampling_interval: Duration,
    /// The access level requested. Level-0 (black-box `/proc`
    /// observation) is included in every level, so the resource monitor
    /// runs unless [`Self::sysmon`] is `None`. A load front has no single
    /// replayer to trace: Level 2 there is clamped to Level 1.
    pub level: EvaluationLevel,
    /// Level-0 resource monitor configuration, sampled every
    /// [`SamplerConfig::cadence`] on the observer thread; `None` disables
    /// it.
    pub sysmon: Option<SamplerConfig>,
    /// Level-2 event tracer for the replay side: sampled graph events are
    /// stamped at the reader, paced-emit and sink stages
    /// ([`ReplaySession::with_tracer`]). The caller keeps a clone and calls
    /// [`Tracer::stop`] after the run. A registry target at Level 2
    /// starts, installs and stops its own tracer instead.
    pub tracer: Option<Tracer>,
    /// Experiment watchdog; `None` runs unguarded. When set, the replay
    /// carries the watchdog's abort flag and [`RunOutcome::status`]
    /// reports whether the run was cut short.
    pub watchdog: Option<WatchdogConfig>,
    /// Live fault injection; `None` runs clean. When set, the sink is
    /// wrapped in a [`ChaosSink`] and the journal's fault/recovery events
    /// land in the merged log under the `chaos` source.
    pub chaos: Option<ChaosPlan>,
    /// Multi-client front; `None` drives one sink. When set, the stream
    /// is split across `load.total_connections()` concurrent TCP clients,
    /// each into a platform connector of its own (see [`crate::load`]).
    pub load: Option<LoadPlan>,
    /// Deterministic network fault injection; `None` runs on a clean
    /// path. A single-sink run gets a TCP hop through a
    /// [`gt_netem::NetemProxy`] in front of the platform connector (see
    /// [`crate::netem`]); a load front routes every client through it.
    pub netem: Option<NetemPlan>,
    /// How long a registry target may take to drain its backlog after the
    /// stream ends. A platform still busy then yields `quiesced == false`
    /// while its partial report and sampled metrics are kept as usual.
    pub quiesce_timeout: Duration,
}

impl RunPlan {
    /// A plan driving `source` (a [`GraphStream`] or a path to a stream
    /// file) at `target_rate`: no loggers, Level 0 with the default
    /// resource monitor, direct front, nothing injected.
    pub fn new(source: impl Into<Source>, target_rate: f64) -> Self {
        RunPlan {
            source: source.into(),
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
            quiesce_timeout: DEFAULT_QUIESCE_TIMEOUT,
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
    pub fn with_load(mut self, load: LoadPlan) -> Self {
        self.load = Some(load);
        self
    }

    /// Sets the reader→emitter queue capacity of a single-sink run
    /// (builder style).
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
    pub fn with_netem(mut self, netem: NetemPlan) -> Self {
        self.netem = Some(netem);
        self
    }

    /// Rejects a combination [`run`] cannot honour, naming the field —
    /// nothing a plan asks for is dropped silently. `run` calls this
    /// first; callers planning many runs call it to fail before the
    /// first one starts.
    pub fn check(&self, target: &Target<'_>) -> Result<(), RunError> {
        let bare = matches!(target, Target::Sink(_));
        let load = self.load.as_ref();
        let rules = [
            (
                bare && load.is_some(),
                "load",
                "needs a platform to build one connector per client; the target is a bare sink",
            ),
            (
                bare && self.netem.is_some(),
                "netem",
                "needs a platform connector to put the TCP hop in front of; the target is a bare sink",
            ),
            (
                load.is_some() && self.chaos.is_some(),
                "chaos",
                "is injected at a single sink; a load front has one connector per client",
            ),
            (
                load.is_some() && self.watchdog.is_some(),
                "watchdog",
                "watches a single replayer's ingress; a load front's clients pace themselves",
            ),
            (
                load.is_some() && self.tracer.is_some(),
                "tracer",
                "stamps a single replayer's emits; a load front has none",
            ),
            (
                load.is_some_and(|load| load.netem.is_some()) && self.netem.is_some(),
                "netem",
                "is set on the run plan and on its load plan; set one",
            ),
        ];
        match rules.into_iter().find(|(broken, ..)| *broken) {
            Some((_, field, reason)) => Err(RunError::InvalidInput { field, reason }),
            None => Ok(()),
        }
    }
}

/// What can go wrong in a run.
#[derive(Debug)]
pub enum RunError {
    /// The plan asks for a combination the run path cannot honour (see
    /// [`RunPlan::check`]).
    InvalidInput {
        /// The plan field that cannot be honoured.
        field: &'static str,
        /// Why not.
        reason: &'static str,
    },
    /// Unknown platform name, or the platform failed to start.
    Sut(SutError),
    /// The drive itself failed (sink error, unreadable or malformed
    /// stream file, a front that could not be opened, …).
    Replay(ReplayError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::InvalidInput { field, reason } => {
                write!(f, "invalid run plan: `{field}` {reason}")
            }
            RunError::Sut(e) => write!(f, "system under test: {e}"),
            RunError::Replay(e) => write!(f, "replay: {e}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::InvalidInput { .. } => None,
            RunError::Sut(e) => Some(e),
            RunError::Replay(e) => Some(e),
        }
    }
}

impl From<SutError> for RunError {
    fn from(e: SutError) -> Self {
        RunError::Sut(e)
    }
}

impl From<ReplayError> for RunError {
    fn from(e: ReplayError) -> Self {
        RunError::Replay(e)
    }
}

impl From<std::io::Error> for RunError {
    fn from(e: std::io::Error) -> Self {
        RunError::Replay(ReplayError::from_sink_error(e))
    }
}

/// What drove a run, with that driver's own report.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one per run, never stored in bulk
pub enum Driver {
    /// The replay pipeline: the replayer's report plus per-stage health.
    Session(SessionReport),
    /// The client fleet: per-client counts and sojourns, and the
    /// listener's marker log.
    Load(LoadOutcome),
}

/// The outputs of one run.
#[derive(Debug)]
pub struct RunOutcome {
    /// The merged result log, sorted once: logger and resource samples,
    /// the driver's records (replayer markers and ingress rate, sink
    /// disconnect/reconnect events, or the load records of
    /// [`crate::load`]), chaos and netem journals, the platform's closing
    /// report and the tracer's stage-pair latencies.
    pub log: ResultLog,
    /// Whether the run completed or the watchdog aborted it. An abort is
    /// also recorded in the log (source `watchdog`, metric `abort`).
    pub status: RunStatus,
    /// What drove the run.
    pub driver: Driver,
    /// The platform's closing report (also in the log, under the
    /// platform's name); `None` for a bare sink.
    pub report: Option<SutReport>,
    /// Whether the platform drained within the quiesce timeout. A `false`
    /// here is itself a finding — the paper's Figure 3d system keeps
    /// computing long after the stream has ended. A bare sink has no
    /// backlog the harness could wait on and reports `true`.
    pub quiesced: bool,
    /// The platform's final-state digest, present only when the platform
    /// was started with its `digest=1` option — the raw material of the
    /// serial-vs-sharded differential harness ([`crate::differential`]).
    /// A load front merges substreams in a nondeterministic order, so its
    /// digests only compare across runs for order-insensitive streams.
    pub digest: Option<StateDigest>,
}

impl RunOutcome {
    /// The replayer's streaming metrics.
    ///
    /// # Panics
    /// When a load front drove the run: there was no replayer.
    pub fn replay(&self) -> &ReplayReport {
        &self.session().replay
    }

    /// The replay pipeline's report.
    ///
    /// # Panics
    /// When a load front drove the run: there was no replayer.
    pub fn session(&self) -> &SessionReport {
        match &self.driver {
            Driver::Session(report) => report,
            Driver::Load(_) => panic!("a load front has no replay report"),
        }
    }

    /// Both sides' raw reports of the client fleet.
    ///
    /// # Panics
    /// When the plan carried no load front.
    pub fn load(&self) -> &LoadOutcome {
        match &self.driver {
            Driver::Load(load) => load,
            _ => panic!("the run had no load front"),
        }
    }

    /// The platform's closing report.
    ///
    /// # Panics
    /// When the target was a bare sink.
    pub fn sut_report(&self) -> &SutReport {
        self.report
            .as_ref()
            .expect("a bare sink has no platform report")
    }
}

/// An observer's period and its next due time, run-clock microseconds.
struct Every {
    period: u64,
    due: u64,
}

impl Every {
    /// Due at once, then every `period`.
    fn new(period: Duration) -> Self {
        Every {
            period: period.as_micros().max(1) as u64,
            due: 0,
        }
    }

    /// Whether the observer is due at `now`. If it is, its next due time
    /// moves one period on, or one period past `now` when the loop fell a
    /// whole period behind, so a late wake-up never samples twice in a row.
    fn fire(&mut self, now: u64) -> bool {
        if now < self.due {
            return false;
        }
        self.due += self.period;
        if self.due <= now {
            self.due = now + self.period;
        }
        true
    }
}

/// The watchdog as the observer loop runs it: checked every poll interval
/// against the replayer's ingress counter, raising the replay's abort flag
/// when it fires.
struct Guard {
    every: Every,
    watchdog: Watchdog,
    progress: Counter,
    abort: Arc<AtomicBool>,
}

impl Guard {
    fn watch(&mut self, now: u64) -> Option<AbortReason> {
        if !self.every.fire(now) {
            return None;
        }
        let reason = self.watchdog.check(now, self.progress.get())?;
        self.abort.store(true, Ordering::Relaxed);
        Some(reason)
    }
}

/// The run's one observer thread and the flag that ends it.
struct Observers {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<(Vec<MetricRecord>, RunStatus)>,
}

impl Observers {
    /// Starts the thread that runs [`observe`].
    fn start(
        loggers: Vec<(Every, Box<dyn MetricsLogger>)>,
        guard: Option<Guard>,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("gt-observers".into())
            .spawn(move || observe(loggers, guard, &*clock, &stopped))
            .expect("spawn gt-observers thread");
        Observers { stop, thread }
    }

    /// Ends the thread's wait at once, lets it take one final sample of
    /// every logger so the log covers the run end, and returns everything
    /// it recorded with the watchdog's verdict.
    fn stop(self) -> (Vec<MetricRecord>, RunStatus) {
        self.stop.store(true, Ordering::Release);
        self.thread.thread().unpark();
        let observed = self.thread.join();
        observed.expect("the observer loop contains its loggers' panics")
    }
}

/// The observer loop. On each wake-up it checks the watchdog first (until
/// it fires; its abort becomes a `watchdog/abort` record), then samples
/// every logger that is due, then parks until the earliest due time or
/// until `stop`, after which it samples every logger once more and
/// returns. A logger that panics is dropped with one `harness/degradation`
/// record naming it; the others keep sampling.
fn observe(
    mut loggers: Vec<(Every, Box<dyn MetricsLogger>)>,
    mut guard: Option<Guard>,
    clock: &dyn Clock,
    stop: &AtomicBool,
) -> (Vec<MetricRecord>, RunStatus) {
    let mut records = Vec::new();
    let mut status = RunStatus::Completed;
    // Read after each wait, so every logger is sampled at least twice:
    // once at the start and once at the stop.
    let mut stopping = false;
    loop {
        let now = clock.now_micros();
        let watched = guard.as_mut().filter(|_| !stopping);
        if let Some(reason) = watched.and_then(|guard| guard.watch(now)) {
            let text = reason.to_string();
            records.push(MetricRecord::text(now, "watchdog", "abort", text));
            status = RunStatus::Aborted(reason);
            guard = None;
        }
        loggers.retain_mut(|(every, logger)| {
            if !stopping && !every.fire(now) {
                return true;
            }
            let Ok(sampled) = catch_unwind(AssertUnwindSafe(|| logger.sample())) else {
                let source = logger.source();
                let why = format!("observer `{source}` panicked; its series stops here");
                let t = clock.now_micros();
                records.push(MetricRecord::text(t, "harness", "degradation", why));
                return false;
            };
            records.extend(sampled);
            true
        });
        if stopping {
            return (records, status);
        }
        // With nothing left to observe, the wait runs until `stop`.
        let dues = loggers.iter().map(|(every, _)| every.due);
        let due = dues.chain(guard.iter().map(|guard| guard.every.due)).min();
        let wait = due.unwrap_or(u64::MAX).saturating_sub(clock.now_micros());
        std::thread::park_timeout(Duration::from_micros(wait));
        stopping = stop.load(Ordering::Acquire);
    }
}

/// Replayer marker and ingress-rate records for the merged log.
pub fn replay_records(report: &ReplayReport) -> Vec<MetricRecord> {
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

/// The driver's own records: replayer markers and ingress rate, plus the
/// pipeline's sink disconnect/reconnect events under `sink`, or the
/// client fleet's records (see [`crate::load`]).
fn driver_records(driver: &Driver, load: Option<&LoadPlan>, t_end: u64) -> Vec<MetricRecord> {
    match (driver, load) {
        (Driver::Session(report), _) => {
            let mut records = replay_records(&report.replay);
            records.extend(report.sink_events.iter().map(|e| {
                let metric = match e.kind {
                    SinkEventKind::Disconnected { .. } => "disconnect",
                    SinkEventKind::Reconnected { .. } => "reconnect",
                };
                MetricRecord::text(e.t_micros, "sink", metric, e.detail.clone())
            }));
            records
        }
        (Driver::Load(outcome), Some(plan)) => load_records(outcome, plan, t_end),
        (Driver::Load(_), None) => unreachable!("only a load plan yields a load driver"),
    }
}

/// The run's own records under [`RUN_SOURCE`], a fixed handful per run.
fn run_records(driver: &Driver, status: &RunStatus, drained: bool, t: u64) -> Vec<MetricRecord> {
    let text = |metric, value: String| MetricRecord::text(t, RUN_SOURCE, metric, value);
    let mut records = vec![
        text("status", status.to_string()),
        text("quiesced", drained.to_string()),
    ];
    let mut number = |source, metric, value: f64| {
        records.push(MetricRecord::float(t, source, metric, value));
    };
    let replay = match driver {
        Driver::Session(session) => {
            number(PIPELINE_SOURCE, "entries_read", session.entries_read as f64);
            let p99 = session.emit_latency.quantile_upper_bound(0.99);
            number(PIPELINE_SOURCE, "emit_latency_p99_us", p99 as f64);
            &session.replay
        }
        Driver::Load(load) => {
            number(RUN_SOURCE, "offered_rate", load.offered_rate());
            number(RUN_SOURCE, "achieved_rate", load.achieved_rate());
            return records;
        }
    };
    number(RUN_SOURCE, "graph_events", replay.graph_events as f64);
    number(RUN_SOURCE, "duration_us", replay.duration_micros as f64);
    number(RUN_SOURCE, "achieved_rate", replay.achieved_rate);
    records
}

/// The open path from the driver to the target.
#[allow(clippy::large_enum_variant)] // one per run, never stored in bulk
enum Front<'a> {
    /// The caller's own sink.
    Sink(&'a mut dyn EventSink),
    /// The platform's connector, in process.
    Connector(Box<dyn EventSink + Send>),
    /// A TCP hop the fault proxy can break: reconnecting sink → proxy →
    /// bridge → the platform's connector (see [`crate::netem`]).
    Netem(ReconnectingTcpSink, NetemFront, ChaosJournal),
    /// One TCP client per connection, each into a platform connector the
    /// load layer's listener builds on accept.
    Clients,
}

impl Front<'_> {
    /// Builds the single platform connector, behind the netem hop when
    /// the plan carries a schedule.
    fn connect(
        sut: &mut dyn SystemUnderTest,
        netem: Option<NetemPlan>,
        clock: &Arc<dyn Clock>,
    ) -> Result<Self, RunError> {
        let connector = sut.connector()?;
        let Some(netem) = netem else {
            return Ok(Front::Connector(connector));
        };
        let (sink, front) = start_netem_front(&netem, connector, Arc::clone(clock))?;
        Ok(Front::Netem(sink, front, netem.journal))
    }

    /// The one sink a replay writes to; `None` for the client fleet.
    fn sink(&mut self) -> Option<&mut dyn EventSink> {
        match self {
            Front::Sink(sink) => Some(&mut **sink),
            Front::Connector(connector) => Some(&mut **connector),
            Front::Netem(sink, ..) => Some(sink),
            Front::Clients => None,
        }
    }

    /// Closes the path, so the platform sees end-of-stream before it is
    /// asked to drain: the connector is dropped — directly, or by the
    /// bridge thread joining. Returns the netem hop's records: the sink's
    /// per-cause disconnect counts, the proxy's and bridge's counters,
    /// and the fault journal under the `netem` source.
    fn close(self, clock: &Arc<dyn Clock>) -> Result<Vec<MetricRecord>, RunError> {
        let Front::Netem(sink, front, journal) = self else {
            return Ok(Vec::new());
        };
        let mut records = sink_records(&sink, clock.now_micros());
        // Dropping the sink closes the client socket; the in-flight proxy
        // connection drains to EOF before the front honors its stop flag.
        drop(sink);
        records.extend(front.finish()?.records(clock.now_micros()));
        records.extend(journal.records(NETEM_SOURCE));
        Ok(records)
    }
}

/// Paces `source` into `sink` through the run's session — through the
/// chaos sink when the plan injects live faults.
fn replay(
    session: &ReplaySession,
    source: &Source,
    sink: &mut dyn EventSink,
    chaos: Option<&ChaosPlan>,
    clock: Arc<dyn Clock>,
) -> Result<Driver, RunError> {
    let mut chaos_sink;
    let sink: &mut dyn EventSink = match chaos {
        Some(chaos) => {
            chaos_sink = ChaosSink::new(sink, &chaos.schedule, chaos.journal.clone(), clock);
            if let Some(supervisor) = &chaos.supervisor {
                chaos_sink = chaos_sink.with_supervisor(Arc::clone(supervisor));
            }
            &mut chaos_sink
        }
        None => sink,
    };
    Ok(Driver::Session(session.run(source, sink)?))
}

/// Executes one run: drives `plan.source` into `target` through the
/// plan's front while the plan's observers watch, and merges everything
/// they recorded into one log. See the module docs for the fixed order
/// and [`RunPlan::check`] for the combinations that are refused.
///
/// Marker, sample and report timestamps share one run clock, created
/// here. Once a registry target has started there is one way out:
/// whatever fails, the platform is drained and shut down, and a tracer
/// the run started is stopped, before the error is returned.
pub fn run(plan: RunPlan, target: Target<'_>) -> Result<RunOutcome, RunError> {
    plan.check(&target)?;
    let RunPlan {
        source,
        session,
        mut loggers,
        sampling_interval,
        mut level,
        sysmon,
        mut tracer,
        watchdog,
        mut chaos,
        mut load,
        mut netem,
        quiesce_timeout,
    } = plan;
    if let Some(load) = &mut load {
        // The clients dial through the fault proxy; the load runner
        // stands it up.
        load.netem = load.netem.take().or(netem.take());
        level = level.min(EvaluationLevel::Level1);
    }

    let clock: Arc<dyn Clock> = Arc::new(WallClock::start());
    let mut own_tracer = None;
    let (mut sut, front) = match target {
        Target::Sink(sink) => (None, Ok(Front::Sink(sink))),
        Target::Sut(registry, name, options) => {
            let mut sut = registry.start(name, options)?;
            own_tracer = wire(sut.as_mut(), level, &mut loggers, &mut chaos, &clock);
            tracer = own_tracer.as_ref().map(|own| own.tracer.clone()).or(tracer);
            let front = match &load {
                Some(_) => Ok(Front::Clients),
                None => Front::connect(sut.as_mut(), netem, &clock),
            };
            (Some(sut), front)
        }
    };

    let hub = MetricsHub::new();
    let abort = Arc::new(AtomicBool::new(false));
    // Built before the observers start, so their first sample already
    // lists every pipeline series.
    let mut session = ReplaySession::new(session)
        .with_clock(Arc::clone(&clock))
        .with_hub(hub.clone());
    if watchdog.is_some() {
        session = session.with_abort_flag(Arc::clone(&abort));
    }
    if let Some(tracer) = &tracer {
        session = session.with_tracer(tracer);
    }
    // A load front routes the stream itself: no replay pipeline, no stages.
    let pipeline = load.is_none();
    if pipeline {
        let stages = HubSampler::new(hub.clone(), Arc::clone(&clock), PIPELINE_SOURCE);
        loggers.push(Box::new(stages));
    }
    let mut observers: Vec<(Every, Box<dyn MetricsLogger>)> = loggers
        .into_iter()
        .map(|logger| (Every::new(sampling_interval), logger))
        .collect();
    if let Some(config) = sysmon {
        let every = Every::new(config.cadence);
        let mut monitor = SysmonSampler::new(config, Arc::clone(&clock));
        if pipeline {
            monitor = monitor.with_hub(&hub);
        }
        observers.push((every, Box::new(monitor)));
    }
    let guard = watchdog.map(|config| Guard {
        every: Every::new(config.poll_interval),
        watchdog: Watchdog::new(config, clock.now_micros()),
        progress: hub.counter("ingress_events"),
        abort: Arc::clone(&abort),
    });
    let observers = Observers::start(observers, guard, Arc::clone(&clock));

    let driven = front.map(|mut front| {
        let driven = match (front.sink(), &load) {
            (Some(sink), _) => replay(&session, &source, sink, chaos.as_ref(), Arc::clone(&clock)),
            (None, Some(load)) => drive_clients(&source, load, &mut sut, &clock).map(Driver::Load),
            (None, None) => unreachable!("a load front has a load plan"),
        };
        (driven, front)
    });

    let (observed, status) = observers.stop();
    let driven = driven.and_then(|(driven, front)| {
        let closed = front.close(&clock);
        Ok((driven?, closed?))
    });
    let quiesced = sut.as_mut().is_none_or(|sut| sut.quiesce(quiesce_timeout));

    // The window is over. The stream goes first, so the platform's
    // shutdown and the record collect do not peak on top of it.
    drop(source);
    let (report, digest) = match sut.map(SystemUnderTest::shutdown_digest) {
        Some((report, digest)) => (Some(report), digest),
        None => (None, None),
    };
    let t_closed = clock.now_micros();
    let traced = own_tracer.map_or_else(Vec::new, |own| own.stop(&clock));
    let (driver, front_records) = driven?;

    let driven = driver_records(&driver, load.as_ref(), clock.now_micros());
    let mut records = observed;
    records.extend(driven);
    if let Some(chaos) = &chaos {
        records.extend(chaos.journal.records(CHAOS_SOURCE));
    }
    if let Some(report) = &report {
        records.extend(report_records(report, t_closed));
    }
    records.extend(traced);
    records.extend(front_records);
    records.extend(run_records(&driver, &status, quiesced, t_closed));
    Ok(RunOutcome {
        log: ResultLog::from_records(records),
        status,
        driver,
        report,
        quiesced,
        digest,
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
    fn observers_stop_promptly_and_still_take_the_final_sample() {
        let clock: Arc<dyn Clock> = Arc::new(WallClock::start());
        let probe = GaugeSampler::new(Arc::clone(&clock), "probe", "answer", || Some(42.0));
        let every = Every::new(Duration::from_millis(500));
        let observers = Observers::start(vec![(every, Box::new(probe))], None, clock);
        // Long enough for the first sample, far shorter than the period.
        std::thread::sleep(Duration::from_millis(50));
        let stopping = std::time::Instant::now();
        let (records, status) = observers.stop();
        let took = stopping.elapsed();
        assert!(took < Duration::from_millis(50), "stop-to-joined {took:?}");
        assert_eq!(records.len(), 2, "the first and the final sample");
        assert_eq!(status, RunStatus::Completed);
    }

    #[test]
    fn each_observer_keeps_its_own_period() {
        // The loop wakes at the earliest due time, here every 2 ms: the
        // 20 ms observer fires on every tenth wake-up, not on each.
        let wakes: Vec<u64> = (0..50).map(|i| i * 2_000).collect();
        let fired = |mut every: Every| wakes.iter().filter(|&&now| every.fire(now)).count();
        assert_eq!(fired(Every::new(Duration::from_millis(2))), 50);
        assert_eq!(fired(Every::new(Duration::from_millis(20))), 5);
        // A wake-up more than a period late fires once, and the next due
        // time is a period after it, not a burst of catch-up samples.
        let mut late = Every::new(Duration::from_millis(20));
        let fires: Vec<bool> = [0, 65_000, 70_000, 84_999, 85_000]
            .into_iter()
            .map(|now| late.fire(now))
            .collect();
        assert_eq!(fires, [true, true, false, false, true]);
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
        let outcome = run(plan, Target::Sink(&mut sink)).unwrap();

        assert_eq!(outcome.replay().graph_events, 2_000);
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

        let plan = RunPlan::new(&path, 100_000.0).with_buffer(256);
        let mut sink = CollectSink::new();
        let outcome = run(plan, Target::Sink(&mut sink)).unwrap();

        assert_eq!(outcome.replay().graph_events, 3_000);
        assert_eq!(outcome.session().entries_read, 3_001);
        assert_eq!(outcome.session().emit_latency.count, 3_000);
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
        let plan = RunPlan::new(&path, 100_000.0);
        let mut sink = CollectSink::new();
        assert!(matches!(
            run(plan, Target::Sink(&mut sink)),
            Err(RunError::Replay(ReplayError::Source(_)))
        ));
        // The same error on every front: through a platform's single
        // connector, and from the load front's up-front read of the file.
        let mut registry = SutRegistry::new();
        tide_store::sut::register(&mut registry);
        let options = SutOptions::new();
        let load = LoadPlan::single(2, 100_000.0, gt_load::LoopModel::Open, 1);
        for plan in [
            RunPlan::new(&path, 100_000.0),
            RunPlan::new(&path, 100_000.0).with_load(load),
        ] {
            assert!(matches!(
                run(plan, Target::Sut(&registry, "tide-store", &options)),
                Err(RunError::Replay(ReplayError::Source(_)))
            ));
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn a_combination_the_run_path_cannot_honour_is_refused_by_field() {
        use gt_netem::NetemSchedule;
        let registry = SutRegistry::new();
        let options = SutOptions::new();
        let load = || LoadPlan::single(2, 1_000.0, gt_load::LoopModel::Open, 1);
        let netem = || NetemPlan::new(NetemSchedule::parse("delay@0ms,ms=1", 1).unwrap());
        let chaos = || ChaosPlan::new(FaultSchedule::parse("stall@1,ms=1", 1).unwrap());
        let plan = || RunPlan::new(stream(10), 1_000.0);
        let refused = |plan: RunPlan, bare: bool| {
            let mut sink = CollectSink::new();
            let target = if bare {
                Target::Sink(&mut sink)
            } else {
                Target::Sut(&registry, "never-started", &options)
            };
            match run(plan, target) {
                Err(RunError::InvalidInput { field, .. }) => field,
                other => panic!("expected a refused plan, got {other:?}"),
            }
        };
        // A bare sink has no platform to stand a TCP front before.
        assert_eq!(refused(plan().with_load(load()), true), "load");
        assert_eq!(refused(plan().with_netem(netem()), true), "netem");
        // A load front has no single sink, replayer or connector.
        let loaded = || plan().with_load(load());
        assert_eq!(refused(loaded().with_chaos(chaos()), false), "chaos");
        let guarded = loaded().with_watchdog(WatchdogConfig::default());
        assert_eq!(refused(guarded, false), "watchdog");
        let mut traced = loaded();
        let clock: Arc<dyn Clock> = Arc::new(gt_metrics::ManualClock::new());
        let tracer = Tracer::new(Default::default(), clock, &MetricsHub::new());
        traced.tracer = Some(tracer.clone());
        assert_eq!(refused(traced, false), "tracer");
        tracer.stop();
        let mut twice = loaded().with_netem(netem());
        twice.load.as_mut().unwrap().netem = Some(netem());
        assert_eq!(refused(twice, false), "netem");
        // Refused plans name the field in their message too.
        let error = run(
            loaded().with_chaos(chaos()),
            Target::Sut(&registry, "x", &options),
        );
        assert!(error.unwrap_err().to_string().contains("`chaos`"));
    }

    /// True when the live `/proc` interface the monitor needs exists
    /// (Linux). Elsewhere the graceful-degradation assertions apply.
    fn proc_available() -> bool {
        std::path::Path::new("/proc/self/stat").exists()
    }

    #[test]
    fn level0_run_produces_resource_series() {
        let mut plan = RunPlan::new(stream(2_000), 50_000.0);
        plan.sysmon = Some(SamplerConfig::default().every(Duration::from_millis(5)));
        assert_eq!(plan.level, EvaluationLevel::Level0);
        let mut sink = CollectSink::new();
        let outcome = run(plan, Target::Sink(&mut sink)).unwrap();
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

        let mut plan = RunPlan::new(&path, 100_000.0).at_level(EvaluationLevel::Level0);
        plan.sysmon = Some(SamplerConfig::default().every(Duration::from_millis(5)));
        let mut sink = CollectSink::new();
        let outcome = run(plan, Target::Sink(&mut sink)).unwrap();
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
        let outcome = run(plan, Target::Sink(&mut sink)).unwrap();
        assert!(outcome.log.records().iter().all(|r| r.source != "sysmon"));
    }

    #[test]
    fn marker_timestamps_are_monotone() {
        let mut s = stream(100);
        s.push(StreamEntry::marker("late"));
        let plan = RunPlan::new(s, 100_000.0);
        let mut sink = CollectSink::new();
        let outcome = run(plan, Target::Sink(&mut sink)).unwrap();
        let markers = &outcome.replay().markers;
        assert_eq!(markers.len(), 2);
        assert!(markers[0].1 <= markers[1].1);
    }

    #[test]
    fn unguarded_run_completes() {
        let plan = RunPlan::new(stream(100), 200_000.0);
        let mut sink = CollectSink::new();
        let outcome = run(plan, Target::Sink(&mut sink)).unwrap();
        assert_eq!(outcome.status, crate::watchdog::RunStatus::Completed);
        assert!(!outcome.replay().aborted);
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
        let mut plan = RunPlan::new(s, 1_000_000.0).with_watchdog(WatchdogConfig {
            poll_interval: Duration::from_millis(5),
            ..WatchdogConfig::stall_after(Duration::from_millis(100))
        });
        plan.sysmon = None;

        let started = std::time::Instant::now();
        let mut sink = CollectSink::new();
        let outcome = run(plan, Target::Sink(&mut sink)).unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "watchdog failed to cut the pause short"
        );
        assert!(outcome.replay().aborted);
        match &outcome.status {
            RunStatus::Aborted(AbortReason::Stalled {
                events_delivered, ..
            }) => assert_eq!(*events_delivered, 50),
            other => panic!("expected a stall abort, got {other:?}"),
        }
        // Everything before the stall was salvaged...
        assert_eq!(outcome.replay().graph_events, 50);
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
        let mut plan = RunPlan::new(stream(10_000), 1_000.0).with_watchdog(WatchdogConfig {
            poll_interval: Duration::from_millis(5),
            ..WatchdogConfig::stall_after(Duration::from_secs(60))
                .with_deadline(Duration::from_millis(150))
        });
        plan.sysmon = None;
        let started = std::time::Instant::now();
        let mut sink = CollectSink::new();
        let outcome = run(plan, Target::Sink(&mut sink)).unwrap();
        assert!(started.elapsed() < Duration::from_secs(10));
        assert!(outcome.replay().aborted);
        assert!(matches!(
            outcome.status,
            RunStatus::Aborted(AbortReason::DeadlineExceeded { .. })
        ));
        assert!(outcome.replay().graph_events < 10_000);
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
        let outcome = run(plan, Target::Sink(&mut sink)).unwrap();
        // The replayer emitted all 100; 5 were lost downstream of it.
        assert_eq!(outcome.replay().graph_events, 100);
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
        let clock: Arc<dyn Clock> = Arc::new(ManualClock::new());
        let probe = GaugeSampler::new(clock, "probe", "answer", || Some(42.0));
        let mut plan = RunPlan::new(stream(200), 200_000.0)
            .with_logger(Box::new(PanickingLogger))
            .with_logger(Box::new(probe));
        plan.sysmon = None;
        let mut sink = CollectSink::new();
        let outcome = run(plan, Target::Sink(&mut sink)).unwrap();
        // The run itself is unharmed...
        assert_eq!(outcome.replay().graph_events, 200);
        assert_eq!(outcome.status, crate::watchdog::RunStatus::Completed);
        // ...the lost series is explained by a typed degradation record
        // naming the logger instead of a harness panic...
        assert!(outcome.log.records().iter().any(|r| r.source == "harness"
            && r.metric == "degradation"
            && r.value.to_string().contains("`panicking`")));
        // ...and only that series is lost: the logger beside it kept
        // sampling, first sample and final one.
        assert!(outcome.log.series("probe", "answer").len() >= 2);
    }

    /// A `/proc` that panics on every read.
    struct PanickingProc;

    impl gt_sysmon::ProcSource for PanickingProc {
        fn read(&self, _file: gt_sysmon::ProcFile) -> std::io::Result<String> {
            panic!("deliberate test panic in proc source");
        }
        fn describe(&self) -> String {
            "panicking".to_owned()
        }
    }

    #[test]
    fn a_panicking_sysmon_source_loses_only_its_own_series() {
        let clock: Arc<dyn Clock> = Arc::new(ManualClock::new());
        let config = SamplerConfig {
            source: "sysmon-panicking".to_owned(),
            ..SamplerConfig::default()
        };
        let monitor =
            SysmonSampler::with_source(config, Box::new(PanickingProc), Arc::clone(&clock));
        let probe = GaugeSampler::new(clock, "probe", "answer", || Some(42.0));
        let mut plan = RunPlan::new(stream(200), 200_000.0)
            .with_logger(Box::new(monitor))
            .with_logger(Box::new(probe));
        plan.sysmon = None;
        let mut sink = CollectSink::new();
        let outcome = run(plan, Target::Sink(&mut sink)).unwrap();
        assert_eq!(outcome.status, crate::watchdog::RunStatus::Completed);
        let degraded: Vec<_> = outcome
            .log
            .records()
            .iter()
            .filter(|r| r.source == "harness" && r.metric == "degradation")
            .collect();
        assert_eq!(degraded.len(), 1, "one record for the one lost observer");
        assert!(degraded[0].value.to_string().contains("`sysmon-panicking`"));
        assert!(outcome.log.series("probe", "answer").len() >= 2);
    }

    #[test]
    fn a_run_stops_its_observers_without_waiting_out_their_periods() {
        // Every observer is armed with a 500 ms period; the 100-event run
        // takes about 1 ms. Stopping must end their wait, not sit it out.
        let mut plan = RunPlan::new(stream(100), 100_000.0).with_watchdog(WatchdogConfig {
            poll_interval: Duration::from_millis(500),
            ..WatchdogConfig::default()
        });
        plan.sysmon = Some(SamplerConfig::default().every(Duration::from_millis(500)));
        plan.sampling_interval = Duration::from_millis(500);
        let started = std::time::Instant::now();
        let mut sink = CollectSink::new();
        let outcome = run(plan, Target::Sink(&mut sink)).unwrap();
        let took = started.elapsed();
        assert!(took < Duration::from_millis(200), "the run took {took:?}");
        assert_eq!(outcome.status, crate::watchdog::RunStatus::Completed);
        assert_eq!(outcome.replay().graph_events, 100);
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
        let plan = RunPlan::new(&path, 400_000.0)
            .with_watchdog(crate::watchdog::WatchdogConfig::default())
            .with_chaos(chaos);
        let mut sink = CollectSink::new();
        let outcome = run(plan, Target::Sink(&mut sink)).unwrap();
        assert_eq!(outcome.status, crate::watchdog::RunStatus::Completed);
        assert_eq!(outcome.replay().graph_events, 2_000);
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

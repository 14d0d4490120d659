//! The end-to-end replay pipeline: source → read → pace → sink.
//!
//! [`ReplaySession`] is the one single-sink driver and the one emitter,
//! for a stream file and an in-memory stream alike. It composes the
//! decoupled reader ([`crate::reader::read_source`] on a scoped thread, so
//! it can borrow an in-memory stream as well as open a file), the bounded
//! chunk queue ([`crate::reader::chunk_queue`]) and its pacing emit loop
//! into the multi-threaded design of §5.1 — the stream is read on one
//! thread and emitted on another, so a stream file of any length replays
//! in bounded memory (the queue holds at most `buffer` entries; the file
//! is never materialized).
//!
//! The emitter paces, pauses and timestamps on the run's [`Clock`] (one
//! time base and one wait for the whole instrument, `Clock::wait_until`:
//! sleep on a fine-grained timer, then spin for the learned wake-up error
//! only), honours in-stream `SPEED` and `PAUSE` control events, and
//! reports achieved ingress rates (§4.3 "Streaming Metrics"). It walks
//! each chunk it takes in place. Graph events already past their deadline
//! form a run that goes to [`EventSink::send_batch`] as one slice of the
//! chunk; an event on schedule goes out alone, after its wait; a marker, a
//! control entry and the chunk's end each close the run. So a batch holds
//! graph events only and never crosses a chunk (at most [`MAX_CHUNK`]
//! entries), and a marker goes out after every graph event before it —
//! and no due event waits on the reader. The emitter pays one queue
//! operation, one stall measurement and one queue-depth sample per chunk,
//! and the trace stamp, abort check, pacer poll and deadline-miss sample
//! per event.
//!
//! Every stage is instrumented through a [`MetricsHub`]:
//!
//! | metric | type | meaning |
//! |---|---|---|
//! | `ingress_events` | counter | graph events emitted |
//! | `queue_depth` | gauge | entries in the reader→emitter queue, sampled at each chunk taken |
//! | `reader_stall_micros` | counter | emitter time blocked on an empty queue (reader too slow) |
//! | `sink_stall_micros` | counter | emitter time blocked in `send`/`flush` (consumer too slow) |
//! | `emit_latency_micros` | histogram | per-event deadline miss |
//!
//! Both stall counters are differences of two readings of the session's
//! [`Clock`] around the blocking call — on a `ManualClock` they are exact
//! virtual times, and so is the whole replay. Passing a shared hub (and
//! clock) lets harness logger threads sample the pipeline live; the hub
//! has every series from [`ReplaySession::with_hub`] on, so a sample
//! taken before the run starts already lists them all. The final values
//! are also folded into the returned [`SessionReport`].

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use gt_core::prelude::*;
use gt_metrics::hub::{Counter, Gauge};
use gt_metrics::{Clock, Histogram, HistogramSnapshot, MetricsHub, WallClock};
use gt_trace::{Stage, Tracer};

use crate::errors::ReplayError;
use crate::pacing::PacerCore;
use crate::pattern::RatePattern;
use crate::reader::{entry_queue, read_source, ChunkReceiver, StreamSource, MAX_CHUNK};
use crate::sink::{EventSink, SinkEvent};

/// Longest single wait inside a `PAUSE`: how long a watchdog abort can go
/// unnoticed.
const PAUSE_SLICE_MICROS: u64 = 20_000;

/// Width of the ingress-rate buckets in the report, microseconds.
const RATE_BUCKET_MICROS: u64 = 1_000_000;

/// Pacing configuration of the emitter.
#[derive(Debug, Clone)]
pub struct ReplayerConfig {
    /// Target emission rate in events per second (speed factor 1.0).
    pub target_rate: f64,
    /// Whether `PAUSE` control events actually wait. Disable for
    /// maximum-throughput benchmarking of the replayer itself.
    pub honor_pauses: bool,
    /// Rate-variability shape (§4.4): how the offered rate varies over
    /// the run. [`RatePattern::Uniform`] is the paper's constant pacing.
    pub pattern: RatePattern,
    /// Seed for stochastic patterns (Pareto burst trains); same seed,
    /// same traffic shape.
    pub pattern_seed: u64,
}

impl Default for ReplayerConfig {
    fn default() -> Self {
        ReplayerConfig {
            target_rate: 1_000.0,
            honor_pauses: true,
            pattern: RatePattern::Uniform,
            pattern_seed: 0,
        }
    }
}

/// What a replay run measured (§4.3 "Streaming Metrics").
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Graph events emitted.
    pub graph_events: u64,
    /// Marker events emitted, with their run-clock timestamps in
    /// microseconds — the watermark correlation data of §4.5.
    pub markers: Vec<(String, u64)>,
    /// Total time of the replay on the session's clock, microseconds.
    pub duration_micros: u64,
    /// Time spent in honored `PAUSE` control events, microseconds. Always
    /// `<= duration_micros`.
    pub paused_micros: u64,
    /// Events per second, bucketed over the run.
    pub rate_series: Vec<(f64, f64)>,
    /// Mean achieved rate over the *active* (non-paused) part of the run
    /// (graph events only) — a paused replayer is obeying the stream, not
    /// falling behind, so pauses must not depress this number.
    pub achieved_rate: f64,
    /// Whether the replay was cut short by an abort flag (experiment
    /// watchdog) before the stream ended. Everything delivered up to the
    /// abort is still accounted in the fields above.
    pub aborted: bool,
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct ReplaySessionConfig {
    /// Pacing and reporting configuration for the emitter stage.
    pub replayer: ReplayerConfig,
    /// Capacity of the reader→emitter queue, in entries. This is the
    /// pipeline's only buffering — it bounds both memory use and how far
    /// the reader can run ahead. The bound is met in chunks of
    /// `min(256, buffer)` entries: the queue has `buffer / chunk` slots,
    /// and besides what it holds only the one chunk in the reader's hand
    /// and the one in the emitter's exist.
    ///
    /// The default is 16 chunks ([`MAX_CHUNK`] entries each, 4 Ki in
    /// all): ≈ 2 ms of lead at 2 M events/s, ≈ 13 ms at 320 k. A reader
    /// faster than its emitter keeps the queue full at any depth, and
    /// each chunk costs one hand-off and one wake-up either way, so the
    /// depth only sets how many entries a session mints and keeps.
    pub buffer: usize,
}

impl Default for ReplaySessionConfig {
    fn default() -> Self {
        ReplaySessionConfig {
            replayer: ReplayerConfig::default(),
            buffer: 16 * MAX_CHUNK,
        }
    }
}

/// What a pipeline run measured: the emitter's streaming metrics plus
/// per-stage health.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// The emitter's streaming metrics (rates, markers, pauses).
    pub replay: ReplayReport,
    /// Entries the reader read from the source.
    pub entries_read: u64,
    /// Cumulative time the emitter spent waiting on an empty queue.
    pub reader_stall_micros: u64,
    /// Cumulative time the emitter spent inside sink `send`/`flush`.
    pub sink_stall_micros: u64,
    /// Highest observed reader→emitter queue occupancy.
    pub max_queue_depth: i64,
    /// Distribution of per-event deadline misses, microseconds.
    pub emit_latency: HistogramSnapshot,
    /// Notable sink events (disconnects, reconnects), drained after the
    /// replay.
    pub sink_events: Vec<SinkEvent>,
}

/// The pipeline's series in its hub.
struct Series {
    ingress: Counter,
    queue_depth: Gauge,
    reader_stall: Counter,
    sink_stall: Counter,
    emit_latency: Histogram,
}

impl Series {
    /// Registers every series in `hub`.
    fn register(hub: &MetricsHub) -> Self {
        Series {
            ingress: hub.counter("ingress_events"),
            queue_depth: hub.gauge("queue_depth"),
            reader_stall: hub.counter("reader_stall_micros"),
            sink_stall: hub.counter("sink_stall_micros"),
            emit_latency: hub.histogram("emit_latency_micros"),
        }
    }
}

/// The replay pipeline driver, for a stream file and an in-memory stream
/// alike.
pub struct ReplaySession {
    config: ReplaySessionConfig,
    clock: Arc<dyn Clock>,
    series: Series,
    tracer: Option<Tracer>,
    abort: Option<Arc<AtomicBool>>,
}

impl ReplaySession {
    /// A session with its own clock and a private metrics hub.
    pub fn new(config: ReplaySessionConfig) -> Self {
        ReplaySession {
            config,
            clock: Arc::new(WallClock::start()),
            series: Series::register(&MetricsHub::new()),
            tracer: None,
            abort: None,
        }
    }

    /// Uses a shared run clock (marker and sink-event timestamps align
    /// with harness logger timestamps).
    #[must_use]
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Uses a shared metrics hub so logger threads can sample the
    /// pipeline while it runs. Every pipeline series is registered in it
    /// here, before the run: a logger's first sample lists them all.
    #[must_use]
    pub fn with_hub(mut self, hub: MetricsHub) -> Self {
        self.series = Series::register(&hub);
        self
    }

    /// Attaches a Level-2 [`Tracer`]: the pipeline stamps sampled graph
    /// events at [`Stage::ReaderDequeue`], [`Stage::PacedEmit`], and
    /// [`Stage::SinkWrite`] so the tracer's collector can break the
    /// replayer-side latency down by stage.
    #[must_use]
    pub fn with_tracer(mut self, tracer: &Tracer) -> Self {
        self.tracer = Some(tracer.clone());
        self
    }

    /// Attaches a shared abort flag: when set (normally by an experiment
    /// watchdog), the emitter sends the run of due events it holds,
    /// closes the sink and stops, and the report's `replay.aborted` is
    /// true. It is checked between entries and during pauses. The reader
    /// thread winds down on its own once the emitter drops the queue.
    #[must_use]
    pub fn with_abort_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.abort = Some(flag);
        self
    }

    /// Streams `source` — a stream file's path or an in-memory
    /// [`GraphStream`] — through the pipeline into `sink`. The source is
    /// read on a dedicated thread; this thread paces and emits.
    pub fn run<'a, S: EventSink + ?Sized>(
        &self,
        source: impl Into<StreamSource<'a>>,
        sink: &mut S,
    ) -> Result<SessionReport, ReplayError> {
        let source = source.into();
        let (tx, rx) = entry_queue(self.config.buffer);
        let mut max_queue_depth = 0;
        let (replayed, reader_result) = std::thread::scope(|scope| {
            let reader = std::thread::Builder::new()
                .name("gt-stream-reader".into())
                .spawn_scoped(scope, move || read_source(source, tx))
                .expect("spawning reader thread");
            // The emitter owns the queue: its return — or, should it
            // panic, the unwinding — drops the queue, which frees the
            // reader, so the join cannot deadlock.
            let replayed = self.emit(rx, sink, &mut max_queue_depth);
            (replayed, reader.join())
        });

        let replay = replayed?;
        let entries_read = match reader_result {
            Ok(Ok(n)) => n,
            Ok(Err(e)) => return Err(ReplayError::Source(e)),
            Err(_) => return Err(ReplayError::ReaderPanicked),
        };

        Ok(SessionReport {
            replay,
            entries_read,
            reader_stall_micros: self.series.reader_stall.get(),
            sink_stall_micros: self.series.sink_stall.get(),
            max_queue_depth,
            emit_latency: self.series.emit_latency.snapshot(),
            sink_events: sink.drain_events(),
        })
    }

    fn abort_requested(&self) -> bool {
        self.abort
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
    }

    /// Makes one call into the sink, booking its clock time as sink stall.
    fn timed<T>(&self, call: impl FnOnce() -> T) -> T {
        let start = self.clock.now_micros();
        let result = call();
        self.series
            .sink_stall
            .add(self.clock.now_micros().saturating_sub(start));
        result
    }

    /// The emitter: takes the reader's chunks from `rx` and paces their
    /// entries into `sink` at the configured rate, honouring control
    /// events (see the module docs for how a chunk becomes batches), and
    /// returns the streaming metrics report. Per chunk, the time blocked
    /// on the queue is reader stall, and the entries queued before and
    /// after the take feed the queue-depth gauge and `max_depth`.
    ///
    /// Pacing deadlines, waits, pauses and every timestamp in the report
    /// are on the session's [`Clock`]; on a `ManualClock` a replay runs in
    /// virtual time.
    fn emit<S: EventSink + ?Sized>(
        &self,
        mut rx: ChunkReceiver<SharedEntry>,
        sink: &mut S,
        max_depth: &mut i64,
    ) -> Result<ReplayReport, ReplayError> {
        let (clock, series, config) = (&*self.clock, &self.series, &self.config.replayer);
        let probe = |stage| self.tracer.as_ref().map(|t| t.probe(stage));
        let dequeued = probe(Stage::ReaderDequeue);
        let on_send = [probe(Stage::PacedEmit), probe(Stage::SinkWrite)];
        let mut pacer = PacerCore::new(config.target_rate)
            .with_pattern(config.pattern.compile(config.pattern_seed));
        sink.open()?;
        // Deadlines, the rate pattern and the rate buckets count from here.
        let started = clock.now_micros();
        let nanos_since_start = |now: u64| now.saturating_sub(started) * 1_000;
        pacer.reset(0);
        let mut paused_micros = 0u64;
        let mut markers = Vec::new();
        // Graph events sent, per rate bucket.
        let mut buckets: Vec<u64> = Vec::new();
        // Sends a run of graph events and books them, with one clock read
        // after the send, to the ingress counter and a rate bucket.
        let mut send_run = |sink: &mut S, run: &[SharedEntry]| -> io::Result<()> {
            if run.is_empty() {
                return Ok(());
            }
            let n = run.len() as u64;
            // Stamp before dispatch so downstream stages always observe a
            // later time than the emit stamp; every slot of a run is a
            // graph event and advances the trace sequence.
            for probe in on_send.iter().flatten() {
                probe.stamp_n(n);
            }
            self.timed(|| sink.send_batch(run))?;
            series.ingress.add(n);
            let bucket = (clock.now_micros().saturating_sub(started) / RATE_BUCKET_MICROS) as usize;
            if buckets.len() <= bucket {
                buckets.resize(bucket + 1, 0);
            }
            buckets[bucket] += n;
            Ok(())
        };

        let mut chunk = Vec::new();
        let mut aborted = false;
        'chunks: loop {
            // Sample occupancy before taking as well as after: a reader
            // parked on a full queue refills the freed slot only after the
            // take, so the post-take depth alone never observes the
            // capacity-pinned state.
            *max_depth = (*max_depth).max(rx.queued() as i64);
            let start = clock.now_micros();
            // The used-up chunk goes back to the reader, which reuses
            // every entry no sink kept.
            let next = rx.recv(std::mem::take(&mut chunk), || {});
            series
                .reader_stall
                .add(clock.now_micros().saturating_sub(start));
            let depth = rx.queued() as i64;
            series.queue_depth.set(depth);
            *max_depth = (*max_depth).max(depth);
            let Some(next) = next else {
                break;
            };
            chunk = next;
            // `chunk[due..i]` is the run of due graph events not yet sent.
            let mut due = 0;
            for (i, entry) in chunk.iter().enumerate() {
                if self.abort_requested() {
                    send_run(sink, &chunk[due..i])?;
                    aborted = true;
                    break 'chunks;
                }
                if !entry.is_graph() {
                    // A marker or a control entry closes the run.
                    send_run(sink, &chunk[due..i])?;
                    due = i + 1;
                }
                match &**entry {
                    StreamEntry::Graph(_) => {
                        // Only graph events advance the trace sequence —
                        // every stage must count the same stream positions
                        // for seq-based matching to hold.
                        if let Some(probe) = &dequeued {
                            probe.stamp();
                        }
                        let now = clock.now_micros();
                        let schedule = pacer.schedule(nanos_since_start(now));
                        series.emit_latency.record(schedule.lateness_nanos / 1_000);
                        // The clock reads whole microseconds: a deadline
                        // less than one away is due now, so an unpaced
                        // replay never waits. A due event joins the run.
                        let wait_micros = schedule.wait_nanos / 1_000;
                        if wait_micros > 0 {
                            // On schedule: send what came due while
                            // catching up, wait out the slot, then send
                            // this event in it.
                            send_run(sink, &chunk[due..i])?;
                            clock.wait_until(now + wait_micros);
                            send_run(sink, &chunk[i..=i])?;
                            due = i + 1;
                        }
                    }
                    StreamEntry::Marker(name) => {
                        // Markers flow through to the system under test
                        // *and* are timestamped locally for later
                        // correlation, after every graph event before them.
                        self.timed(|| sink.send(entry))?;
                        self.timed(|| sink.flush())?;
                        markers.push((name.clone(), clock.now_micros()));
                    }
                    StreamEntry::Control(ControlEvent::SetSpeed(factor)) => {
                        // The file parser rejects bad SPEED payloads at
                        // parse time; programmatic in-memory streams can
                        // still carry one. Fail fast with a typed error —
                        // the pacer would ignore the factor, silently
                        // replaying at the wrong rate.
                        if !(factor.is_finite() && *factor > 0.0) {
                            return Err(ReplayError::InvalidControl {
                                control: format!("SPEED({factor})"),
                                reason: "speed factor must be positive and finite".to_owned(),
                            });
                        }
                        pacer.set_speed(*factor);
                    }
                    StreamEntry::Control(ControlEvent::Pause(duration)) => {
                        self.timed(|| sink.flush())?;
                        if config.honor_pauses {
                            let pause_start = clock.now_micros();
                            let pause_end = pause_start + duration.as_micros() as u64;
                            // Wait in slices so a watchdog abort does not
                            // have to wait out a long scripted pause.
                            let mut now = pause_start;
                            while now < pause_end && !self.abort_requested() {
                                clock.wait_until(pause_end.min(now + PAUSE_SLICE_MICROS));
                                now = clock.now_micros();
                            }
                            paused_micros += now.saturating_sub(pause_start);
                            if now < pause_end {
                                aborted = true;
                                break 'chunks;
                            }
                        }
                        pacer.reset(nanos_since_start(clock.now_micros()));
                    }
                }
            }
            // The chunk's end closes the run: nothing due waits on the
            // next take, which may block.
            send_run(sink, &chunk[due..])?;
        }
        self.timed(|| sink.close())?;

        let duration_micros = clock.now_micros().saturating_sub(started).max(1);
        let graph_events = buckets.iter().sum();
        let last = buckets.len().saturating_sub(1);
        let bucket_secs = RATE_BUCKET_MICROS as f64 / 1e6;
        let rate_series: Vec<(f64, f64)> = buckets
            .iter()
            .enumerate()
            .map(|(i, &count)| {
                let start_secs = i as f64 * bucket_secs;
                // The run usually ends partway through the final bucket;
                // dividing by the full bucket width would understate the
                // closing rate, so scale by the actual elapsed width.
                let width = if i == last {
                    (duration_micros as f64 / 1e6 - start_secs).clamp(1e-6, bucket_secs)
                } else {
                    bucket_secs
                };
                (start_secs, count as f64 / width)
            })
            .collect();
        let active_micros = duration_micros.saturating_sub(paused_micros).max(1);
        Ok(ReplayReport {
            graph_events,
            markers,
            duration_micros,
            paused_micros,
            rate_series,
            achieved_rate: graph_events as f64 / (active_micros as f64 / 1e6),
            aborted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::chunk_queue;
    use crate::sink::CollectSink;
    use gt_metrics::ManualClock;
    use std::path::{Path, PathBuf};
    use std::sync::mpsc::{channel, Sender};
    use std::time::Duration;

    fn temp_stream_file(name: &str, lines: usize) -> PathBuf {
        let dir = std::env::temp_dir().join("gt-replayer-session-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}.csv"));
        let mut content = String::new();
        for i in 0..lines {
            content.push_str(&format!("ADD_VERTEX,{i},\n"));
        }
        content.push_str("MARKER,end,\n");
        std::fs::write(&path, content).unwrap();
        path
    }

    fn fast_config(buffer: usize) -> ReplaySessionConfig {
        ReplaySessionConfig {
            replayer: at(1e7),
            buffer,
        }
    }

    /// Pacing at `rate` events per second.
    fn at(rate: f64) -> ReplayerConfig {
        ReplayerConfig {
            target_rate: rate,
            ..Default::default()
        }
    }

    /// A default session pacing by `config` on `clock`.
    fn session_on(config: ReplayerConfig, clock: Arc<dyn Clock>) -> ReplaySession {
        ReplaySession::new(ReplaySessionConfig {
            replayer: config,
            ..Default::default()
        })
        .with_clock(clock)
    }

    /// A session on a fresh [`ManualClock`]: every wait jumps the clock,
    /// so a run's times are exact functions of the stream and the rate.
    fn virtual_session(config: ReplayerConfig) -> ReplaySession {
        session_on(config, Arc::new(ManualClock::new()))
    }

    /// Replays a whole in-memory stream.
    fn replay_all<S: EventSink + ?Sized>(
        session: &ReplaySession,
        stream: &GraphStream,
        sink: &mut S,
    ) -> Result<ReplayReport, ReplayError> {
        session.run(stream, sink).map(|report| report.replay)
    }

    fn vertex(i: u64) -> StreamEntry {
        StreamEntry::graph(GraphEvent::AddVertex {
            id: VertexId(i),
            state: State::empty(),
        })
    }

    fn vertices(n: u64) -> GraphStream {
        (0..n).map(vertex).collect()
    }

    #[test]
    fn streams_file_end_to_end() {
        let path = temp_stream_file("end-to-end", 5_000);
        let session = ReplaySession::new(fast_config(64));
        let mut sink = CollectSink::new();
        let report = session.run(&path, &mut sink).unwrap();
        assert_eq!(report.replay.graph_events, 5_000);
        assert_eq!(report.entries_read, 5_001);
        assert_eq!(sink.entries.len(), 5_001);
        assert_eq!(report.replay.markers.len(), 1);
        // The channel is bounded: depth can never exceed capacity.
        assert!(report.max_queue_depth <= 64, "{}", report.max_queue_depth);
        // Every graph event recorded a deadline-miss sample.
        assert_eq!(report.emit_latency.count, 5_000);
        assert!(report.sink_events.is_empty());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn parse_error_surfaces_as_source_error() {
        let dir = std::env::temp_dir().join("gt-replayer-session-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.csv");
        std::fs::write(&path, "ADD_VERTEX,1,\nNOT A LINE\n").unwrap();
        let session = ReplaySession::new(fast_config(16));
        let mut sink = CollectSink::new();
        match session.run(&path, &mut sink) {
            Err(ReplayError::Source(_)) => {}
            other => panic!("expected Source error, got {other:?}"),
        }
        // The valid prefix still flowed through before the error.
        assert_eq!(sink.entries.len(), 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_surfaces_as_source_error() {
        let session = ReplaySession::new(fast_config(16));
        let mut sink = CollectSink::new();
        match session.run(Path::new("/nonexistent/stream.csv"), &mut sink) {
            Err(ReplayError::Source(CoreError::Io(_))) => {}
            other => panic!("expected Source(Io) error, got {other:?}"),
        }
    }

    #[test]
    fn tracer_breaks_replayer_latency_down_by_stage() {
        use gt_trace::{TraceConfig, Tracer};

        let path = temp_stream_file("traced", 2_000);
        let clock: Arc<dyn Clock> = Arc::new(WallClock::start());
        let trace_hub = MetricsHub::new();
        let tracer = Tracer::new(
            TraceConfig::default().sampling(16),
            Arc::clone(&clock),
            &trace_hub,
        );
        let session = ReplaySession::new(fast_config(64))
            .with_clock(clock)
            .with_tracer(&tracer);
        let mut sink = CollectSink::new();
        let report = session.run(&path, &mut sink).unwrap();
        assert_eq!(report.replay.graph_events, 2_000);
        let trace = tracer.stop();
        // 2000 events at 1-in-16 → 125 sampled seqs; each can complete
        // reader→emit and emit→sink. Ring drops are possible in theory
        // (they shed load rather than block), so assert on what arrived.
        assert!(trace.matched > 0, "no stage pairs matched");
        for metric in ["reader_to_emit_micros", "emit_to_sink_micros"] {
            assert!(
                trace.records.iter().any(|r| r.metric == metric),
                "no {metric} records"
            );
            assert!(trace_hub.histogram(metric).count() > 0, "{metric} empty");
        }
        // No SUT side in this pipeline: connector/apply pairs must be
        // absent, not fabricated.
        assert!(trace
            .records
            .iter()
            .all(|r| r.metric != "emit_to_connector_micros"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn shared_hub_exposes_live_metrics() {
        let path = temp_stream_file("shared-hub", 1_000);
        let hub = MetricsHub::new();
        let session = ReplaySession::new(fast_config(32)).with_hub(hub.clone());
        let mut sink = CollectSink::new();
        session.run(&path, &mut sink).unwrap();
        assert_eq!(hub.counter("ingress_events").get(), 1_000);
        let histograms = hub.histogram_values();
        assert!(histograms
            .iter()
            .any(|(name, snap)| name == "emit_latency_micros" && snap.count == 1_000));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn buffer_is_an_entry_bound_at_every_size() {
        // In order, exactly once, and never more than `buffer` entries
        // queued — whether `buffer` is below, at or above the chunk size,
        // and whether the stream comes from its file or from memory.
        // (`slow_consumer_backpressure_fills_queue` pins the other side:
        // a slow sink finds exactly `buffer` queued.)
        let path = temp_stream_file("entry-bound", 5_000);
        let want = GraphStream::read_from_file(&path).unwrap();
        for source in [StreamSource::File(&path), StreamSource::Stream(&want)] {
            for buffer in [1, 7, 64, 1_000] {
                let session = ReplaySession::new(fast_config(buffer));
                let mut sink = CollectSink::new();
                let report = session.run(source, &mut sink).unwrap();
                assert_eq!(report.entries_read, 5_001);
                assert_eq!(report.emit_latency.count, 5_000);
                assert_eq!(sink.entries, want.entries(), "buffer {buffer}");
                assert!(
                    report.max_queue_depth <= buffer as i64,
                    "buffer {buffer}: {} queued",
                    report.max_queue_depth
                );
            }
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn replays_everything_in_order() {
        let mut stream = vertices(50);
        stream.push(StreamEntry::marker("end"));
        let session = virtual_session(at(1e6));
        let mut sink = CollectSink::new();
        let report = replay_all(&session, &stream, &mut sink).unwrap();
        assert_eq!(report.graph_events, 50);
        assert_eq!(sink.entries, stream.entries());
        assert_eq!(report.markers.len(), 1);
        assert_eq!(report.markers[0].0, "end");
    }

    #[test]
    fn achieves_target_rate_approximately() {
        // 500 events, one every 200 µs: the last slot is at 100 ms.
        let session = virtual_session(at(5_000.0));
        let mut sink = CollectSink::new();
        let report = replay_all(&session, &vertices(500), &mut sink).unwrap();
        assert_eq!(report.duration_micros, 100_000);
        assert_eq!(report.achieved_rate, 5_000.0);
    }

    #[test]
    fn speed_control_takes_effect() {
        // 200 events at base rate, then 200 at 4x: the second half must be
        // substantially faster.
        let mut stream = vertices(200);
        stream.push(StreamEntry::speed(4.0));
        stream.extend(vertices(200));
        let session = virtual_session(at(4_000.0));
        let mut sink = CollectSink::new();
        let report = replay_all(&session, &stream, &mut sink).unwrap();
        assert_eq!(report.graph_events, 400);
        // 200 slots of 250 µs end at 50 ms; slot 201 was issued before
        // the change (50.25 ms), the other 199 come every 62.5 µs — the
        // last at 62 687.5 µs, which the whole-microsecond clock reaches
        // at 62 687. All at base rate would have taken 100 ms.
        assert_eq!(report.duration_micros, 62_687);
    }

    #[test]
    fn invalid_speed_payload_fails_fast_with_typed_error() {
        // Regression: a zero/negative/NaN SPEED payload in a programmatic
        // stream used to reach the pacer, where the saturating interval
        // cast turned it into a u64::MAX-nanosecond stall (or, later, a
        // panic on the replay thread). It must instead surface as a typed
        // ReplayError::InvalidControl before any pacing state changes.
        for bad in [0.0, -1.0, f64::NAN] {
            let mut stream = vertices(3);
            stream.push(StreamEntry::speed(bad));
            stream.extend(vertices(3));
            let clock = Arc::new(ManualClock::new());
            let session = session_on(at(1e6), clock.clone());
            let mut sink = CollectSink::new();
            let err = replay_all(&session, &stream, &mut sink)
                .expect_err("bad factor must fail the replay");
            // Three 1 µs slots, not a stall of any length.
            assert_eq!(clock.now_micros(), 3, "factor {bad}");
            match err {
                ReplayError::InvalidControl { control, reason } => {
                    assert!(control.contains("SPEED"), "control {control}");
                    assert!(reason.contains("positive"), "reason {reason}");
                }
                other => panic!("wrong variant for factor {bad}: {other:?}"),
            }
            // The events before the bad control were delivered, none
            // after it.
            assert_eq!(sink.entries, vertices(3).entries(), "factor {bad}");
        }
    }

    #[test]
    fn pause_control_delays_emission() {
        let mut stream = vertices(5);
        stream.push(StreamEntry::pause(Duration::from_millis(80)));
        stream.extend(vertices(5));
        let session = virtual_session(at(1e5));
        let mut sink = CollectSink::new();
        let report = replay_all(&session, &stream, &mut sink).unwrap();
        // Five 10 µs slots, the 80 ms pause, then five slots counted
        // afresh from its end.
        assert_eq!(report.paused_micros, 80_000);
        assert_eq!(report.duration_micros, 50 + 80_000 + 50);
    }

    #[test]
    fn pauses_can_be_disabled() {
        let mut stream = vertices(2);
        stream.push(StreamEntry::pause(Duration::from_secs(5)));
        stream.extend(vertices(2));
        let session = virtual_session(ReplayerConfig {
            honor_pauses: false,
            ..at(1e6)
        });
        let mut sink = CollectSink::new();
        let report = replay_all(&session, &stream, &mut sink).unwrap();
        // Four 1 µs slots; the 5 s pause costs nothing.
        assert_eq!(report.duration_micros, 4);
    }

    #[test]
    fn ignored_pauses_do_not_count_as_paused_time() {
        let mut stream = vertices(2);
        stream.push(StreamEntry::pause(Duration::from_secs(5)));
        stream.extend(vertices(2));
        let session = virtual_session(ReplayerConfig {
            honor_pauses: false,
            ..at(1e6)
        });
        let mut sink = CollectSink::new();
        let report = replay_all(&session, &stream, &mut sink).unwrap();
        assert_eq!(report.paused_micros, 0);
    }

    #[test]
    fn ingress_counter_tracks_events() {
        let hub = MetricsHub::new();
        let session = virtual_session(at(1e6)).with_hub(hub.clone());
        let mut sink = CollectSink::new();
        replay_all(&session, &vertices(30), &mut sink).unwrap();
        assert_eq!(hub.counter("ingress_events").get(), 30);
    }

    /// Integrates a report's rate series over each bucket's own width —
    /// full buckets except the final one, which ends at the run's end but
    /// is never narrower than the report's 1 µs floor — after checking
    /// that no bucket starts past that end.
    fn series_total(report: &ReplayReport) -> f64 {
        let bucket_secs = RATE_BUCKET_MICROS as f64 / 1e6;
        let end_secs = report.duration_micros as f64 / 1e6;
        let last = report.rate_series.len() - 1;
        let (last_start, _) = report.rate_series[last];
        assert!(
            last_start <= end_secs,
            "bucket at {last_start} s, run ended at {end_secs} s"
        );
        let width = |i: usize, start: f64| {
            if i == last {
                (end_secs - start).max(1e-6)
            } else {
                bucket_secs
            }
        };
        let series = report.rate_series.iter().enumerate();
        series
            .map(|(i, &(start, rate))| rate * width(i, start))
            .sum()
    }

    #[test]
    fn rate_series_covers_run() {
        // 1 900 events at 1 000/s end mid-bucket (1.9 s into 1 s
        // buckets); the boundary case has its own test below.
        let session = virtual_session(at(1_000.0));
        let mut sink = CollectSink::new();
        let report = replay_all(&session, &vertices(1_900), &mut sink).unwrap();
        assert_eq!(report.duration_micros, 1_900_000);
        // Slot k is at k ms: 999 slots before 1 s, 901 from it on.
        assert_eq!(report.rate_series.len(), 2);
        assert_eq!(report.rate_series[0], (0.0, 999.0));
        let total = series_total(&report);
        assert!((total - 1_900.0).abs() < 1e-3, "series total {total}");
    }

    /// A sink on whose clock every event costs a fixed time.
    struct TickingSink {
        clock: Arc<ManualClock>,
        micros_per_event: u64,
    }

    impl EventSink for TickingSink {
        fn send(&mut self, _entry: &StreamEntry) -> io::Result<()> {
            self.clock.advance_micros(self.micros_per_event);
            Ok(())
        }
    }

    #[test]
    fn a_run_ending_on_a_bucket_boundary_keeps_every_event_in_the_series() {
        // 2 000 events × 1 ms end the run at exactly 2 s: the last send
        // and `duration_micros` share the microsecond that opens bucket 2
        // of 1 s, however the events were batched. That bucket has no
        // width of its own; the report gives it its 1 µs floor rather
        // than dropping what was booked there.
        let clock = Arc::new(ManualClock::new());
        let session = session_on(at(1e9), clock.clone());
        let mut sink = TickingSink {
            clock,
            micros_per_event: 1_000,
        };
        let report = replay_all(&session, &vertices(2_000), &mut sink).unwrap();
        assert_eq!(report.graph_events, 2_000);
        assert_eq!(report.duration_micros, 2_000_000);
        let &(last_start, last_rate) = report.rate_series.last().unwrap();
        assert_eq!((report.rate_series.len(), last_start), (3, 2.0));
        assert!(
            last_rate * 1e-6 >= 1.0,
            "final bucket holds {last_rate} × 1 µs"
        );
        let total = series_total(&report);
        assert!((total - 2_000.0).abs() < 1e-3, "series total {total}");
    }

    #[test]
    fn tail_bucket_rate_not_deflated() {
        // 1s buckets with a run lasting well under a second: the old
        // full-width division reported ~1/20th of the true rate.
        let session = virtual_session(at(10_000.0));
        let mut sink = CollectSink::new();
        let report = replay_all(&session, &vertices(500), &mut sink).unwrap();
        assert_eq!(report.duration_micros, 50_000);
        assert_eq!(report.rate_series.len(), 1);
        let (_, rate) = report.rate_series[0];
        assert!((rate - 10_000.0).abs() < 1e-6, "tail bucket rate {rate}");
    }

    #[test]
    fn achieved_rate_excludes_honored_pauses() {
        // 200 events at 10k/s (20 ms active) around a 100 ms pause. Over
        // the whole run the rate is 200 / 0.12 s; over active time it is
        // the target.
        let mut stream = vertices(100);
        stream.push(StreamEntry::pause(Duration::from_millis(100)));
        stream.extend(vertices(100));
        let session = virtual_session(at(10_000.0));
        let mut sink = CollectSink::new();
        let report = replay_all(&session, &stream, &mut sink).unwrap();
        assert_eq!(report.paused_micros, 100_000);
        assert_eq!(report.duration_micros, 120_000);
        assert!((report.achieved_rate - 10_000.0).abs() < 1e-6);
    }

    /// One call into a [`PatternSink`].
    #[derive(Debug, Clone, PartialEq)]
    enum Delivery {
        Send(StreamEntry),
        Batch(Vec<StreamEntry>),
    }

    /// Records the delivery pattern — which entries arrived singly and
    /// which batched — and the lifecycle calls; each batch costs
    /// `micros_per_batch` on `clock`, if it has one.
    #[derive(Default)]
    struct PatternSink {
        deliveries: Vec<Delivery>,
        opened: u32,
        closed: u32,
        clock: Option<(Arc<ManualClock>, u64)>,
    }

    impl PatternSink {
        fn batches(&self) -> impl Iterator<Item = &Vec<StreamEntry>> {
            self.deliveries.iter().filter_map(|d| match d {
                Delivery::Batch(batch) => Some(batch),
                Delivery::Send(_) => None,
            })
        }

        /// Every entry delivered, in order.
        fn flat(&self) -> Vec<StreamEntry> {
            let mut flat = Vec::new();
            for delivery in &self.deliveries {
                match delivery {
                    Delivery::Send(entry) => flat.push(entry.clone()),
                    Delivery::Batch(batch) => flat.extend(batch.iter().cloned()),
                }
            }
            flat
        }
    }

    impl EventSink for PatternSink {
        fn open(&mut self) -> io::Result<()> {
            self.opened += 1;
            Ok(())
        }

        fn send(&mut self, entry: &StreamEntry) -> io::Result<()> {
            self.deliveries.push(Delivery::Send(entry.clone()));
            Ok(())
        }

        fn send_batch(&mut self, batch: &[SharedEntry]) -> io::Result<()> {
            if let Some((clock, micros)) = &self.clock {
                clock.advance_micros(*micros);
            }
            let batch = batch.iter().map(|e| e.as_ref().clone()).collect();
            self.deliveries.push(Delivery::Batch(batch));
            Ok(())
        }

        fn close(&mut self) -> io::Result<()> {
            self.closed += 1;
            Ok(())
        }
    }

    #[test]
    fn behind_schedule_events_coalesce_into_batches() {
        // Pacing effectively disabled: every event is due immediately, so
        // the emitter should deliver large bursts, not per-event calls.
        let session = virtual_session(at(1e9));
        let mut sink = PatternSink::default();
        let report = replay_all(&session, &vertices(1_000), &mut sink).unwrap();
        assert_eq!(report.graph_events, 1_000);
        assert_eq!(sink.flat(), vertices(1_000).entries());
        assert!(
            sink.deliveries.len() < 100,
            "expected coalesced bursts, got {} deliveries",
            sink.deliveries.len()
        );
        let largest = sink.batches().map(Vec::len).max().unwrap();
        assert!(largest > 1, "no batching happened");
        assert!(largest <= MAX_CHUNK, "batch exceeded a chunk: {largest}");
        assert_eq!(sink.opened, 1);
        assert_eq!(sink.closed, 1);
    }

    #[test]
    fn marker_flushes_pending_batch_first() {
        let mut stream = vertices(100);
        stream.push(StreamEntry::marker("mid"));
        stream.extend(vertices(100));
        let session = virtual_session(at(1e9));
        let mut sink = PatternSink::default();
        replay_all(&session, &stream, &mut sink).unwrap();
        let flat = sink.flat();
        assert_eq!(flat.len(), 201);
        // Every graph event streamed before the marker is delivered before
        // it, in stream order.
        let marker_pos = flat.iter().position(|e| e.is_marker()).unwrap();
        assert_eq!(marker_pos, 100);
        assert_eq!(flat, stream.entries());
    }

    #[test]
    fn abort_flag_stops_replay_and_marks_report() {
        // The flag is pre-set: the replay must stop at the first entry
        // boundary, deliver nothing further, and still close the sink.
        let flag = Arc::new(AtomicBool::new(true));
        let session = virtual_session(at(1e6)).with_abort_flag(Arc::clone(&flag));
        let mut sink = PatternSink::default();
        let report = replay_all(&session, &vertices(100), &mut sink).unwrap();
        assert!(report.aborted);
        assert_eq!(report.graph_events, 0);
        assert!(sink.deliveries.is_empty());
        assert_eq!(sink.closed, 1, "abort must still close the sink");

        // And an unset flag changes nothing.
        flag.store(false, Ordering::Relaxed);
        let mut sink = CollectSink::new();
        let report = replay_all(&session, &vertices(100), &mut sink).unwrap();
        assert!(!report.aborted);
        assert_eq!(report.graph_events, 100);
    }

    #[test]
    fn abort_cuts_scripted_pause_short() {
        // On the wall clock: another thread raises the flag mid-pause.
        let flag = Arc::new(AtomicBool::new(false));
        let mut stream = vertices(2);
        stream.push(StreamEntry::pause(Duration::from_secs(30)));
        stream.extend(vertices(2));
        let session = ReplaySession::new(ReplaySessionConfig {
            replayer: at(1e6),
            ..Default::default()
        })
        .with_abort_flag(Arc::clone(&flag));
        let setter = {
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(60));
                flag.store(true, Ordering::Relaxed);
            })
        };
        let started = std::time::Instant::now();
        let mut sink = CollectSink::new();
        let report = replay_all(&session, &stream, &mut sink).unwrap();
        setter.join().unwrap();
        assert!(report.aborted);
        assert_eq!(report.graph_events, 2, "pre-pause events delivered");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "abort had to wait out the pause"
        );
    }

    /// Counts the graph events that reach it, and says so on `reached`
    /// when the count gets to `signal_at`.
    struct SignallingSink {
        delivered: u64,
        signal_at: u64,
        reached: Sender<()>,
    }

    impl EventSink for SignallingSink {
        fn send(&mut self, entry: &StreamEntry) -> io::Result<()> {
            if entry.is_graph() {
                self.delivered += 1;
                if self.delivered == self.signal_at {
                    self.reached.send(()).ok();
                }
            }
            Ok(())
        }
    }

    #[test]
    fn due_events_reach_the_sink_before_the_source_blocks() {
        // Regression: late events waited for a full batch, a marker, an
        // on-time event or the stream's end — behind a trickling source,
        // for as long as it blocked. Here the source holds chunk 2 back
        // until the sink has seen all of chunk 1's due events.
        let (mut tx, rx) = chunk_queue::<SharedEntry>(MAX_CHUNK, 4);
        let (reached, seen) = channel();
        let feeder = std::thread::spawn(move || {
            for i in 0..3 {
                tx.put(SharedEntry::new(vertex(i)));
            }
            assert!(tx.send());
            seen.recv_timeout(Duration::from_secs(10))
                .expect("chunk 1's due events were held back");
            for i in 3..5 {
                tx.put(SharedEntry::new(vertex(i)));
            }
            assert!(tx.send());
        });
        let session = virtual_session(at(1e9));
        let mut sink = SignallingSink {
            delivered: 0,
            signal_at: 3,
            reached,
        };
        let report = session.emit(rx, &mut sink, &mut 0).unwrap();
        feeder.join().unwrap();
        assert_eq!((report.graph_events, sink.delivered), (5, 5));
    }

    #[test]
    fn every_batch_is_a_slice_of_one_chunk_between_control_entries() {
        // Chunks of chosen sizes, fed straight into the emitter, over a
        // stream whose vertex ids are stream positions: a batch's ids show
        // which chunk it came from and whether it skipped an entry.
        let mut stream: Vec<StreamEntry> = Vec::new();
        for i in 0..1_200u64 {
            stream.push(match i {
                _ if i % 97 == 40 => StreamEntry::speed(1.0),
                _ if i % 211 == 7 => StreamEntry::marker(format!("m{i}")),
                _ => vertex(i),
            });
        }
        let sizes = [5, MAX_CHUNK, 1, 100, 37, MAX_CHUNK, 3, MAX_CHUNK, 200, 86];
        assert_eq!(sizes.iter().sum::<usize>(), stream.len());
        let chunk_of = |position: u64| {
            let mut end = 0;
            sizes.iter().position(|&len| {
                end += len as u64;
                position < end
            })
        };
        let position = |entry: &StreamEntry| match entry {
            StreamEntry::Graph(GraphEvent::AddVertex { id, .. }) => id.0,
            other => panic!("a batch carried {other:?}"),
        };
        let without_controls: Vec<StreamEntry> = stream
            .iter()
            .filter(|entry| !matches!(entry, StreamEntry::Control(_)))
            .cloned()
            .collect();
        // Unpaced, and paced at 10 µs a slot into a sink that takes
        // 35 µs a batch: runs of due events between on-time ones.
        for (rate, batch_micros) in [(1e9, 0), (1e5, 35)] {
            let clock = Arc::new(ManualClock::new());
            let session = session_on(at(rate), clock.clone());
            let (mut tx, rx) = chunk_queue::<SharedEntry>(MAX_CHUNK, sizes.len());
            let mut rest = stream.iter();
            for len in sizes {
                for entry in rest.by_ref().take(len) {
                    tx.put(SharedEntry::new(entry.clone()));
                }
                assert!(tx.send());
            }
            drop(tx);
            let mut sink = PatternSink {
                clock: Some((clock, batch_micros)),
                ..Default::default()
            };
            session.emit(rx, &mut sink, &mut 0).unwrap();
            assert_eq!(sink.flat(), without_controls, "rate {rate}");
            let mut speed_ended_a_batch = false;
            for batch in sink.batches() {
                let first = position(&batch[0]);
                let last = position(batch.last().unwrap());
                let ids: Vec<u64> = batch.iter().map(position).collect();
                assert!(
                    batch.len() <= MAX_CHUNK,
                    "rate {rate}: {} long",
                    batch.len()
                );
                assert_eq!(ids, (first..=last).collect::<Vec<_>>(), "rate {rate}");
                assert_eq!(
                    chunk_of(first),
                    chunk_of(last),
                    "rate {rate}: {first}..={last}"
                );
                speed_ended_a_batch |= batch.len() > 1 && last % 97 == 39;
            }
            if rate == 1e9 {
                assert!(speed_ended_a_batch, "no SPEED fell inside a due run");
            }
        }
    }

    #[test]
    #[ignore = "wall-clock pacing accuracy; run via the CI timing job"]
    fn paces_to_target_on_the_wall_clock() {
        // The session on its default `WallClock`: 400 events at 4k/s take
        // 0.1 s, and SPEED,,2 from the start halves that.
        let run = |speed: f64| {
            let mut stream: GraphStream = std::iter::once(StreamEntry::speed(speed)).collect();
            stream.extend(vertices(400));
            let session = ReplaySession::new(ReplaySessionConfig {
                replayer: at(4_000.0),
                ..Default::default()
            });
            let report = replay_all(&session, &stream, &mut CollectSink::new()).unwrap();
            report.duration_micros as f64
        };
        let base = run(1.0);
        assert!(
            (75_000.0..125_000.0).contains(&base),
            "400 events at 4k/s took {base} µs"
        );
        let doubled = run(2.0);
        assert!(
            (0.4..0.6).contains(&(doubled / base)),
            "SPEED,,2 took {doubled} µs against {base} µs"
        );
    }
}

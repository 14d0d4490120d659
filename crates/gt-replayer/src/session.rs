//! The end-to-end replay pipeline: source → read → pace → sink.
//!
//! [`ReplaySession`] is the one single-sink driver, for a stream file and
//! an in-memory stream alike. It composes the decoupled reader
//! ([`crate::reader::read_source`] on a scoped thread, so it can borrow
//! an in-memory stream as well as open a file), the bounded chunk queue
//! ([`crate::reader::chunk_queue`]) and the pacing emitter into the
//! multi-threaded design of §5.1 — the stream is read on one thread and
//! emitted on another, so a stream file of any length replays in bounded
//! memory (the queue holds at most `buffer` entries; the file is never
//! materialized). The emitter pays one queue operation, one stall
//! measurement and one queue-depth sample per chunk, and the trace stamp,
//! abort check, pacer poll and deadline-miss sample per event.
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
//! virtual times. Passing a shared hub (and clock) lets harness logger
//! threads sample the pipeline live; the hub has every series from
//! [`ReplaySession::with_hub`] on, so a sample taken before the run
//! starts already lists them all. The final values are also folded into
//! the returned [`SessionReport`].

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use gt_core::prelude::*;
use gt_metrics::hub::{Counter, Gauge};
use gt_metrics::{Clock, Histogram, HistogramSnapshot, MetricsHub, WallClock};
use gt_trace::{Probe, Stage, Tracer};

use crate::errors::ReplayError;
use crate::reader::{entry_queue, read_source, ChunkReceiver, StreamSource, MAX_CHUNK};
use crate::replayer::{ReplayReport, Replayer, ReplayerConfig};
use crate::sink::{EventSink, SinkEvent};

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

    /// Attaches a shared abort flag, forwarded to the emitter stage: when
    /// set (normally by an experiment watchdog), the replay stops early
    /// and the report's `replay.aborted` is true. The reader thread winds
    /// down on its own once the emitter drops the queue.
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
        let series = &self.series;
        let mut entries = InstrumentedRx {
            rx,
            chunk: Vec::new(),
            next: 0,
            queue_depth: &series.queue_depth,
            reader_stall: &series.reader_stall,
            max_depth: 0,
            trace_probe: self.tracer.as_ref().map(|t| t.probe(Stage::ReaderDequeue)),
            clock: &*self.clock,
        };
        let mut instrumented_sink = InstrumentedSink {
            inner: sink,
            sink_stall: &series.sink_stall,
            clock: &*self.clock,
            trace_probe: self.tracer.as_ref().map(|t| t.probe(Stage::SinkWrite)),
        };

        let replayer = Replayer {
            config: self.config.replayer.clone(),
            clock: Arc::clone(&self.clock),
            ingress: series.ingress.clone(),
            emit_latency: series.emit_latency.clone(),
            trace_probe: self.tracer.as_ref().map(|t| t.probe(Stage::PacedEmit)),
            abort: self.abort.clone(),
        };

        // Everything the emitter holds moves into the scope: should it
        // panic, unwinding drops the queue, which frees the reader for the
        // scope's join.
        let (replayed, reader_result, max_queue_depth) = std::thread::scope(move |scope| {
            let reader = std::thread::Builder::new()
                .name("gt-stream-reader".into())
                .spawn_scoped(scope, move || read_source(source, tx))
                .expect("spawning reader thread");
            let replayed = replayer.replay(&mut entries, &mut instrumented_sink);
            // Hanging up unblocks the reader, so the join cannot deadlock.
            let max_depth = entries.max_depth;
            drop(entries);
            (replayed, reader.join(), max_depth)
        });

        let replay = replayed.map_err(ReplayError::from_sink_error)?;
        let entries_read = match reader_result {
            Ok(Ok(n)) => n,
            Ok(Err(e)) => return Err(ReplayError::Source(e)),
            Err(_) => return Err(ReplayError::ReaderPanicked),
        };

        Ok(SessionReport {
            replay,
            entries_read,
            reader_stall_micros: series.reader_stall.get(),
            sink_stall_micros: series.sink_stall.get(),
            max_queue_depth,
            emit_latency: series.emit_latency.snapshot(),
            sink_events: sink.drain_events(),
        })
    }
}

/// The reader→emitter queue, instrumented. Per chunk: time blocked on
/// the queue is reader stall, and the entries queued before and after
/// the take feed the queue-depth gauge and its maximum. Per event: the
/// trace stamp. The chunk keeps its entries; what the emitter gets is a
/// clone of the handle. Its `size_hint` is the rest of the current chunk,
/// so the emitter delivers its pending batch — and drops its clones —
/// at every chunk end, before a pull that hands the chunk back to the
/// reader (which then reuses every entry no sink kept) and may wait on
/// it.
struct InstrumentedRx<'a> {
    rx: ChunkReceiver<SharedEntry>,
    /// The current chunk.
    chunk: Vec<SharedEntry>,
    /// Index in `chunk` of the next entry to yield.
    next: usize,
    queue_depth: &'a Gauge,
    reader_stall: &'a Counter,
    max_depth: i64,
    trace_probe: Option<Probe>,
    clock: &'a dyn Clock,
}

impl InstrumentedRx<'_> {
    /// Hands the used-up chunk back and takes the next; `false` once the
    /// reader is done.
    fn next_chunk(&mut self) -> bool {
        // Sample occupancy before taking as well as after: a reader parked
        // on a full queue refills the freed slot only after the take, so
        // the post-take depth alone never observes the capacity-pinned
        // state.
        self.max_depth = self.max_depth.max(self.rx.queued() as i64);
        let start = self.clock.now_micros();
        self.next = 0;
        let next = self.rx.recv(std::mem::take(&mut self.chunk), || {});
        self.reader_stall
            .add(self.clock.now_micros().saturating_sub(start));
        let depth = self.rx.queued() as i64;
        self.queue_depth.set(depth);
        self.max_depth = self.max_depth.max(depth);
        let Some(chunk) = next else {
            return false;
        };
        self.chunk = chunk;
        true
    }
}

impl Iterator for InstrumentedRx<'_> {
    type Item = SharedEntry;

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.chunk.len() - self.next, None)
    }

    fn next(&mut self) -> Option<SharedEntry> {
        if self.next == self.chunk.len() && !self.next_chunk() {
            return None;
        }
        // Chunks are never empty.
        let entry = SharedEntry::clone(&self.chunk[self.next]);
        self.next += 1;
        // Only graph events advance the trace sequence — every stage must
        // count the same stream positions for seq-based matching to hold.
        if let Some(probe) = &self.trace_probe {
            if entry.is_graph() {
                probe.stamp();
            }
        }
        Some(entry)
    }
}

/// Times every sink call on the session's clock, accumulating sink stall.
struct InstrumentedSink<'a, S: ?Sized> {
    inner: &'a mut S,
    sink_stall: &'a Counter,
    trace_probe: Option<Probe>,
    clock: &'a dyn Clock,
}

impl<S: ?Sized> InstrumentedSink<'_, S> {
    /// Makes one call into the sink, booking its clock time as sink stall.
    fn timed<T>(&mut self, call: impl FnOnce(&mut S) -> T) -> T {
        let start = self.clock.now_micros();
        let result = call(self.inner);
        self.sink_stall
            .add(self.clock.now_micros().saturating_sub(start));
        result
    }
}

impl<S: EventSink + ?Sized> EventSink for InstrumentedSink<'_, S> {
    fn open(&mut self) -> std::io::Result<()> {
        self.inner.open()
    }

    fn send(&mut self, entry: &StreamEntry) -> std::io::Result<()> {
        // Stamp on entry (before the write) so the sink-write stamp never
        // precedes the paced-emit stamp of the same event. Markers and
        // control events do not advance the trace sequence.
        if let Some(probe) = &self.trace_probe {
            if entry.is_graph() {
                probe.stamp();
            }
        }
        self.timed(|sink| sink.send(entry))
    }

    fn send_batch(&mut self, batch: &[SharedEntry]) -> std::io::Result<()> {
        // Replayer batches carry only graph events, so the whole batch
        // advances the trace sequence.
        if let Some(probe) = &self.trace_probe {
            probe.stamp_n(batch.len() as u64);
        }
        self.timed(|sink| sink.send_batch(batch))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.timed(|sink| sink.flush())
    }

    fn close(&mut self) -> std::io::Result<()> {
        self.timed(|sink| sink.close())
    }

    fn drain_events(&mut self) -> Vec<SinkEvent> {
        self.inner.drain_events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CollectSink;
    use std::path::{Path, PathBuf};

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
            replayer: ReplayerConfig {
                target_rate: 1e7,
                ..Default::default()
            },
            buffer,
        }
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
}

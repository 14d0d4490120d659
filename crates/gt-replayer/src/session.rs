//! The end-to-end replay pipeline: file → parse → pace → sink.
//!
//! [`ReplaySession`] composes the decoupled reader thread
//! ([`crate::reader::spawn_file_reader`]), the bounded hand-off channel,
//! and the pacing [`crate::Replayer`] into the multi-threaded design of
//! §5.1 — the stream is parsed on one thread and emitted on another, so
//! a stream of any length replays in bounded memory (the channel holds at
//! most `buffer` entries; the file is never materialized). Entries cross
//! the channel a chunk at a time ([`crate::reader`]): the emitter pays
//! one channel operation, one stall measurement and one queue-depth
//! sample per chunk, and the trace stamp, abort check, pacer poll and
//! deadline-miss sample per event.
//!
//! Every stage is instrumented through a [`MetricsHub`]:
//!
//! | metric | type | meaning |
//! |---|---|---|
//! | `ingress_events` | counter | graph events emitted |
//! | `queue_depth` | gauge | entries in the reader→emitter channel, sampled at each chunk taken |
//! | `reader_stall_micros` | counter | emitter time blocked on an empty channel (reader too slow) |
//! | `sink_stall_micros` | counter | emitter time blocked in `send`/`flush` (consumer too slow) |
//! | `emit_latency_micros` | histogram | per-event deadline miss |
//!
//! Passing a shared hub (and clock) lets harness logger threads sample
//! the pipeline live; the final values are also folded into the returned
//! [`SessionReport`].

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gt_core::prelude::*;
use gt_metrics::hub::{Counter, Gauge};
use gt_metrics::{Clock, HistogramSnapshot, MetricsHub, WallClock};
use gt_trace::{Probe, Stage, Tracer};

use crate::errors::ReplayError;
use crate::reader::{spawn_file_reader, EntryReceiver, DEFAULT_BUFFER};
use crate::replayer::{ReplayReport, Replayer, ReplayerConfig};
use crate::sink::{EventSink, SinkEvent};

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct ReplaySessionConfig {
    /// Pacing and reporting configuration for the emitter stage.
    pub replayer: ReplayerConfig,
    /// Capacity of the reader→emitter channel, in entries. This is the
    /// pipeline's only buffering — it bounds both memory use and how far
    /// the reader can run ahead. The bound is met in chunks of
    /// `min(256, buffer)` entries: the channel has `buffer / chunk` slots,
    /// and besides what it holds only the one chunk in the reader's hand
    /// and the one in the emitter's exist.
    pub buffer: usize,
    /// Read the stream file through a memory mapping
    /// ([`crate::mmap::spawn_mmap_reader`]) instead of the buffered
    /// reader: borrowed parsing straight out of the page cache, the
    /// choice for multi-GB replays. Off by default.
    pub mmap: bool,
}

impl Default for ReplaySessionConfig {
    fn default() -> Self {
        ReplaySessionConfig {
            replayer: ReplayerConfig::default(),
            buffer: DEFAULT_BUFFER,
            mmap: false,
        }
    }
}

/// What a pipeline run measured: the emitter's streaming metrics plus
/// per-stage health.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// The emitter's streaming metrics (rates, markers, pauses).
    pub replay: ReplayReport,
    /// Entries the reader parsed from the file.
    pub entries_read: u64,
    /// Cumulative time the emitter spent waiting on an empty channel.
    pub reader_stall_micros: u64,
    /// Cumulative time the emitter spent inside sink `send`/`flush`.
    pub sink_stall_micros: u64,
    /// Highest observed reader→emitter channel occupancy.
    pub max_queue_depth: i64,
    /// Distribution of per-event deadline misses, microseconds.
    pub emit_latency: HistogramSnapshot,
    /// Notable sink events (disconnects, reconnects), drained after the
    /// replay.
    pub sink_events: Vec<SinkEvent>,
}

/// The file-backed, fault-tolerant replay pipeline driver.
pub struct ReplaySession {
    config: ReplaySessionConfig,
    clock: Arc<dyn Clock>,
    hub: MetricsHub,
    tracer: Option<Tracer>,
    abort: Option<Arc<AtomicBool>>,
}

impl ReplaySession {
    /// A session with its own clock and a private metrics hub.
    pub fn new(config: ReplaySessionConfig) -> Self {
        ReplaySession {
            config,
            clock: Arc::new(WallClock::start()),
            hub: MetricsHub::new(),
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
    /// pipeline while it runs.
    #[must_use]
    pub fn with_hub(mut self, hub: MetricsHub) -> Self {
        self.hub = hub;
        self
    }

    /// The hub carrying the pipeline's live metrics.
    pub fn hub(&self) -> &MetricsHub {
        &self.hub
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
    /// down on its own once the emitter drops the channel.
    #[must_use]
    pub fn with_abort_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.abort = Some(flag);
        self
    }

    /// Streams `path` through the pipeline into `sink`. The file is read
    /// and parsed on a dedicated thread; this thread paces and emits.
    pub fn run<S: EventSink + ?Sized>(
        &self,
        path: impl AsRef<Path>,
        sink: &mut S,
    ) -> Result<SessionReport, ReplayError> {
        let (rx, reader_handle) = if self.config.mmap {
            crate::mmap::spawn_mmap_reader(path.as_ref(), self.config.buffer)
        } else {
            spawn_file_reader(path.as_ref(), self.config.buffer)
        };

        let max_queue_depth = Arc::new(AtomicI64::new(0));
        let entries = InstrumentedRx {
            rx,
            chunk: Vec::new().into_iter(),
            queue_depth: self.hub.gauge("queue_depth"),
            reader_stall: self.hub.counter("reader_stall_micros"),
            max_depth: Arc::clone(&max_queue_depth),
            trace_probe: self.tracer.as_ref().map(|t| t.probe(Stage::ReaderDequeue)),
        };
        let mut instrumented_sink = InstrumentedSink {
            inner: sink,
            sink_stall: self.hub.counter("sink_stall_micros"),
            trace_probe: self.tracer.as_ref().map(|t| t.probe(Stage::SinkWrite)),
        };

        let emit_latency = self.hub.histogram("emit_latency_micros");
        let mut replayer = Replayer::new(self.config.replayer.clone())
            .with_clock(Arc::clone(&self.clock))
            .with_ingress_counter(self.hub.counter("ingress_events"))
            .with_emit_latency(emit_latency.clone());
        if let Some(tracer) = &self.tracer {
            replayer = replayer.with_trace_probe(tracer.probe(Stage::PacedEmit));
        }
        if let Some(flag) = &self.abort {
            replayer = replayer.with_abort_flag(Arc::clone(flag));
        }

        // `replay` consumes the entry iterator, so by the time it returns
        // the receiver is dropped and the reader thread is unblocked and
        // winding down — joining it cannot deadlock, on either path.
        let replay_result = replayer.replay(entries, &mut instrumented_sink);
        let reader_result = reader_handle.join();

        let replay = replay_result.map_err(ReplayError::from_sink_error)?;
        let entries_read = match reader_result {
            Ok(Ok(n)) => n,
            Ok(Err(e)) => return Err(ReplayError::Source(e)),
            Err(_) => return Err(ReplayError::ReaderPanicked),
        };

        Ok(SessionReport {
            replay,
            entries_read,
            reader_stall_micros: self.hub.counter("reader_stall_micros").get(),
            sink_stall_micros: self.hub.counter("sink_stall_micros").get(),
            max_queue_depth: max_queue_depth.load(Ordering::Relaxed),
            emit_latency: emit_latency.snapshot(),
            sink_events: sink.drain_events(),
        })
    }
}

/// The reader→emitter channel, instrumented. Per chunk: time blocked on
/// the channel is reader stall, and the entries queued before and after
/// the take feed the queue-depth gauge and its maximum. Per event: the
/// trace stamp.
struct InstrumentedRx {
    rx: EntryReceiver,
    chunk: std::vec::IntoIter<SharedEntry>,
    queue_depth: Gauge,
    reader_stall: Counter,
    max_depth: Arc<AtomicI64>,
    trace_probe: Option<Probe>,
}

impl InstrumentedRx {
    fn next_chunk(&mut self) -> Option<Vec<SharedEntry>> {
        // Sample occupancy before taking as well as after: a reader parked
        // on a full channel refills the freed slot only after the take, so
        // the post-take depth alone never observes the capacity-pinned
        // state.
        self.max_depth
            .fetch_max(self.rx.queued() as i64, Ordering::Relaxed);
        let start = Instant::now();
        let chunk = self.rx.recv_chunk();
        self.reader_stall.add(start.elapsed().as_micros() as u64);
        let depth = self.rx.queued() as i64;
        self.queue_depth.set(depth);
        self.max_depth.fetch_max(depth, Ordering::Relaxed);
        chunk
    }
}

impl Iterator for InstrumentedRx {
    type Item = SharedEntry;

    fn next(&mut self) -> Option<SharedEntry> {
        let entry = match self.chunk.next() {
            Some(entry) => entry,
            None => {
                self.chunk = self.next_chunk()?.into_iter();
                self.chunk.next()? // chunks are never empty
            }
        };
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

/// Times every `send`/`flush`, accumulating sink stall.
struct InstrumentedSink<'a, S: ?Sized> {
    inner: &'a mut S,
    sink_stall: Counter,
    trace_probe: Option<Probe>,
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
        let start = Instant::now();
        let result = self.inner.send(entry);
        self.sink_stall.add(start.elapsed().as_micros() as u64);
        result
    }

    fn send_batch(&mut self, batch: &[SharedEntry]) -> std::io::Result<()> {
        // Replayer batches carry only graph events, so the whole batch
        // advances the trace sequence.
        if let Some(probe) = &self.trace_probe {
            probe.stamp_n(batch.len() as u64);
        }
        let start = Instant::now();
        let result = self.inner.send_batch(batch);
        self.sink_stall.add(start.elapsed().as_micros() as u64);
        result
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let start = Instant::now();
        let result = self.inner.flush();
        self.sink_stall.add(start.elapsed().as_micros() as u64);
        result
    }

    fn close(&mut self) -> std::io::Result<()> {
        let start = Instant::now();
        let result = self.inner.close();
        self.sink_stall.add(start.elapsed().as_micros() as u64);
        result
    }

    fn drain_events(&mut self) -> Vec<SinkEvent> {
        self.inner.drain_events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CollectSink;
    use std::path::PathBuf;

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
            mmap: false,
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
        match session.run("/nonexistent/stream.csv", &mut sink) {
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
        // queued — whether `buffer` is below, at or above the chunk size.
        // (`slow_consumer_backpressure_fills_queue` pins the other side:
        // a slow sink finds exactly `buffer` queued.)
        let path = temp_stream_file("entry-bound", 5_000);
        let want = GraphStream::read_from_file(&path).unwrap();
        for buffer in [1, 7, 64, 1_000] {
            let session = ReplaySession::new(fast_config(buffer));
            let mut sink = CollectSink::new();
            let report = session.run(&path, &mut sink).unwrap();
            assert_eq!(report.entries_read, 5_001);
            assert_eq!(sink.entries, want.entries(), "buffer {buffer}");
            assert!(
                report.max_queue_depth <= buffer as i64,
                "buffer {buffer}: {} queued",
                report.max_queue_depth
            );
        }
        std::fs::remove_file(path).ok();
    }
}

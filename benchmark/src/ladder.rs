//! The per-layer ladder: each rung times one layer's public functions on
//! the streams the workloads use, from outside, and records a span.
//!
//! Rungs run one after another on an otherwise idle process, so a rung's
//! ns/event is that layer's cost when nothing contends with it. The
//! end-to-end passes run the same layers concurrently on two cores; the
//! README's accounting section says how the two relate.

use std::hint::black_box;
use std::io::{self, Read};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gt_core::prelude::*;
use gt_core::{parse_line_ref, write_line};
use gt_graph::{ApplyPolicy, EvolvingGraph};
use gt_load::{
    run_load, ArrivalSchedule, ConnectorFactory, LoadPlan, LoopModel, SeededPartitioner,
};
use gt_metrics::{Clock, WallClock};
use gt_replayer::{
    EventSink, ReplaySession, ReplaySessionConfig, ReplayerConfig, SessionReport, TcpSink,
};
use gt_sut::SutRegistry;

use crate::probe::{Marks, ProbeSink};
use crate::spans::Spans;
use crate::workloads::{sut_options, CONNECTIONS, RANK_OPTIONS, STORE_OPTIONS, UNPACED_RATE};

/// Seconds of stream the paced rungs replay at the paced workload's rate.
const PACED_RUNG_SECS: f64 = 1.5;

/// Entries per `send_batch` when a rung feeds a connector directly — the
/// listener's own reader batch.
const CONNECTOR_BATCH: usize = 64;

/// Entries per `send_batch` into the TCP sink — the load client's write
/// burst.
const SINK_BATCH: usize = 256;

const QUIESCE_TIMEOUT: Duration = Duration::from_secs(30);

/// The ladder's spans all belong to pass 0.
const LADDER_PASS: u32 = 0;

/// The streams the rungs run on: the workloads' own.
pub struct LadderStreams<'a> {
    /// `store-tcp-unpaced`'s stream.
    pub snb: &'a GraphStream,
    /// `store-direct-mixed`'s stream.
    pub mixed: &'a GraphStream,
    /// `graph-direct-rank`'s stream.
    pub rank: &'a GraphStream,
    /// Total rate of the paced workload, events/s.
    pub paced_rate: f64,
}

#[derive(Default)]
pub struct LadderResult {
    pub values: Vec<(&'static str, f64)>,
    /// Graph events pushed through the rungs.
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl LadderResult {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Counts graph events and drops them: the null consumer of the
/// replayer and listener rungs.
struct CountingSink(Arc<AtomicU64>);

impl EventSink for CountingSink {
    fn send(&mut self, entry: &StreamEntry) -> io::Result<()> {
        if entry.is_graph() {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    fn send_batch(&mut self, batch: &[SharedEntry]) -> io::Result<()> {
        let graph = batch.iter().filter(|e| e.is_graph()).count() as u64;
        self.0.fetch_add(graph, Ordering::Relaxed);
        Ok(())
    }
}

fn graph_events(stream: &GraphStream) -> u64 {
    stream.graph_events().count() as u64
}

fn shared_graph_entries(stream: &GraphStream) -> Vec<SharedEntry> {
    stream
        .entries()
        .iter()
        .filter(|e| e.is_graph())
        .map(|e| SharedEntry::new(e.clone()))
        .collect()
}

/// Times `f` inside a span and returns its result with the elapsed
/// nanoseconds.
fn timed<T>(spans: &mut Spans, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    spans.scope(name, LADDER_PASS, |_| {
        let started = Instant::now();
        let out = f();
        (out, started.elapsed().as_nanos() as f64)
    })
}

pub fn run_ladder(
    streams: &LadderStreams,
    platforms: &SutRegistry,
    out_dir: &Path,
    seed: u64,
    spans: &mut Spans,
) -> io::Result<LadderResult> {
    let mut result = LadderResult::default();
    let r = &mut result;
    spans.scope("ladder", LADDER_PASS, |spans| -> io::Result<()> {
        let snb_events = graph_events(streams.snb);
        let snb_path = out_dir.join("ladder-snb.csv");
        streams
            .snb
            .write_to_file(&snb_path)
            .map_err(io::Error::other)?;

        // A prefix of the same stream for the rungs that run at the paced
        // workload's rate: long enough for percentiles, short enough to
        // leave the run's time to the end-to-end passes.
        let paced_len = ((streams.paced_rate * PACED_RUNG_SECS) as usize).min(streams.snb.len());
        let paced = GraphStream::from_entries(streams.snb.entries()[..paced_len].to_vec());
        let paced_path = out_dir.join("ladder-paced.csv");
        paced.write_to_file(&paced_path).map_err(io::Error::other)?;

        core_rungs(r, streams.snb, &snb_path, snb_events, spans)?;
        replayer_rungs(
            r,
            streams,
            &snb_path,
            &paced_path,
            snb_events,
            graph_events(&paced),
            spans,
        )?;
        load_rungs(r, streams, &paced, snb_events, seed, spans)?;
        for (stream, graph_metric, store_metric, tx_metric) in [
            (
                streams.snb,
                "gt-graph.apply_ns_per_event.snb",
                "tide-store.apply_ns_per_event.snb",
                "tide-store.transactions.snb",
            ),
            (
                streams.mixed,
                "gt-graph.apply_ns_per_event.mixed",
                "tide-store.apply_ns_per_event.mixed",
                "tide-store.transactions.mixed",
            ),
        ] {
            let reference = graph_rung(r, stream, graph_metric, spans);
            store_rung(
                r,
                stream,
                &reference,
                platforms,
                store_metric,
                tx_metric,
                spans,
            )?;
        }
        rank_rung(r, streams.rank, platforms, spans)
    })?;
    Ok(result)
}

/// `gt-core`: borrowed parsing over the file's bytes, and formatting into
/// a reused buffer. On the wire path every event is formatted once
/// (client) and parsed twice (file reader, listener).
fn core_rungs(
    r: &mut LadderResult,
    snb: &GraphStream,
    path: &PathBuf,
    events: u64,
    spans: &mut Spans,
) -> io::Result<()> {
    let text = std::fs::read_to_string(path)?;
    let (parsed, ns) = timed(spans, "gt-core.parse", || {
        let mut graph = 0u64;
        for line in text.lines() {
            if let Ok(Some(entry)) = parse_line_ref(line) {
                graph += u64::from(entry.is_graph());
                black_box(&entry);
            }
        }
        graph
    });
    r.check(parsed == events, || {
        format!("gt-core.parse: {parsed} of {events} events")
    });
    r.set("gt-core.parse_ns_per_event", ns / events as f64);
    r.attempted += events;

    let (bytes, ns) = timed(spans, "gt-core.format", || {
        let mut line = String::with_capacity(128);
        let mut bytes = 0usize;
        for entry in snb.entries() {
            line.clear();
            write_line(entry, &mut line);
            bytes += black_box(&line).len();
        }
        bytes
    });
    r.check(bytes > 0, || "gt-core.format: wrote nothing".to_owned());
    r.set("gt-core.format_ns_per_event", ns / events as f64);
    r.attempted += events;
    Ok(())
}

fn replay_session(
    path: &Path,
    rate: f64,
    spans: &mut Spans,
    name: &str,
) -> io::Result<(SessionReport, u64, f64)> {
    let config = ReplaySessionConfig {
        replayer: ReplayerConfig {
            target_rate: rate,
            ..ReplayerConfig::default()
        },
        ..ReplaySessionConfig::default()
    };
    let counted = Arc::new(AtomicU64::new(0));
    let mut sink = CountingSink(Arc::clone(&counted));
    let (report, ns) = timed(spans, name, || {
        ReplaySession::new(config).run(path, &mut sink)
    });
    let report = report.map_err(|e| io::Error::other(e.to_string()))?;
    Ok((report, counted.load(Ordering::Relaxed), ns))
}

/// `gt-replayer`: the file → reader → channel → emit pipeline into a
/// counting sink (unpaced for its ceiling, paced for its lateness), and
/// the TCP sink into a socket that only drains.
fn replayer_rungs(
    r: &mut LadderResult,
    streams: &LadderStreams,
    snb_path: &Path,
    paced_path: &Path,
    snb_events: u64,
    paced_events: u64,
    spans: &mut Spans,
) -> io::Result<()> {
    let (report, counted, ns) =
        replay_session(snb_path, UNPACED_RATE, spans, "gt-replayer.session")?;
    r.check(counted == snb_events, || {
        format!("gt-replayer.session: {counted} of {snb_events} events")
    });
    r.set("gt-replayer.session_ns_per_event", ns / snb_events as f64);
    r.set(
        "gt-replayer.reader_stall_us",
        report.reader_stall_micros as f64,
    );
    r.set("gt-replayer.sink_stall_us", report.sink_stall_micros as f64);
    r.set(
        "gt-replayer.queue_depth_peak",
        report.max_queue_depth as f64,
    );
    r.attempted += snb_events;

    let entries = shared_graph_entries(streams.snb);
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let (bytes, ns) = std::thread::scope(|scope| -> io::Result<(u64, f64)> {
        let drain = scope.spawn(move || -> io::Result<u64> {
            let (mut socket, _) = listener.accept()?;
            let mut buf = vec![0u8; 64 * 1024];
            let mut total = 0u64;
            loop {
                match socket.read(&mut buf)? {
                    0 => return Ok(total),
                    n => total += n as u64,
                }
            }
        });
        let mut sink = TcpSink::connect(addr)?;
        let (sent, ns) = timed(spans, "gt-replayer.tcp_sink", || -> io::Result<()> {
            for batch in entries.chunks(SINK_BATCH) {
                sink.send_batch(batch)?;
            }
            sink.close()
        });
        sent?;
        drop(sink);
        let bytes = drain
            .join()
            .map_err(|_| io::Error::other("drain thread panicked"))??;
        Ok((bytes, ns))
    })?;
    r.set("gt-replayer.tcp_sink_ns_per_event", ns / snb_events as f64);
    r.set(
        "gt-replayer.tcp_sink_bytes_per_event",
        bytes as f64 / snb_events as f64,
    );
    r.attempted += snb_events;

    let (report, counted, _) = replay_session(
        paced_path,
        streams.paced_rate,
        spans,
        "gt-replayer.session-paced",
    )?;
    r.check(counted == paced_events, || {
        format!("gt-replayer.session-paced: {counted} of {paced_events} events")
    });
    // The replayer's lateness histogram has power-of-two buckets; these
    // are the upper bounds of the buckets holding the quantiles.
    let lateness = &report.emit_latency;
    r.set(
        "gt-replayer.emit_lateness_p50_us",
        lateness.quantile_upper_bound(0.50) as f64,
    );
    r.set(
        "gt-replayer.emit_lateness_p99_us",
        lateness.quantile_upper_bound(0.99) as f64,
    );
    r.attempted += paced_events;
    Ok(())
}

/// Counting connectors that stamp `marks`, so the fan-out rung's window
/// opens where the end-to-end window does: at the first connector write.
fn counting_factory(counted: &Arc<AtomicU64>, marks: &Arc<Marks>) -> ConnectorFactory {
    let (counted, marks) = (Arc::clone(counted), Arc::clone(marks));
    Box::new(move || {
        Ok(Box::new(ProbeSink {
            inner: Box::new(CountingSink(Arc::clone(&counted))),
            marks: Arc::clone(&marks),
        }) as Box<dyn EventSink + Send>)
    })
}

/// `gt-load`: partitioner and arrival schedules (set-up work), then the
/// whole fan-out — clients, sockets, listener readers, marker barrier —
/// into a counting connector, unpaced and at the paced rate.
fn load_rungs(
    r: &mut LadderResult,
    streams: &LadderStreams,
    paced: &GraphStream,
    snb_events: u64,
    seed: u64,
    spans: &mut Spans,
) -> io::Result<()> {
    let load_seed = seed.wrapping_add(1);
    let (parts, ns) = timed(spans, "gt-load.partition", || {
        SeededPartitioner::new(CONNECTIONS, load_seed).split(streams.snb)
    });
    let largest = parts.iter().map(graph_events).max().unwrap_or(0);
    r.set("gt-load.partition_ns_per_event", ns / snb_events as f64);
    r.set(
        "gt-load.partition_skew",
        largest as f64 * CONNECTIONS as f64 / snb_events as f64,
    );
    drop(parts);

    let per_connection = snb_events as usize / CONNECTIONS;
    let (scheduled, ns) = timed(spans, "gt-load.schedule", || {
        (0..CONNECTIONS as u64)
            .map(|i| {
                let rate = streams.paced_rate / CONNECTIONS as f64;
                ArrivalSchedule::poisson(rate, per_connection, load_seed.wrapping_add(i)).len()
            })
            .sum::<usize>()
    });
    r.set(
        "gt-load.schedule_ns_per_event",
        ns / black_box(scheduled) as f64,
    );

    // Unpaced: from the first connector write to `run_load` returning
    // (every reader at end of stream, every connector flushed).
    let counted = Arc::new(AtomicU64::new(0));
    let marks = Marks::new(false);
    let plan = LoadPlan::single(CONNECTIONS, UNPACED_RATE, LoopModel::Open, load_seed);
    let clock: Arc<dyn Clock> = Arc::new(WallClock::start());
    let outcome = spans.scope("gt-load.run_load", LADDER_PASS, |spans| -> io::Result<_> {
        let outcome = run_load(
            streams.snb,
            &plan,
            counting_factory(&counted, &marks),
            clock,
        )?;
        marks.close();
        let window = marks
            .window()
            .ok_or_else(|| io::Error::other("no entry reached a connector"))?;
        let interval = (window.opened.at, window.closed.at);
        spans.record(
            "gt-load.listener",
            LADDER_PASS,
            None,
            interval,
            Some(window.cpu_ns()),
        );
        Ok((outcome, window.seconds() * 1e9))
    });
    let (outcome, ns) = outcome?;
    let delivered = counted.load(Ordering::Relaxed);
    r.check(
        delivered == snb_events
            && outcome.listener.parse_errors == 0
            && outcome.client_failures.is_empty(),
        || format!("gt-load.listener: {delivered} of {snb_events} events delivered cleanly"),
    );
    r.set("gt-load.listener_ns_per_event", ns / snb_events as f64);
    r.attempted += snb_events;

    let paced_events = graph_events(paced);
    let counted = Arc::new(AtomicU64::new(0));
    let plan = LoadPlan::single(CONNECTIONS, streams.paced_rate, LoopModel::Open, load_seed);
    let clock: Arc<dyn Clock> = Arc::new(WallClock::start());
    let (outcome, _) = timed(spans, "gt-load.run_load-paced", || {
        run_load(
            paced,
            &plan,
            counting_factory(&counted, &Marks::new(false)),
            clock,
        )
    });
    let outcome = outcome?;
    let delivered = counted.load(Ordering::Relaxed);
    r.check(
        delivered == paced_events && outcome.client_failures.is_empty(),
        || format!("gt-load paced: {delivered} of {paced_events} events delivered"),
    );
    let sojourn: Vec<f64> = outcome
        .clients
        .iter()
        .flat_map(|c| c.sojourn.iter().map(|&(_, us)| us as f64))
        .collect();
    let sojourn = gt_analysis::percentiles::CleanSeries::of(&sojourn);
    for (metric, p) in [
        ("gt-load.sojourn_p50_us", 50.0),
        ("gt-load.sojourn_p99_us", 99.0),
    ] {
        r.set(metric, sojourn.percentile(p).unwrap_or(f64::NAN));
    }
    let backlog = outcome
        .clients
        .iter()
        .map(|c| c.backlog_peak)
        .max()
        .unwrap_or(0);
    r.set("gt-load.backlog_peak", backlog as f64);
    r.set("gt-load.achieved_ratio", outcome.achieved_ratio());
    r.attempted += paced_events;
    Ok(())
}

/// `gt-graph`: one thread applying the stream to an [`EvolvingGraph`] —
/// the single-threaded baseline, and the reference the store rung is
/// checked against.
fn graph_rung(
    r: &mut LadderResult,
    stream: &GraphStream,
    metric: &'static str,
    spans: &mut Spans,
) -> EvolvingGraph {
    let events = graph_events(stream);
    let (graph, ns) = timed(spans, metric, || {
        let mut graph = EvolvingGraph::new();
        for event in stream.graph_events() {
            let _ = graph.apply_with(event, ApplyPolicy::Lenient);
        }
        graph
    });
    r.check(graph.check_invariants().is_ok(), || {
        format!("{metric}: graph invariants broken")
    });
    r.set(metric, ns / events as f64);
    r.attempted += events;
    graph
}

/// Feeds pre-parsed shared entries straight into one platform connector
/// and waits for `quiesce`: the platform with no replayer and no wire in
/// front. Returns `(ns until the last write, ns until quiesce)`.
fn feed(
    sut: &mut Box<dyn gt_sut::SystemUnderTest>,
    entries: &[SharedEntry],
    failures: &mut Vec<String>,
) -> io::Result<(f64, f64)> {
    let mut connector = sut.connector()?;
    let started = Instant::now();
    for batch in entries.chunks(CONNECTOR_BATCH) {
        connector.send_batch(batch)?;
    }
    connector.close()?;
    drop(connector);
    let written = started.elapsed().as_nanos() as f64;
    if !sut.quiesce(QUIESCE_TIMEOUT) {
        failures.push(format!("{} did not quiesce", sut.name()));
    }
    Ok((written, started.elapsed().as_nanos() as f64))
}

/// `tide-store`: sequencer and shards applying the stream.
fn store_rung(
    r: &mut LadderResult,
    stream: &GraphStream,
    reference: &EvolvingGraph,
    platforms: &SutRegistry,
    metric: &'static str,
    tx_metric: &'static str,
    spans: &mut Spans,
) -> io::Result<()> {
    let entries = shared_graph_entries(stream);
    let events = entries.len() as u64;
    let mut sut = platforms
        .start(tide_store::sut::SUT_NAME, &sut_options(STORE_OPTIONS))
        .map_err(|e| io::Error::other(e.to_string()))?;
    let (fed, _) = timed(spans, metric, || feed(&mut sut, &entries, &mut r.failures));
    let (_, ns) = fed?;
    let (report, _) = timed(spans, "tide-store.shutdown", || sut.shutdown());
    let matches = report.get("events") == Some(events as f64)
        && report.get("vertices") == Some(reference.vertex_count() as f64)
        && report.get("edges") == Some(reference.edge_count() as f64);
    r.check(matches, || {
        format!("{metric}: final report differs from the gt-graph reference")
    });
    r.set(metric, ns / events as f64);
    r.set(tx_metric, report.get("transactions").unwrap_or(0.0));
    r.attempted += events;
    Ok(())
}

/// `tide-graph`: the rank engine ingesting the stream and draining its
/// share backlog.
fn rank_rung(
    r: &mut LadderResult,
    stream: &GraphStream,
    platforms: &SutRegistry,
    spans: &mut Spans,
) -> io::Result<()> {
    let entries = shared_graph_entries(stream);
    let events = entries.len() as u64;
    let mut sut = platforms
        .start(tide_graph::sut::SUT_NAME, &sut_options(RANK_OPTIONS))
        .map_err(|e| io::Error::other(e.to_string()))?;
    let (fed, _) = timed(spans, "tide-graph.ingest+drain", || {
        feed(&mut sut, &entries, &mut r.failures)
    });
    let (written_ns, total_ns) = fed?;
    let report = sut.shutdown();
    let shares = report.get("shares").unwrap_or(0.0);
    r.check(
        report.get("events") == Some(events as f64) && report.get("events_lost") == Some(0.0),
        || {
            format!(
                "tide-graph: {:?} of {events} events applied",
                report.get("events")
            )
        },
    );
    r.set("tide-graph.ingest_ns_per_event", written_ns / events as f64);
    r.set("tide-graph.shares_per_event", shares / events as f64);
    r.set("tide-graph.shares_per_s", shares / (total_ns / 1e9));
    r.set("tide-graph.drain_s", (total_ns - written_ns) / 1e9);
    r.attempted += events;
    Ok(())
}

//! Integration tests for the file→parse→pace→sink pipeline: backpressure
//! under a slow consumer, TCP reconnection mid-replay, bounded-memory
//! replay of a large stream, and handles a sink keeps surviving the
//! reader's reuse of the entries.

use std::io::{self, BufRead, BufReader};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use gt_core::prelude::*;
use gt_metrics::ManualClock;
use gt_replayer::{
    CollectSink, EventSink, ReconnectPolicy, ReconnectingTcpSink, ReplaySession,
    ReplaySessionConfig, ReplayerConfig, SinkEventKind, StreamSource,
};

fn temp_stream_file(name: &str, events: usize) -> PathBuf {
    let dir = std::env::temp_dir().join("gt-session-pipeline-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.csv"));
    let mut content = String::with_capacity(events * 16);
    for i in 0..events {
        content.push_str(&format!("ADD_VERTEX,{i},\n"));
    }
    content.push_str("MARKER,end,\n");
    std::fs::write(&path, content).unwrap();
    path
}

fn config(rate: f64, buffer: usize) -> ReplaySessionConfig {
    ReplaySessionConfig {
        replayer: ReplayerConfig {
            target_rate: rate,
            ..Default::default()
        },
        buffer,
    }
}

/// A sink that dawdles on every delivery, like an overloaded system under
/// test.
struct SlowSink {
    delay: Duration,
    received: u64,
}

impl EventSink for SlowSink {
    fn send(&mut self, _entry: &StreamEntry) -> io::Result<()> {
        std::thread::sleep(self.delay);
        self.received += 1;
        Ok(())
    }
}

#[test]
fn slow_consumer_backpressure_fills_queue() {
    // The replayer wants 1M events/s but the sink takes ~200us per event:
    // the reader races ahead and parks at the bounded channel's capacity,
    // which the queue-depth gauge must observe.
    let path = temp_stream_file("backpressure", 500);
    let session = ReplaySession::new(config(1e6, 32));
    let mut sink = SlowSink {
        delay: Duration::from_micros(200),
        received: 0,
    };
    let report = session.run(&path, &mut sink).unwrap();
    assert_eq!(sink.received, 501);
    assert_eq!(
        report.max_queue_depth, 32,
        "backpressure never filled the bounded channel"
    );
    // ~500 × 200us of sink time must show up as sink stall, and dwarf
    // reader stall (the file is tiny and parsed instantly).
    assert!(
        report.sink_stall_micros >= 80_000,
        "sink stall {}us",
        report.sink_stall_micros
    );
    assert!(
        report.sink_stall_micros > report.reader_stall_micros,
        "sink stall {}us vs reader stall {}us",
        report.sink_stall_micros,
        report.reader_stall_micros
    );
    // A slow sink means emissions run behind schedule: deadline misses.
    assert!(report.emit_latency.max > 0);
    std::fs::remove_file(path).ok();
}

/// Binds `addr`, retrying briefly: the port may still be settling right
/// after the previous listener dropped.
fn rebind(addr: std::net::SocketAddr) -> TcpListener {
    for _ in 0..200 {
        match TcpListener::bind(addr) {
            Ok(l) => return l,
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    panic!("could not rebind {addr}");
}

#[test]
fn tcp_listener_restart_mid_replay_completes() {
    let path = temp_stream_file("reconnect", 40_000);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    // The "system under test": accepts, consumes a slice of the stream,
    // dies, restarts, and consumes the rest.
    let consumer = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        drop(listener);
        let mut lines = BufReader::new(stream).lines();
        let mut first_batch = 0usize;
        for _ in 0..1_000 {
            if lines.next().is_none() {
                break;
            }
            first_batch += 1;
        }
        // Kill the connection mid-replay (drops both reader and socket).
        drop(lines);

        let listener = rebind(addr);
        let (stream, _) = listener.accept().unwrap();
        let rest: Vec<String> = BufReader::new(stream).lines().map(|l| l.unwrap()).collect();
        (first_batch, rest)
    });

    let session = ReplaySession::new(config(200_000.0, 1_024));
    let mut sink = ReconnectingTcpSink::connect(addr)
        .unwrap()
        .with_policy(ReconnectPolicy {
            max_attempts: 100,
            initial_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(50),
            multiplier: 2.0,
            ..Default::default()
        })
        .with_flush_every(64);
    let report = session.run(&path, &mut sink).unwrap();
    sink.flush().unwrap();
    drop(sink);

    // The whole stream was emitted despite the mid-replay restart...
    assert_eq!(report.replay.graph_events, 40_000);
    // ...and the outage is visible in the report.
    assert!(
        report
            .sink_events
            .iter()
            .any(|e| matches!(e.kind, SinkEventKind::Disconnected { .. })),
        "no disconnect event: {:?}",
        report.sink_events
    );
    assert!(
        report
            .sink_events
            .iter()
            .any(|e| matches!(e.kind, SinkEventKind::Reconnected { .. })),
        "no reconnect event: {:?}",
        report.sink_events
    );

    let (first_batch, rest) = consumer.join().unwrap();
    assert!(first_batch > 0);
    // The tail of the stream reached the restarted consumer, ending with
    // the marker line.
    assert!(!rest.is_empty());
    assert_eq!(rest.last().unwrap(), "MARKER,end,");
    std::fs::remove_file(path).ok();
}

/// Counts deliveries without storing them — so a multi-megabyte stream
/// replay holds only the bounded channel in memory.
struct CountingSink {
    graph_events: u64,
    markers: u64,
}

impl EventSink for CountingSink {
    fn send(&mut self, entry: &StreamEntry) -> io::Result<()> {
        match entry {
            StreamEntry::Graph(_) => self.graph_events += 1,
            StreamEntry::Marker(_) => self.markers += 1,
            StreamEntry::Control(_) => {}
        }
        Ok(())
    }
}

#[test]
fn million_event_stream_replays_in_bounded_memory() {
    let path = temp_stream_file("million", 1_000_000);
    let session = ReplaySession::new(config(1e9, 1_024));
    let mut sink = CountingSink {
        graph_events: 0,
        markers: 0,
    };
    let report = session.run(&path, &mut sink).unwrap();
    assert_eq!(report.replay.graph_events, 1_000_000);
    assert_eq!(report.entries_read, 1_000_001);
    assert_eq!(sink.graph_events, 1_000_000);
    assert_eq!(sink.markers, 1);
    // The only buffering between file and sink is the bounded channel.
    assert!(
        report.max_queue_depth <= 1_024,
        "queue depth {} exceeded channel capacity",
        report.max_queue_depth
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn honors_controls_through_the_pipeline() {
    // PAUSE and SPEED lines flow file → reader → pacer: the pause must
    // register as paused time in the report, not as rate loss. On a
    // ManualClock every wait jumps it, so the times are exact whatever
    // the host is doing.
    let dir = std::env::temp_dir().join("gt-session-pipeline-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("controls.csv");
    let mut content = String::new();
    for i in 0..100 {
        content.push_str(&format!("ADD_VERTEX,{i},\n"));
    }
    content.push_str("PAUSE,,50\n");
    content.push_str("SPEED,,2\n");
    for i in 100..200 {
        content.push_str(&format!("ADD_VERTEX,{i},\n"));
    }
    std::fs::write(&path, content).unwrap();

    let session = ReplaySession::new(config(50_000.0, 64)).with_clock(Arc::new(ManualClock::new()));
    let mut sink = CountingSink {
        graph_events: 0,
        markers: 0,
    };
    let report = session.run(&path, &mut sink).unwrap();
    assert_eq!(report.replay.graph_events, 200);
    assert_eq!(report.replay.paused_micros, 50_000);
    // 100 slots of 20 µs, the pause, then one slot issued before the
    // SPEED line at the old interval and 99 of 10 µs.
    assert_eq!(report.replay.duration_micros, 2_000 + 50_000 + 20 + 99 * 10);
    // The pause did not leak into the rate: 200 events in 3 010 active µs.
    assert_eq!(report.replay.achieved_rate, 200.0 / (3_010.0 / 1e6));
    std::fs::remove_file(path).ok();
}

/// Keeps every `every`-th graph event handle it is given past the call —
/// as a platform's mailboxes or a delay buffer do — and forwards
/// everything to a [`CollectSink`], which keeps no handle (it copies).
struct KeepingSink {
    every: usize,
    /// Stream positions delivered so far.
    position: usize,
    /// Each kept handle with its stream position.
    kept: Vec<(usize, SharedEntry)>,
    inner: CollectSink,
}

impl KeepingSink {
    fn new(every: usize) -> Self {
        KeepingSink {
            every,
            position: 0,
            kept: Vec::new(),
            inner: CollectSink::new(),
        }
    }
}

impl EventSink for KeepingSink {
    fn send(&mut self, entry: &StreamEntry) -> io::Result<()> {
        self.position += 1;
        self.inner.send(entry)
    }

    fn send_batch(&mut self, batch: &[SharedEntry]) -> io::Result<()> {
        for entry in batch {
            if self.position % self.every == 0 {
                self.kept.push((self.position, SharedEntry::clone(entry)));
            }
            self.position += 1;
        }
        self.inner.send_batch(batch)
    }
}

/// A stream file of distinct vertices with a marker every 997 of them.
fn marked_stream_file(name: &str, events: usize) -> PathBuf {
    let dir = std::env::temp_dir().join("gt-session-pipeline-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.csv"));
    let mut content = String::with_capacity(events * 24);
    for i in 0..events {
        if i % 997 == 0 {
            content.push_str(&format!("MARKER,m{i},\n"));
        }
        content.push_str(&format!("ADD_VERTEX,{i},s{i}\n"));
    }
    std::fs::write(&path, content).unwrap();
    path
}

#[test]
fn handles_a_sink_keeps_never_change_under_it() {
    // The reader reuses the allocation of every entry no sink still
    // holds. A handle a sink kept must keep reading the entry it was
    // given — whatever the source and the chunk size, and whether the
    // sink keeps every handle or only some of each chunk's.
    let path = marked_stream_file("aliasing", 20_000);
    let want = GraphStream::read_from_file(&path).unwrap();
    let graph_events = want.entries().iter().filter(|e| e.is_graph()).count();
    for source in [StreamSource::File(&path), StreamSource::Stream(&want)] {
        for buffer in [1, 7, 256, 65_536] {
            for every in [1, 3] {
                let session = ReplaySession::new(config(1e7, buffer));
                let mut sink = KeepingSink::new(every);
                let report = session.run(source, &mut sink).unwrap();
                let case = format!("{source:?}, buffer {buffer}, every {every}");
                assert_eq!(report.replay.graph_events, graph_events as u64, "{case}");
                assert_eq!(sink.inner.entries, want.entries(), "{case}");
                let kept: Vec<(usize, &StreamEntry)> = sink
                    .kept
                    .iter()
                    .map(|(at, entry)| (*at, &**entry))
                    .collect();
                let expected: Vec<(usize, &StreamEntry)> = want
                    .entries()
                    .iter()
                    .enumerate()
                    .filter(|(at, entry)| entry.is_graph() && at % every == 0)
                    .collect();
                assert_eq!(kept, expected, "{case}");
            }
            // A sink that keeps nothing gets the stream too, with every
            // entry reused.
            let session = ReplaySession::new(config(1e7, buffer));
            let mut sink = CollectSink::new();
            session.run(source, &mut sink).unwrap();
            assert_eq!(sink.entries, want.entries(), "{source:?}, buffer {buffer}");
        }
    }
    std::fs::remove_file(path).ok();
}

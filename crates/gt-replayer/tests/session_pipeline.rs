//! Integration tests for the file→parse→pace→sink pipeline: backpressure
//! under a slow consumer, TCP reconnection mid-replay, and bounded-memory
//! replay of a large stream.

use std::io::{self, BufRead, BufReader};
use std::net::TcpListener;
use std::path::PathBuf;
use std::time::Duration;

use gt_core::prelude::*;
use gt_replayer::{
    EventSink, ReconnectPolicy, ReconnectingTcpSink, ReplaySession, ReplaySessionConfig,
    ReplayerConfig, SinkEventKind,
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
    // register as paused time in the report, not as rate loss.
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

    let session = ReplaySession::new(config(50_000.0, 64));
    let mut sink = CountingSink {
        graph_events: 0,
        markers: 0,
    };
    let report = session.run(&path, &mut sink).unwrap();
    assert_eq!(report.replay.graph_events, 200);
    assert!(
        report.replay.paused_micros >= 50_000,
        "paused {}us",
        report.replay.paused_micros
    );
    assert!(
        report.replay.achieved_rate > 20_000.0,
        "pause leaked into achieved rate: {}",
        report.replay.achieved_rate
    );
    std::fs::remove_file(path).ok();
}

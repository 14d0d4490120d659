//! Acceptance test: a TCP listener killed and restarted mid-replay must
//! not abort a file-backed harness run — the replay completes through the
//! reconnecting sink, and the disconnect/reconnect events appear in the
//! merged result log alongside the ingress-rate series.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

use gt_harness::{run, RunPlan, Target};
use gt_replayer::{ReconnectPolicy, ReconnectingTcpSink};

fn rebind(addr: SocketAddr) -> TcpListener {
    for _ in 0..200 {
        match TcpListener::bind(addr) {
            Ok(l) => return l,
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    panic!("could not rebind {addr}");
}

#[test]
fn listener_restart_lands_in_result_log() {
    let dir = std::env::temp_dir().join("gt-harness-reconnect-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stream.csv");
    let mut content = String::new();
    for i in 0..30_000 {
        content.push_str(&format!("ADD_VERTEX,{i},\n"));
    }
    content.push_str("MARKER,stream-end,\n");
    std::fs::write(&path, content).unwrap();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let consumer = std::thread::spawn(move || {
        // First life: consume a slice, then die.
        let (stream, _) = listener.accept().unwrap();
        drop(listener);
        let mut lines = BufReader::new(stream).lines();
        for _ in 0..500 {
            if lines.next().is_none() {
                break;
            }
        }
        drop(lines);
        // Second life: consume the rest.
        let listener = rebind(addr);
        let (stream, _) = listener.accept().unwrap();
        BufReader::new(stream).lines().count()
    });

    let plan = RunPlan::new(&path, 150_000.0).with_buffer(512);
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
    let outcome = run(plan, Target::Sink(&mut sink)).unwrap();
    drop(sink);

    assert_eq!(outcome.replay().graph_events, 30_000);
    assert!(outcome.session().sink_events.len() >= 2);

    // The outage is visible in the merged result log, next to the
    // replayer's own series.
    let disconnects = outcome.log.metric_records("disconnect");
    let reconnects = outcome.log.metric_records("reconnect");
    assert!(disconnects.iter().any(|r| r.source == "sink"));
    assert!(reconnects.iter().any(|r| r.source == "sink"));
    // Chronology holds: the disconnect precedes the reconnect.
    assert!(disconnects[0].t_micros <= reconnects[0].t_micros);
    assert!(outcome.log.marker("stream-end").is_some());
    assert!(!outcome.log.series("replayer", "ingress_rate").is_empty());

    let consumed_after_restart = consumer.join().unwrap();
    assert!(consumed_after_restart > 0);
    std::fs::remove_file(path).ok();
}

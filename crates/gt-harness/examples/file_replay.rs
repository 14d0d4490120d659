//! File-backed replay pipeline demo: generates a stream file, replays it
//! through the decoupled reader→pacer pipeline into an in-process TCP
//! consumer, and prints the per-stage metrics and the merged result log's
//! shape.
//!
//! ```text
//! cargo run --example file_replay -p gt-harness
//! ```

use std::io::{BufRead, BufReader};
use std::net::TcpListener;

use gt_harness::{run, RunPlan, Target};
use gt_replayer::ReconnectingTcpSink;

fn main() {
    // 1. A stream file: 50k vertex additions with a mid-stream marker.
    let dir = std::env::temp_dir().join("gt-file-replay-example");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("stream.csv");
    let mut content = String::with_capacity(1 << 20);
    for i in 0..25_000 {
        content.push_str(&format!("ADD_VERTEX,{i},\n"));
    }
    content.push_str("MARKER,halfway,\n");
    for i in 25_000..50_000 {
        content.push_str(&format!("ADD_VERTEX,{i},\n"));
    }
    content.push_str("MARKER,stream-end,\n");
    std::fs::write(&path, content).expect("write stream file");

    // 2. A TCP consumer standing in for the system under test.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let consumer = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        BufReader::new(stream).lines().count()
    });

    // 3. Replay the file through the pipeline at 200k events/s.
    let plan = RunPlan::new(&path, 200_000.0).with_buffer(4_096);
    let mut sink = ReconnectingTcpSink::connect(addr).expect("connect");
    let outcome = run(plan, Target::Sink(&mut sink)).expect("replay");
    drop(sink);

    let report = outcome.session();
    println!("graph events:    {}", report.replay.graph_events);
    println!("entries read:    {}", report.entries_read);
    println!(
        "achieved rate:   {:.0} events/s",
        report.replay.achieved_rate
    );
    println!("max queue depth: {}", report.max_queue_depth);
    println!(
        "stalls:          reader {:.1}ms, sink {:.1}ms",
        report.reader_stall_micros as f64 / 1e3,
        report.sink_stall_micros as f64 / 1e3
    );
    println!(
        "emit lateness:   mean {:.0}us, p99 <= {}us",
        report.emit_latency.mean(),
        report.emit_latency.quantile_upper_bound(0.99)
    );
    println!(
        "result log:      {} records, markers at {:?} and {:?}",
        outcome.log.records().len(),
        outcome.log.marker("halfway"),
        outcome.log.marker("stream-end")
    );

    let received = consumer.join().expect("consumer");
    println!("consumer saw:    {received} lines");
    std::fs::remove_file(path).ok();
}

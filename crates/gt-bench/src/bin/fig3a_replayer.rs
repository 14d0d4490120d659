//! **Figure 3a** — median throughput of the graph stream replayer for
//! given target rates, pipe vs TCP, with the (p5 … max) range.
//!
//! Paper setup (Table 2): a single local instance streams a generated
//! social-network workload either over a pipe (STDOUT → STDIN) or over a
//! local TCP socket; target rates 10k…320k events/s; the plot shows the
//! median with a range covering the 5th percentile to the maximum.
//!
//! Here "pipe" is a byte sink through the same line serialization the
//! paper's pipe used, and "TCP" is a real local socket drained by a
//! reader thread. The replayer is the whole `ReplaySession`, its reader
//! thread included, as in the paper's decoupled design. Each cell
//! replays ~0.5 s worth of events, repeated 7×.
//!
//! The shape is a gate: the run exits non-zero when any median, pipe or
//! TCP, is more than [`MEDIAN_SLACK`] below its target.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::process::ExitCode;

use gt_analysis::Quantiles;
use gt_bench::{header, scale};
use gt_core::prelude::*;
use gt_replayer::{
    EventSink, ReplaySession, ReplaySessionConfig, ReplayerConfig, TcpSink, WriterSink,
};
use gt_workloads::SnbWorkload;

const TARGET_RATES: [f64; 6] = [10_000.0, 20_000.0, 40_000.0, 80_000.0, 160_000.0, 320_000.0];
const REPETITIONS: usize = 7;
/// How far below its target a cell's median may fall.
const MEDIAN_SLACK: f64 = 0.02;

fn measure<S: EventSink>(stream: &GraphStream, rate: f64, sink: &mut S) -> f64 {
    let session = ReplaySession::new(ReplaySessionConfig {
        replayer: ReplayerConfig {
            target_rate: rate,
            ..Default::default()
        },
        ..Default::default()
    });
    let report = session.run(stream, sink).expect("replay");
    report.replay.achieved_rate
}

fn stream_for(rate: f64) -> GraphStream {
    // ~0.5 s of streaming per repetition (scaled).
    let events = ((rate * 0.5 * scale()) as u64).max(1_000);
    // Social workload per Table 2; persons:connections at the SNB ratio.
    let persons = (events / 19).max(2);
    SnbWorkload {
        persons,
        connections: events - persons,
        seed: 18,
    }
    .generate()
}

fn main() -> ExitCode {
    header("Figure 3a: graph stream replayer throughput (pipe vs TCP)");
    println!("# Table 2 setup: generated social network workload, single instance");
    println!(
        "{:>12} {:>10} {:>12} {:>12} {:>12}",
        "target[e/s]", "transport", "median[e/s]", "p5[e/s]", "max[e/s]"
    );
    let mut short = Vec::new();

    for &rate in &TARGET_RATES {
        let stream = stream_for(rate);

        // Pipe: line-serialized bytes into an in-process sink.
        let mut pipe_rates = Vec::with_capacity(REPETITIONS);
        for _ in 0..REPETITIONS {
            let mut sink = WriterSink::new(std::io::sink());
            pipe_rates.push(measure(&stream, rate, &mut sink));
        }
        short.extend(print_row(rate, "pipe", &pipe_rates));

        // TCP: real local socket, reader thread drains and counts lines.
        let mut tcp_rates = Vec::with_capacity(REPETITIONS);
        for _ in 0..REPETITIONS {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr");
            let drain = std::thread::Builder::new()
                .name("fig3a-drain".into())
                .spawn(move || {
                    let (socket, _) = listener.accept().expect("accept");
                    let reader = BufReader::with_capacity(1 << 20, socket);
                    reader.lines().count()
                })
                .expect("spawn fig3a-drain thread");
            let mut sink = TcpSink::connect(addr).expect("connect");
            let achieved = measure(&stream, rate, &mut sink);
            sink.flush().expect("flush");
            drop(sink);
            let received = drain.join().expect("drain");
            assert_eq!(received, stream.len(), "TCP receiver lost lines");
            tcp_rates.push(achieved);
        }
        short.extend(print_row(rate, "tcp", &tcp_rates));
    }

    println!(
        "\nExpected shape (paper): achieved rate tracks the target closely at low\n\
         rates; beyond ~100k events/s the measured range (p5..max) widens while\n\
         the median stays roughly on target."
    );
    if short.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "fig3a: median more than {:.0} % below target in: {}",
        MEDIAN_SLACK * 100.0,
        short.join(", ")
    );
    ExitCode::FAILURE
}

/// Prints one cell's row; names the cell if its median is more than
/// [`MEDIAN_SLACK`] below `rate`, or missing.
fn print_row(rate: f64, transport: &str, rates: &[f64]) -> Option<String> {
    // Degrade rather than abort: a repeat set can come back empty or
    // all-NaN if every attempt was salvaged away.
    let median = match Quantiles::of(rates) {
        Some(q) => {
            println!(
                "{:>12.0} {:>10} {:>12.0} {:>12.0} {:>12.0}",
                rate, transport, q.median, q.p5, q.max
            );
            Some(q.median)
        }
        None => {
            println!(
                "{rate:>12.0} {transport:>10} {:>38}",
                "insufficient samples"
            );
            None
        }
    };
    let _ = std::io::stdout().flush();
    let on_target = median.is_some_and(|m| m >= rate * (1.0 - MEDIAN_SLACK));
    (!on_target).then(|| format!("{rate:.0} {transport}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Regression: an empty or all-NaN repeat set used to panic
    // `expect("non-empty")`; the row must degrade instead, and fail the
    // gate.
    #[test]
    fn empty_and_nan_rows_degrade_instead_of_panicking() {
        assert!(print_row(1000.0, "tcp", &[]).is_some());
        assert!(print_row(1000.0, "tcp", &[f64::NAN, f64::NAN]).is_some());
        assert_eq!(print_row(1000.0, "tcp", &[900.0, 1000.0, 1100.0]), None);
    }

    #[test]
    fn a_median_more_than_the_slack_below_target_is_named() {
        assert_eq!(print_row(10_000.0, "pipe", &[9_800.0; 3]), None);
        assert_eq!(
            print_row(10_000.0, "tcp", &[9_790.0; 3]),
            Some("10000 tcp".to_owned())
        );
    }
}

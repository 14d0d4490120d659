//! `gt-replay` — the stream replayer as a standalone tool.
//!
//! Streams a graph stream file through the decoupled reader→pacer
//! pipeline ([`ReplaySession`]) at a target rate into stdout (pipe mode)
//! or a TCP endpoint, mirroring the paper's replayer deployment (§5.1,
//! Table 2). TCP targets are driven through the fault-tolerant connector:
//! a dropped connection is re-dialed with capped exponential backoff and
//! the stream resumes. The streaming report — including per-stage
//! pipeline metrics — goes to stderr so pipe mode stays clean.
//!
//! ```text
//! gt-replay <stream.csv> [--rate EVENTS_PER_S] [--tcp HOST:PORT]
//!           [--no-pauses] [--buffer ENTRIES] [--max-reconnects N]
//! ```

use std::io::Write;
use std::process::ExitCode;

use gt_replayer::{
    EventSink, ReconnectPolicy, ReconnectingTcpSink, ReplaySession, ReplaySessionConfig,
    ReplayerConfig, SessionReport, WriterSink,
};

struct Args {
    stream_file: String,
    rate: f64,
    tcp: Option<String>,
    honor_pauses: bool,
    buffer: usize,
    max_reconnects: u32,
}

const USAGE: &str = "usage: gt-replay <stream.csv> [--rate EVENTS_PER_S] [--tcp HOST:PORT] \
                     [--no-pauses] [--buffer ENTRIES] [--max-reconnects N]";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut stream_file = None;
    let mut rate: f64 = 1_000.0;
    let mut tcp = None;
    let mut honor_pauses = true;
    let mut buffer = 64 * 1024;
    let mut max_reconnects = 8u32;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--rate" => {
                rate = args
                    .next()
                    .ok_or("--rate needs a value")?
                    .parse()
                    .map_err(|e| format!("bad rate: {e}"))?;
                if rate.is_nan() || rate <= 0.0 {
                    return Err("rate must be positive".into());
                }
            }
            "--tcp" => tcp = Some(args.next().ok_or("--tcp needs HOST:PORT")?),
            "--no-pauses" => honor_pauses = false,
            "--buffer" => {
                buffer = args
                    .next()
                    .ok_or("--buffer needs a value")?
                    .parse()
                    .map_err(|e| format!("bad buffer: {e}"))?;
            }
            "--max-reconnects" => {
                max_reconnects = args
                    .next()
                    .ok_or("--max-reconnects needs a value")?
                    .parse()
                    .map_err(|e| format!("bad max-reconnects: {e}"))?;
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other if stream_file.is_none() && !other.starts_with('-') => {
                stream_file = Some(other.to_owned());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        stream_file: stream_file.ok_or("missing stream file argument")?,
        rate,
        tcp,
        honor_pauses,
        buffer,
        max_reconnects,
    })
}

fn report_to_stderr(report: &SessionReport) {
    let mut err = std::io::stderr().lock();
    let _ = writeln!(err, "entries read:     {}", report.entries_read);
    let _ = writeln!(err, "graph events:     {}", report.replay.graph_events);
    let _ = writeln!(
        err,
        "duration:         {:.3}s ({:.3}s paused)",
        report.replay.duration_micros as f64 / 1e6,
        report.replay.paused_micros as f64 / 1e6
    );
    let _ = writeln!(
        err,
        "achieved rate:    {:.0} events/s (active time)",
        report.replay.achieved_rate
    );
    let _ = writeln!(
        err,
        "reader stall:     {:.3}s",
        report.reader_stall_micros as f64 / 1e6
    );
    let _ = writeln!(
        err,
        "sink stall:       {:.3}s",
        report.sink_stall_micros as f64 / 1e6
    );
    let _ = writeln!(err, "max queue depth:  {}", report.max_queue_depth);
    let _ = writeln!(
        err,
        "emit lateness:    mean {:.0}us, p99 <= {}us, max {}us",
        report.emit_latency.mean(),
        report.emit_latency.quantile_upper_bound(0.99),
        report.emit_latency.max
    );
    for event in &report.sink_events {
        let _ = writeln!(
            err,
            "sink event at {:.6}s: {:?} ({})",
            event.t_micros as f64 / 1e6,
            event.kind,
            event.detail
        );
    }
    for (name, t) in &report.replay.markers {
        let _ = writeln!(err, "marker {name}: t = {:.6}s", *t as f64 / 1e6);
    }
}

fn run(args: Args) -> Result<(), String> {
    let session = ReplaySession::new(ReplaySessionConfig {
        replayer: ReplayerConfig {
            target_rate: args.rate,
            honor_pauses: args.honor_pauses,
            ..Default::default()
        },
        buffer: args.buffer,
    });

    let report = match &args.tcp {
        Some(addr) => {
            let mut sink = ReconnectingTcpSink::connect(addr.as_str())
                .map_err(|e| format!("tcp connect: {e}"))?
                .with_policy(ReconnectPolicy {
                    max_attempts: args.max_reconnects,
                    ..Default::default()
                });
            let report = session
                .run(&args.stream_file, &mut sink)
                .map_err(|e| format!("replay: {e}"))?;
            sink.flush().map_err(|e| format!("flush: {e}"))?;
            report
        }
        None => {
            let stdout = std::io::stdout();
            let mut sink = WriterSink::new(std::io::BufWriter::new(stdout.lock()));
            let report = session
                .run(&args.stream_file, &mut sink)
                .map_err(|e| format!("replay: {e}"))?;
            sink.flush().map_err(|e| format!("flush: {e}"))?;
            report
        }
    };

    report_to_stderr(&report);
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("gt-replay: {msg}");
            ExitCode::FAILURE
        }
    }
}

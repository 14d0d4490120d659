//! The end-to-end GraphTides benchmark.
//!
//! ```text
//! gt-benchmark run [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--smoke] [--out FILE]
//! gt-benchmark compare BASE.json NEW.json
//! ```
//!
//! `run` without `--trace` (or with `--trace 0`) takes the end-to-end
//! metrics from untraced passes; `--trace 1` runs the per-layer ladder
//! and one traced pass instead; a bare `--trace` does both. See
//! `README.md` next to this crate for what is measured and why.

mod compare;
mod e2e;
mod json;
mod ladder;
mod metrics;
mod probe;
mod run;
mod spans;
mod stats;
mod sys;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use run::{RunArgs, Trace};
use workloads::{Workload, DEFAULT_SEED, WORKLOADS};

#[global_allocator]
static ALLOCATOR: sys::CountingAlloc = sys::CountingAlloc;

/// How long the timed passes of one workload go on when `--seconds` is
/// not given; `BENCHMARK.json` passes the same value.
const DEFAULT_SECONDS: f64 = 15.0;

const USAGE: &str = "usage:
  gt-benchmark run [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--smoke] [--out FILE]
  gt-benchmark compare BASE.json NEW.json";

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: WORKLOADS.iter().collect(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: Trace::Off,
        smoke: false,
        out: None,
    };
    let mut rest = args.iter().peekable();
    while let Some(flag) = rest.next() {
        let mut value = |what: &str| {
            rest.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let workload = Workload::find(&name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{name}`; known: {}", known.join(", "))
                })?;
                parsed.workloads = vec![workload];
            }
            "--seed" => {
                parsed.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_owned());
                }
                parsed.seconds = seconds;
            }
            "--trace" => {
                parsed.trace = match rest.peek().map(|s| s.as_str()) {
                    Some("0") => Trace::Off,
                    Some("1") => Trace::Only,
                    _ => Trace::Both,
                };
                if parsed.trace != Trace::Both {
                    rest.next();
                }
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value("a file path")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((command, rest)) if command == "run" => parse_run(rest)
            .and_then(|run_args| run::run(&run_args).map_err(|e| format!("run failed: {e}"))),
        Some((command, [base, new])) if command == "compare" => load(base)
            .and_then(|base| Ok((base, load(new)?)))
            .map(|(base, new)| {
                let (report, regressed) = compare::compare(&base, &new);
                print!("{report}");
                !regressed
            }),
        _ => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

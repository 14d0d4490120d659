//! The `run` subcommand: generate, run each workload's passes, check,
//! and print every metric by name with its unit.

use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use gt_core::prelude::*;
use gt_sut::SutRegistry;

use crate::e2e::{run_pass, Pass, PassContext};
use crate::json::Json;
use crate::ladder::{run_ladder, LadderResult, LadderStreams};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::probe::platforms;
use crate::spans::Spans;
use crate::stats::{median, quartile_spread};
use crate::sys;
use crate::workloads::{generate, reference, Front, Reference, Workload, SMOKE_DIVISOR};

/// Timed passes every end-to-end result rests on, whatever `--seconds`
/// says (`--smoke` runs one).
const MIN_TIMED_PASSES: usize = 3;

/// Which phases a run goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trace {
    /// `--trace 0`: untraced passes, giving the end-to-end metrics.
    Off,
    /// `--trace 1`: the ladder plus one traced pass, giving the per-layer
    /// metrics.
    Only,
    /// `--trace`: one after the other.
    Both,
}

impl Trace {
    fn as_args(self) -> &'static [&'static str] {
        match self {
            Trace::Off => &["--trace", "0"],
            Trace::Only => &["--trace", "1"],
            Trace::Both => &["--trace"],
        }
    }
}

pub struct RunArgs {
    pub workloads: Vec<&'static Workload>,
    pub seed: u64,
    /// How long the timed passes of one workload go on.
    pub seconds: f64,
    pub trace: Trace,
    pub smoke: bool,
    pub out: Option<PathBuf>,
}

/// Everything inside the benchmark's own directory, wherever it is run
/// from.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One metric as reported: the value (a median where there are passes)
/// and the per-pass values behind it.
struct Reported {
    def: &'static MetricDef,
    value: f64,
    passes: Vec<f64>,
}

/// One phase of one workload, as printed and as written to the result
/// file.
struct PhaseResult {
    workload: &'static str,
    phase: &'static str,
    timed_passes: usize,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<Reported>,
}

impl PhaseResult {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The line the driver reads: last on standard output.
    fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    let fields = [
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.def.unit)),
                    ];
                    (m.def.name, Json::obj(fields))
                })),
            ),
        ])
        .encode()
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("phase", Json::str(self.phase)),
            ("timed_passes", Json::Num(self.timed_passes as f64)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    let fields = [
                        ("unit", Json::str(m.def.unit)),
                        ("value", Json::Num(m.value)),
                        ("passes", Json::nums(&m.passes)),
                    ];
                    (m.def.name, Json::obj(fields))
                })),
            ),
        ])
    }

    fn print(&self) {
        println!(
            "\n== {} · {} · {} timed pass(es) · {} of {} operations failed ==",
            self.workload, self.phase, self.timed_passes, self.failed, self.attempted
        );
        println!(
            "{:<40} {:>16} {:<9} {:<7} {:>6} {:>8}  passes",
            "metric", "value", "unit", "better", "bound", "spread"
        );
        for m in &self.metrics {
            let bound = m
                .def
                .bound
                .map_or("-".to_owned(), |b| format!("{:.0}%", b * 100.0));
            let passes: Vec<String> = m.passes.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "{:<40} {:>16.4} {:<9} {:<7} {:>6} {:>7.1}%  [{}]",
                m.def.name,
                m.value,
                m.def.unit,
                m.def.better.as_str(),
                bound,
                quartile_spread(&m.passes) * 100.0,
                passes.join(", ")
            );
        }
        for failure in &self.failures {
            println!("FAILED: {failure}");
        }
    }
}

/// Prints the recorded spans as an indented tree with self time (span
/// minus children) and, where read, process CPU time.
fn print_spans(title: &str, spans: &Spans) {
    println!("\n-- spans: {title} --");
    println!(
        "{:<44} {:>12} {:>12} {:>12}",
        "span", "wall ms", "self ms", "cpu ms"
    );
    for (depth, name, wall_ms, self_ms, cpu_ms) in spans.summary() {
        let label = format!("{}{name}", "  ".repeat(depth));
        let cpu = cpu_ms.map_or("-".to_owned(), |ms| format!("{ms:.1}"));
        println!("{label:<44} {wall_ms:>12.1} {self_ms:>12.1} {cpu:>12}");
    }
}

fn def(table: &'static [MetricDef], name: &str) -> &'static MetricDef {
    table
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the table"))
}

/// A generated stream with what generating it cost and what it must
/// produce.
struct Input {
    stream: GraphStream,
    generate_s: f64,
    reference: Reference,
}

fn input(workload: &Workload, args: &RunArgs) -> Input {
    let started = Instant::now();
    let seed = workload.stream_seed(args.seed);
    let stream = generate(workload.kind, workload.sized(args.smoke), seed);
    let generate_s = started.elapsed().as_secs_f64();
    let reference = reference(&stream);
    Input {
        stream,
        generate_s,
        reference,
    }
}

fn end_to_end_phase(
    workload: &'static Workload,
    args: &RunArgs,
    platforms: &Arc<SutRegistry>,
    out_dir: &PathBuf,
) -> PhaseResult {
    let input = input(workload, args);
    let ctx = PassContext {
        workload,
        stream: &input.stream,
        reference: input.reference,
        platforms,
        out_dir,
        seed: args.seed,
    };
    // End-to-end metrics are always taken with tracing off.
    let mut spans = Spans::new(false);

    // One untimed pass first: page cache, allocator arenas and lazy
    // set-up are warm before anything is measured. Its failures count.
    let warm_up = run_pass(&ctx, 0, false, &mut spans);
    let mut timed: Vec<Pass> = Vec::new();
    let (min_passes, budget_s) = if args.smoke {
        (1, 0.0)
    } else {
        (MIN_TIMED_PASSES, args.seconds)
    };
    let started = Instant::now();
    while timed.len() < min_passes || started.elapsed().as_secs_f64() < budget_s {
        timed.push(run_pass(&ctx, timed.len() as u32 + 1, false, &mut spans));
    }

    let series = |f: &dyn Fn(&Pass) -> f64| -> Vec<f64> { timed.iter().map(f).collect() };
    let by_median = |name: &str, passes: Vec<f64>| Reported {
        def: def(END_TO_END, name),
        value: median(&passes),
        passes,
    };
    let metrics = vec![
        by_median("events_per_s", series(&Pass::events_per_s)),
        by_median("on_time_frac", series(&Pass::on_time_frac)),
        by_median("cpu_us_per_event", series(&Pass::cpu_us_per_event)),
        by_median("allocs_per_event", series(&Pass::allocs_per_event)),
        by_median("peak_heap_mb", series(&|p: &Pass| p.peak_heap_mb)),
        // Generated once, so its cost is added to every pass's own
        // set-up before the median is taken.
        by_median(
            "setup_s",
            series(&|p: &Pass| input.generate_s + p.outside_s),
        ),
    ];

    let all = std::iter::once(&warm_up).chain(&timed);
    PhaseResult {
        workload: workload.name,
        phase: "end_to_end",
        timed_passes: timed.len(),
        attempted: timed.iter().map(|p| p.attempted).sum::<u64>() + warm_up.attempted,
        failed: all.clone().map(|p| p.failed).sum(),
        failures: all.flat_map(|p| p.failures.iter().cloned()).collect(),
        metrics,
    }
}

/// The ladder's rungs use the workloads' own streams, whichever workload
/// the traced pass belongs to.
fn ladder(
    args: &RunArgs,
    platforms: &SutRegistry,
    out_dir: &Path,
    spans: &mut Spans,
) -> LadderResult {
    let by_name = |name: &str| Workload::find(name).expect("workload exists");
    let stream = |name: &str| {
        let w = by_name(name);
        generate(w.kind, w.sized(args.smoke), w.stream_seed(args.seed))
    };
    let (snb, mixed, rank) = (
        stream("store-tcp-unpaced"),
        stream("store-direct-mixed"),
        stream("graph-direct-rank"),
    );
    let Front::Tcp { rate: paced_rate } = by_name("store-tcp-150k").front else {
        unreachable!("the paced workload is a TCP workload");
    };
    let streams = LadderStreams {
        snb: &snb,
        mixed: &mixed,
        rank: &rank,
        paced_rate,
    };
    run_ladder(&streams, platforms, out_dir, args.seed, spans).unwrap_or_else(|e| LadderResult {
        failures: vec![format!("ladder aborted: {e}")],
        ..LadderResult::default()
    })
}

fn traced_phase(
    workload: &'static Workload,
    args: &RunArgs,
    platforms: &Arc<SutRegistry>,
    out_dir: &PathBuf,
) -> PhaseResult {
    let mut ladder_spans = Spans::new(true);
    let ladder = ladder(args, platforms, out_dir, &mut ladder_spans);
    print_spans("ladder", &ladder_spans);

    let input = input(workload, args);
    let ctx = PassContext {
        workload,
        stream: &input.stream,
        reference: input.reference,
        platforms,
        out_dir,
        seed: args.seed,
    };
    // The ladder has already run this process warm. One untraced pass,
    // then the same pass traced: the difference is what tracing costs.
    let mut spans = Spans::new(true);
    let untraced = run_pass(&ctx, 1, false, &mut Spans::new(false));
    let traced = run_pass(&ctx, 2, true, &mut spans);

    let mut values: Vec<(&str, f64)> = ladder.values.clone();
    values.push(("gt-harness.overhead_s", untraced.call_s - untraced.window_s));
    values.push((
        "trace_overhead_frac",
        1.0 - traced.events_per_s() / untraced.events_per_s(),
    ));
    // A failed rung, a missing metric or an unwritten trace is one failed
    // operation each.
    let mut failures = ladder.failures;
    let mut failed = untraced.failed + traced.failed + failures.len() as u64;
    failures.extend(untraced.failures.iter().chain(&traced.failures).cloned());
    let metrics: Vec<Reported> = PER_LAYER
        .iter()
        .map(|def| {
            let value = values
                .iter()
                .find(|(name, _)| *name == def.name)
                .map(|&(_, v)| v);
            if value.is_none() {
                failed += 1;
                failures.push(format!("{} was not measured", def.name));
            }
            Reported {
                def,
                value: value.unwrap_or(f64::NAN),
                passes: value.into_iter().collect(),
            }
        })
        .collect();

    let trace_path = out_dir.join(format!("trace-{}.json", workload.name));
    let trace = Json::obj([
        ("workload", Json::str(workload.name)),
        ("ladder", ladder_spans.to_json()),
        ("passes", spans.to_json()),
    ]);
    print_spans(&format!("{} traced pass", workload.name), &spans);
    if let Err(e) = std::fs::write(&trace_path, trace.encode()) {
        failed += 1;
        failures.push(format!("{}: {e}", trace_path.display()));
    }

    PhaseResult {
        workload: workload.name,
        phase: "per_layer",
        timed_passes: 2,
        attempted: ladder.attempted + untraced.attempted + traced.attempted,
        failed,
        failures,
        metrics,
    }
}

fn manifest(args: &RunArgs) -> Json {
    let (sha, dirty) = sys::git_state();
    Json::obj([
        ("git_sha", Json::str(sha)),
        ("git_dirty", Json::Bool(dirty)),
        ("rustc", Json::str(sys::rustc_version())),
        ("nproc", Json::Num(sys::nproc() as f64)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
        (
            "size_divisor",
            Json::Num(if args.smoke {
                SMOKE_DIVISOR as f64
            } else {
                1.0
            }),
        ),
        (
            "min_timed_passes",
            Json::Num(if args.smoke {
                1.0
            } else {
                MIN_TIMED_PASSES as f64
            }),
        ),
        (
            "workloads",
            Json::Arr(
                args.workloads
                    .iter()
                    .map(|w| w.describe(args.smoke, args.seed))
                    .collect(),
            ),
        ),
    ])
}

/// Runs the requested phases of the requested workloads. Returns whether
/// every output was correct and no operation failed.
pub fn run(args: &RunArgs) -> io::Result<bool> {
    let out_dir = out_dir();
    std::fs::create_dir_all(&out_dir)?;
    let manifest = manifest(args);
    println!("manifest: {}", manifest.encode());

    let (scope, results, correct) = match args.workloads.as_slice() {
        [workload] => {
            let results = run_workload(workload, args, &out_dir);
            let correct = results.iter().all(PhaseResult::correct);
            let results = results.iter().map(PhaseResult::to_json).collect();
            (workload.name, results, correct)
        }
        several => {
            let (results, correct) = run_each_in_its_own_process(several, args, &out_dir)?;
            ("all", results, correct)
        }
    };

    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir.join(format!("result-{scope}-seed{}.json", args.seed)));
    let file = Json::obj([("manifest", manifest), ("results", Json::Arr(results))]);
    std::fs::write(&path, file.encode())?;
    // The result line of the last phase stays the last line of standard
    // output; everything after it goes to standard error.
    eprintln!("results written to {}", path.display());
    Ok(correct)
}

fn run_workload(
    workload: &'static Workload,
    args: &RunArgs,
    out_dir: &PathBuf,
) -> Vec<PhaseResult> {
    let platforms = Arc::new(platforms());
    let mut results = Vec::new();
    if args.trace != Trace::Only {
        results.push(end_to_end_phase(workload, args, &platforms, out_dir));
    }
    if args.trace != Trace::Off {
        results.push(traced_phase(workload, args, &platforms, out_dir));
    }
    for result in &results {
        result.print();
        println!("{}", result.result_line());
    }
    results
}

/// One child process per workload, exactly as the driver runs them: a
/// workload measured after others in the same process inherits their
/// heap and runs slower (`graph-direct-rank` by a quarter after the three
/// store workloads). Returns the children's results and whether all of
/// them succeeded.
fn run_each_in_its_own_process(
    workloads: &[&'static Workload],
    args: &RunArgs,
    out_dir: &Path,
) -> io::Result<(Vec<Json>, bool)> {
    let mut results = Vec::new();
    let mut correct = true;
    for workload in workloads {
        let part = out_dir.join(format!("part-{}.json", workload.name));
        let mut child = Command::new(std::env::current_exe()?);
        child
            .args(["run", "--workload", workload.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(args.trace.as_args())
            .args(args.smoke.then_some("--smoke"))
            .arg("--out")
            .arg(&part);
        correct &= child.status()?.success();
        let text = std::fs::read_to_string(&part)?;
        let file = Json::parse(&text).map_err(io::Error::other)?;
        let parts = file.get("results").and_then(Json::as_arr).unwrap_or(&[]);
        results.extend(parts.iter().cloned());
    }
    Ok((results, correct))
}

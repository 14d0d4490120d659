//! `gt-run` — one registry-selected experiment from the command line.
//!
//! Streams a graph stream file through the file-backed replay pipeline
//! into a platform chosen by name from the built-in [`SutRegistry`]
//! (`tide-store`, `tide-graph`), samples its native metrics at Level 1+,
//! and prints the platform's final report plus run health. This is the
//! paper's Figure 2 loop as a tool: generate a stream with `gt-generate`,
//! then run it against any registered system under test.
//!
//! ```text
//! gt-run <stream.csv> --sut <name> [--rate R] [--opt key=value ...]
//!        [--faults drop:0.01,dup:0.005,shuffle:64] [--fault-seed N]
//!        [--chaos "crash@200,worker=0,restart=300; stall@500,ms=50"]
//!        [--netem "partition@2s,dur=500ms,conns=0-3; delay@4s,ms=20"]
//!        [--clients N] [--loop-model open|closed|partial:W] [--load-seed N]
//!        [--pattern uniform|diurnal:P:A|pareto:A:B:P|flash:AT:F:HOLD]
//!        [--scale C1,C2,..xR1,R2,..] [--assert-achieved F]
//!        [--shards N | --shards N1,N2,..] [--differential N]
//!        [--journal <path>]
//! gt-run matrix <matrix.spec> [--stream <stream.csv>] [--journal <path>]
//! ```
//!
//! Flags and matrix cells speak one vocabulary. `--sut`, `--rate`,
//! `--pattern`, `--clients`, `--loop-model`, `--chaos`, `--netem` and
//! `--shards` each set the matrix factor of the same name (`--loop-model`
//! sets `loop`) through one table, `RunSpec::resolve`; `--scale` and a
//! `--shards` list give a factor several levels, enumerated like a
//! matrix's cells; and every run, flag-made or cell-made, is planned by
//! one [`plan_cell`] before anything starts.
//!
//! Every invocation is a journaled matrix run. Flags make a
//! one-repetition matrix of their factors, named after what it prints
//! (`gt_harness::render`); it keeps the flags' seeds, and its journal goes
//! to `--journal` or to a fresh file under the temp dir, named on stderr.
//! Each cell-repetition writes one result log beside the journal before
//! its journal line, and everything printed after the runs is rendered
//! from those files by the functions `gt-report --matrix` calls:
//! `gt-report --matrix <journal>` prints the same report, curve or table
//! again.
//!
//! `--faults` derives an unreliable/unordered stream a priori (§3.2)
//! before replay; `--chaos` injects live faults mid-run through the
//! chaos sink and prints a per-fault recovery summary (time-to-recover,
//! throughput-dip depth, events lost). Both are seeded by `--fault-seed`
//! and fully deterministic. Single-sink runs with chaos or netem are
//! guarded by the experiment watchdog so a killed worker or a blackholed
//! connection can never hang the invocation.
//!
//! `--netem` interposes the seeded network-fault proxy between the
//! clients (or the single-sink replayer) and the SUT listener: timed
//! partitions, RST/FIN connection kills, added latency/jitter, bandwidth
//! caps, byte corruption. Unlike `--chaos` it works in *both* single-sink
//! and `--clients` load mode, shares `--fault-seed`, and prints its own
//! recovery table correlating network faults against the ingress-rate
//! (single-sink) or achieved-rate (load) series.
//!
//! `--clients` switches to the multi-client load layer: the stream is
//! routed, as it is read, to one seeded substream per connection and
//! offered over N
//! concurrent TCP clients under the chosen loop model; the report shows
//! offered-vs-achieved rate and sojourn-latency tails. `--scale` runs a
//! connections × rate grid (one SUT run per cell) and prints the
//! ingress-scaling curve. `--assert-achieved F` fails the invocation
//! when achieved/offered drops below F or any marker ordering violation
//! is observed — the CI smoke hook; it needs `--clients`.
//!
//! `gt-run matrix` switches to the scenario-matrix orchestrator: a
//! declarative spec file names factors (`sut`, `rate`, `pattern`,
//! `shards`, `clients`, `loop`, `chaos`, `netem`, `stream`) whose
//! cross-product is executed cell by cell with n repetitions each —
//! lowered exactly as the same flags would be — journaled to
//! `<spec>.journal.jsonl` (one JSON line per finished cell-repetition),
//! and aggregated into per-cell CI95 summaries. A killed matrix resumes
//! from the journal without re-running completed cell-repetitions and
//! reproduces bit-identical aggregates. The journal header records the
//! `--stream` (a flag run's: the stream, `--opt`s, seeds and `--faults`),
//! and a rerun under other inputs is refused.
//!
//! `--shards N` selects the sharded variant of the named platform
//! (`tide-store` → `tide-store-sharded`) with N hash-partitioned shard
//! workers. A comma-separated list (`--shards 1,2,4`, load mode only)
//! runs one load cell per shard count and prints the
//! throughput-vs-shards scaling curve (speedup and parallel efficiency
//! against the smallest count). `--differential N` replays the stream
//! through the serial platform at `shards=1` and the sharded variant at
//! `shards=N` over a single connector each, and fails the invocation
//! unless final graph state and per-marker-window computation results
//! are bit-identical. It keeps both digests in memory and writes no
//! journal.

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use gt_core::spec;
use gt_faults::{parse_pipeline, FaultInjector};
use gt_harness::{
    cell_id, matrix_head, render_differential, render_journal, run, run_differential,
    run_matrix_with_progress, write_result_log, Assignment, CellRunResult, ChaosPlan, Design,
    EvaluationLevel, FactorSpace, FaultSchedule, LoadPlan, NetemPlan, NetemSchedule, RatePattern,
    RunPlan, RunSpec, ScenarioMatrix, SutRegistry, Target, WatchdogConfig, FLAG_VIEWS,
};

/// The flags that set a run factor, and the factor each one sets.
const FACTOR_FLAGS: [(&str, &str); 8] = [
    ("--sut", "sut"),
    ("--rate", "rate"),
    ("--pattern", "pattern"),
    ("--clients", "clients"),
    ("--loop-model", "loop"),
    ("--chaos", "chaos"),
    ("--netem", "netem"),
    ("--shards", "shards"),
];

/// What the command line asks for.
struct Args {
    /// Everything no factor sets: the stream, the `--opt`s and the seeds.
    base: RunSpec,
    /// One factor per factor flag; `--scale` and a `--shards` list give a
    /// factor several levels.
    space: FactorSpace,
    /// What the run prints: its matrix's name (`gt_harness::render`).
    view: &'static str,
    /// `--differential`: its shard count is the `shards` factor.
    differential: bool,
    faults: Option<String>,
    assert_achieved: Option<f64>,
    journal: Option<String>,
}

/// The registry of built-in platforms.
fn builtin_registry() -> SutRegistry {
    let mut registry = SutRegistry::new();
    tide_store::sut::register(&mut registry);
    tide_graph::sut::register(&mut registry);
    registry
}

/// The watchdog guarding runs with faults injected, so a killed worker
/// or a blackholed connection can never hang the invocation.
fn fault_guard() -> WatchdogConfig {
    WatchdogConfig::stall_after(Duration::from_secs(30)).with_deadline(Duration::from_secs(600))
}

/// Lowers a spec onto the harness's run plan: source, front (direct,
/// load, netem) and the observers each front gets. On the load front the
/// clients pace their own arrival schedules, so the rate pattern shapes
/// the arrival intensity there; single-sink, the pacer itself follows it.
/// Flags and matrix cells both come through here, so two rules hold on
/// both paths: a single-sink run is Level 2 (its stage latencies are
/// sampled), and a single-sink run with a fault layer (chaos or netem)
/// is watchdog-guarded.
fn lower(spec: &RunSpec) -> Result<RunPlan, String> {
    let mut plan = RunPlan::new(&spec.stream, spec.rate);
    if spec.clients > 0 {
        let load = LoadPlan::single(spec.clients, spec.rate, spec.loop_model, spec.load_seed);
        plan = plan
            .at_level(EvaluationLevel::Level1)
            .with_load(load.with_pattern(spec.pattern.clone()));
    } else {
        plan = plan.at_level(EvaluationLevel::Level2);
        plan.session.replayer.pattern = spec.pattern.clone();
        plan.session.replayer.pattern_seed = spec.load_seed;
    }
    if let Some(chaos) = &spec.chaos {
        let schedule = FaultSchedule::parse(chaos, spec.fault_seed)
            .map_err(|e| format!("bad chaos schedule: {e}"))?;
        plan = plan.with_chaos(ChaosPlan::new(schedule));
    }
    if let Some(netem) = &spec.netem {
        let schedule = NetemSchedule::parse(netem, spec.fault_seed)
            .map_err(|e| format!("bad netem schedule: {e}"))?;
        plan = plan.with_netem(NetemPlan::new(schedule));
    }
    if spec.clients == 0 && (spec.chaos.is_some() || spec.netem.is_some()) {
        plan = plan.with_watchdog(fault_guard());
    }
    Ok(plan)
}

/// Resolves a factor assignment over `base` — a matrix cell, or the flags'
/// factors — into a [`RunSpec`] and its plan, rejecting unknown factors,
/// unparsable levels and, by lowering it and asking the harness,
/// combinations that cannot run. Cheap (string parsing only), so a
/// matrix plans each cell once to validate and again per repetition.
fn plan_cell(
    cell: &Assignment,
    base: &RunSpec,
    registry: &SutRegistry,
) -> Result<(RunSpec, RunPlan), String> {
    let spec = base.resolve(cell)?;
    if spec.sut.is_empty() {
        return Err("the matrix needs a `sut` factor".into());
    }
    if !registry.names().contains(&spec.sut.as_str()) {
        let known = registry.names().join(", ");
        return Err(format!("unknown platform `{}` (known: {known})", spec.sut));
    }
    if spec.stream.is_empty() {
        return Err("no stream for this cell: pass --stream or add a `stream` factor".into());
    }
    // Schedule parse errors and combinations the run path refuses should
    // surface during validation, not after hours of completed cells (the
    // seed only offsets jitter).
    let plan = lower(&spec)?;
    plan.check(&Target::Sut(registry, &spec.sut, &spec.options))
        .map_err(|e| e.to_string())?;
    Ok((spec, plan))
}

fn usage() -> String {
    let names = builtin_registry().names().join("|");
    format!(
        "usage: gt-run <stream.csv> --sut <{names}> [--rate R] [--opt key=value ...]\n\
         \x20             [--faults drop:P,dup:P,shuffle:W,delay:P:N] [--fault-seed N]\n\
         \x20             [--chaos \"kind@trigger[,key=value ...]; ...\"]\n\
         \x20             [--netem \"partition@2s,dur=500ms[,conns=A-B]; kill@1s,mode=rst; ...\"]\n\
         \x20             [--clients N] [--loop-model open|closed|partial:W] [--load-seed N]\n\
         \x20             [--pattern uniform|diurnal:P:A|pareto:A:B:P|flash:AT:F:HOLD]\n\
         \x20             [--scale C1,C2,..xR1,R2,..] [--assert-achieved F]\n\
         \x20             [--shards N | --shards N1,N2,..] [--differential N]\n\
         \x20             [--journal <path>]\n\
         \x20      gt-run matrix <matrix.spec> [--stream <stream.csv>] [--journal <path>]\n\
         \x20 spec lines: matrix = NAME / repetitions = N / seed = N / design = full|ofat\n\
         \x20             factor NAME = LEVEL | LEVEL | ...\n\
         \x20 factors: sut (required, one of {names}), rate, pattern\n\
         \x20          (uniform|diurnal:P:A|pareto:ALPHA:BURST:PEAK|flash:AT:F:HOLD),\n\
         \x20          shards, clients (0 = single-sink), loop, chaos (none or\n\
         \x20          clauses joined by `+`), netem (none or clauses joined by\n\
         \x20          `+`; valid in both modes), stream (per-cell file override)"
    )
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut base = RunSpec::new("", 1, 0);
    let (mut path, mut space, mut scale) = (None, FactorSpace::new(), None);
    let (mut differential, mut faults, mut assert_achieved, mut journal) = (None, None, None, None);
    while let Some(arg) = args.next() {
        let mut next = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        if let Some(&(_, name)) = FACTOR_FLAGS.iter().find(|(flag, _)| *flag == arg) {
            let level = next()?;
            let levels = match name {
                "shards" => spec::list(&level, &level, ',', |n| Ok(n.to_owned()))?,
                // A cell id reserves `;`; a chaos or netem level reads `+`
                // back as it.
                "chaos" | "netem" => vec![level.replace(';', "+")],
                _ => vec![level],
            };
            space = space.factor(name, levels);
            continue;
        }
        match arg.as_str() {
            "--opt" => {
                let pair = next()?;
                let (key, value) = spec::key_value(&pair, &pair)?;
                base.options.insert(key, value);
            }
            "--faults" => faults = Some(next()?),
            "--scale" => scale = Some(FactorSpace::grid(&next()?, "clients", "rate")?),
            "--differential" => differential = Some(next()?),
            "--load-seed" => {
                let seed = next()?;
                base.load_seed = spec::value(&seed, &seed, "load seed")?;
            }
            "--fault-seed" => {
                let seed = next()?;
                base.fault_seed = spec::value(&seed, &seed, "fault seed")?;
            }
            "--assert-achieved" => {
                let text = next()?;
                let f: f64 = spec::value(&text, &text, "fraction")?;
                if !(0.0..=1.0).contains(&f) {
                    return Err("--assert-achieved fraction must be in [0, 1]".into());
                }
                assert_achieved = Some(f);
            }
            "--journal" => journal = Some(next()?),
            "--help" | "-h" => return Err(usage()),
            other if !other.starts_with('-') && path.is_none() => path = Some(other.to_owned()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    base.stream = path.ok_or_else(usage)?;
    // How many levels the flags gave a factor, if any.
    let levels = |space: &FactorSpace, name: &str| {
        let factor = space.factors().iter().find(|f| f.name == name);
        factor.map(|f| f.levels.len())
    };
    if levels(&space, "sut").is_none() {
        return Err(usage());
    }
    if let Some(n) = &differential {
        if levels(&space, "shards").is_some() {
            return Err("--differential already names the candidate shard count".into());
        }
        space = space.factor("shards", [n]);
    }
    let shard_list = levels(&space, "shards") > Some(1);
    let [run_view, scale_view, shards_view] = FLAG_VIEWS;
    let view = match (scale, shard_list) {
        (Some(_), true) => {
            return Err("--shards with multiple counts replaces --scale; use one of them".into())
        }
        (Some(grid), false) => {
            for f in grid.factors() {
                space = space.factor(&f.name, &f.levels);
            }
            scale_view
        }
        (None, true) => shards_view,
        (None, false) => run_view,
    };
    Ok(Args {
        base,
        space,
        view,
        differential: differential.is_some(),
        faults,
        assert_achieved,
        journal,
    })
}

/// Plans every cell the flags' factors enumerate, and refuses what no
/// mode runs, before anything starts.
fn plan_flags(args: &Args, registry: &SutRegistry) -> Result<Vec<(RunSpec, RunPlan)>, String> {
    let cells = args.space.full_factorial();
    let plan = |cell| plan_cell(cell, &args.base, registry);
    let cells = cells.iter().map(plan).collect::<Result<Vec<_>, _>>()?;
    let single_sink = cells.iter().any(|(spec, _)| spec.clients == 0);
    let (spec, curve) = (&cells[0].0, args.view != FLAG_VIEWS[0]);
    let refused = if curve && single_sink {
        "a scaling curve runs on the load front; add --clients N"
    } else if args.assert_achieved.is_some() && single_sink {
        "--assert-achieved gates a load run's achieved/offered; add --clients N"
    } else if args.differential && (curve || spec.clients > 0 || spec.chaos.is_some()) {
        "--differential is single-connector A/B replay; drop --clients/--scale/--chaos"
    } else if args.differential && spec.netem.is_some() {
        "--differential compares bit-exact replays; drop --netem"
    } else if args.differential && spec.pattern != RatePattern::Uniform {
        "--differential compares serial vs sharded under uniform pacing; drop --pattern"
    } else if args.differential && args.journal.is_some() {
        "--differential keeps both digests in memory and writes no journal; drop --journal"
    } else {
        return Ok(cells);
    };
    Err(refused.into())
}

/// Applies an a-priori fault pipeline: reads the stream, injects, writes
/// the derived stream to a scratch file, and returns `(path, description)`.
fn materialize_faults(path: &str, spec: &str, seed: u64) -> Result<(String, String), String> {
    let pipeline = parse_pipeline(spec)?;
    let stream =
        gt_core::GraphStream::read_from_file(path).map_err(|e| format!("reading {path}: {e}"))?;
    let faulty = pipeline.inject(stream, seed);
    let out = std::env::temp_dir().join(format!("gt-run-faulty-{}-{seed}.csv", std::process::id()));
    faulty
        .write_to_file(&out)
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    Ok((out.to_string_lossy().into_owned(), pipeline.describe()))
}

/// The differential mode: the same stream — derived through `faults`
/// first, if given — through the serial platform at `shards=1` and the
/// sharded variant at `shards=N`, single connector each; nonzero exit on
/// any digest or computation divergence.
fn run_differential_mode(
    spec: &RunSpec,
    faults: Option<&str>,
    registry: &SutRegistry,
) -> Result<ExitCode, String> {
    let path = &spec.stream;
    let mut stream = gt_core::GraphStream::read_from_file(path)
        .map_err(|error| format!("gt-run: reading {path}: {error}"))?;
    if let Some(faults) = faults {
        let pipeline = parse_pipeline(faults).map_err(|e| format!("gt-run: --faults {e}"))?;
        stream = pipeline.inject(stream, spec.fault_seed);
    }
    let serial = spec.sut.strip_suffix("-sharded").unwrap_or(&spec.sut);
    let options = spec.options.clone().set("shards", 1);
    let (baseline, candidate) = ((serial, &options), (spec.sut.as_str(), &spec.options));
    let outcome = run_differential(&stream, spec.rate, registry, baseline, candidate)
        .map_err(|error| format!("gt-run: differential: {error}"))?;
    let (names, shards) = ((serial, candidate.0), spec.shards.unwrap_or(1));
    let table = render_differential(&outcome, names, shards, spec.rate);
    print!("{table}");
    if let Some(mismatch) = &outcome.mismatch {
        eprintln!("gt-run: differential mismatch: {mismatch}");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Runs (or resumes) an invocation's matrix of cells over `base`, into
/// `journal` under the `inputs` its cells share — each cell-repetition's
/// result log written before its journal line — then prints what the
/// journal renders as and fails on what it gates (`--assert-achieved`).
fn execute(
    matrix: &ScenarioMatrix,
    journal: &str,
    inputs: &str,
    base: &RunSpec,
    gate: Option<f64>,
    registry: &SutRegistry,
) -> Result<ExitCode, String> {
    // A flag run keeps its seeds; a campaign's repetitions each take the
    // seed the matrix derives for them, as load and fault seed.
    let flags = FLAG_VIEWS.contains(&matrix.name.as_str());
    let path = Path::new(journal);
    let mut runner = |cell: &Assignment, rep: u32, seed: u64| -> CellRunResult {
        let mut base = base.clone();
        base.load_seed = seed;
        if !flags {
            base.fault_seed = seed;
        }
        let (spec, plan) = plan_cell(cell, &base, registry).expect("cells validated above");
        let target = Target::Sut(registry, &spec.sut, &spec.options);
        let ran = run(plan, target).map_err(|e| e.to_string());
        let ran = ran.and_then(|outcome| {
            let metrics = write_result_log(path, cell, rep, &outcome.log, &spec)?;
            let status = outcome.status;
            Ok(CellRunResult { status, metrics })
        });
        ran.unwrap_or_else(|error| {
            // The journal holds every finished repetition (flushed per
            // line), so aborting here loses nothing: rerunning the same
            // invocation resumes at this exact repetition.
            eprintln!("gt-run: cell {} failed: {error}", cell_id(cell));
            eprintln!("gt-run: completed runs are journaled in {journal}; rerun to resume");
            if base.faults.is_some() {
                let _ = std::fs::remove_file(&base.stream);
            }
            std::process::exit(1);
        })
    };
    let mut progress = |cell: &str, rep: u32, resumed: bool| match (flags, resumed) {
        (true, _) => {}
        (false, true) => println!("  skip {cell} rep {rep} (journaled)"),
        (false, false) => println!("  ran  {cell} rep {rep}"),
    };
    let pinned = flags.then_some(base.load_seed);
    let ran = run_matrix_with_progress(matrix, path, inputs, pinned, &mut runner, &mut progress);
    let outcome = ran.map_err(|e| format!("gt-run: {journal}: {e}"))?;
    let (report, failures) = render_journal(journal, Some(outcome.progress), gate)?;
    print!("{report}");
    for failure in &failures {
        eprintln!("gt-run: {failure}");
    }
    Ok(match failures.is_empty() {
        true => ExitCode::SUCCESS,
        false => ExitCode::FAILURE,
    })
}

fn run_matrix_cli(argv: &[String]) -> Result<ExitCode, String> {
    let (mut spec_path, mut stream, mut journal) = (None, None, None);
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--stream" => stream = Some(it.next().ok_or("--stream needs a path")?.clone()),
            "--journal" => journal = Some(it.next().ok_or("--journal needs a path")?.clone()),
            "--help" | "-h" => return Err(usage()),
            other if !other.starts_with('-') && spec_path.is_none() => {
                spec_path = Some(other.to_owned())
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    let spec_path = spec_path.ok_or_else(usage)?;
    let text = std::fs::read_to_string(&spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let matrix = ScenarioMatrix::parse(&text).map_err(|e| format!("{spec_path}: {e}"))?;
    if FLAG_VIEWS.contains(&matrix.name.as_str()) {
        let name = &matrix.name;
        return Err(format!(
            "{spec_path}: matrix name `{name}` is reserved for flag runs"
        ));
    }
    let journal = journal.unwrap_or_else(|| format!("{spec_path}.journal.jsonl"));
    let registry = builtin_registry();
    let stream = stream.unwrap_or_default();
    let base = RunSpec::new(&stream, 0, 0);

    // Fail fast: every cell must resolve to a runnable plan before the
    // first (possibly expensive) repetition starts.
    let cells = matrix.cells();
    if cells.is_empty() {
        return Err("the matrix has no cells; add `factor` lines".into());
    }
    for cell in &cells {
        plan_cell(cell, &base, &registry).map_err(|e| format!("cell {}: {e}", cell_id(cell)))?;
    }

    print!("{}", matrix_head(&matrix, &journal));
    let inputs = format!("stream={stream}");
    execute(&matrix, &journal, &inputs, &base, None, &registry)
}

/// Runs what the flags name: plans every cell first (a bad level or
/// combination fails before anything runs), then the differential, or the
/// one-repetition matrix of the flags' factors.
fn run_flags(args: Args) -> Result<ExitCode, String> {
    let registry = builtin_registry();
    let cells = plan_flags(&args, &registry).map_err(|e| format!("gt-run: {e}"))?;
    if args.differential {
        return run_differential_mode(&cells[0].0, args.faults.as_deref(), &registry);
    }
    let journal = args.journal.unwrap_or_else(|| {
        let since = std::time::UNIX_EPOCH.elapsed().unwrap_or_default();
        let name = format!(
            "gt-run-{}-{}.journal.jsonl",
            std::process::id(),
            since.as_nanos()
        );
        let path = std::env::temp_dir().join(name).display().to_string();
        eprintln!("gt-run: journal {path}");
        path
    });
    // A-priori stream faults: derive the weaker stream before replay. The
    // journal records the stream the flags name.
    let mut base = args.base;
    let scratch = match &args.faults {
        Some(faults) => {
            let (scratch, description) = materialize_faults(&base.stream, faults, base.fault_seed)
                .map_err(|e| format!("gt-run: --faults {e}"))?;
            base.faults = Some(description);
            Some(scratch)
        }
        None => None,
    };
    let inputs = base.to_string();
    base.stream = scratch.clone().unwrap_or(base.stream);
    let matrix = ScenarioMatrix {
        name: args.view.to_owned(),
        repetitions: 1,
        seed: base.load_seed,
        design: Design::FullFactorial,
        space: args.space,
    };
    let gate = args.assert_achieved;
    let code = execute(&matrix, &journal, &inputs, &base, gate, &registry);
    if let Some(scratch) = scratch {
        let _ = std::fs::remove_file(scratch);
    }
    code
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.first().is_some_and(|a| a == "matrix") {
        run_matrix_cli(&argv[1..])
    } else {
        parse_args(argv.into_iter()).and_then(run_flags)
    };
    result.unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const NETEM: &str = "kill@60ms,mode=fin";

    fn flags(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|arg| arg.to_string()))
    }

    /// What a run from these flags plans, cell by cell.
    fn plan(args: &[&str]) -> Result<Vec<(RunSpec, RunPlan)>, String> {
        plan_flags(&flags(args)?, &builtin_registry())
    }

    /// The single-sink plan a matrix cell with these factors lowers to.
    fn cell_plan(factors: &[(&str, &str)]) -> (RunSpec, RunPlan) {
        let cell: Assignment = factors
            .iter()
            .map(|(name, level)| (name.to_string(), level.to_string()))
            .collect();
        plan_cell(&cell, &RunSpec::new("s.csv", 0, 0), &builtin_registry()).unwrap()
    }

    #[test]
    fn flags_and_matrix_cells_lower_a_netem_run_the_same_way() {
        let (_, from_flags) = plan(&["s.csv", "--sut", "tide-store", "--netem", NETEM])
            .unwrap()
            .remove(0);
        let (_, from_cell) = cell_plan(&[("sut", "tide-store"), ("netem", NETEM)]);
        assert_eq!(from_flags.level, EvaluationLevel::Level2);
        assert_eq!(from_cell.level, from_flags.level);
        assert_eq!(from_flags.watchdog, Some(fault_guard()));
        assert_eq!(from_cell.watchdog, from_flags.watchdog);
    }

    #[test]
    fn a_clean_single_sink_cell_is_not_downgraded_to_level_1() {
        let (_, plan) = cell_plan(&[("sut", "tide-store"), ("clients", "0")]);
        assert_eq!(plan.level, EvaluationLevel::Level2);
        assert_eq!(plan.watchdog, None);
    }

    #[test]
    fn a_flag_sets_the_factor_a_cell_level_sets() {
        let levels = [
            ("--rate", "rate", " 25000 "),
            ("--pattern", "pattern", "diurnal: 10: 0.4"),
            ("--clients", "clients", "3"),
            ("--loop-model", "loop", "partial: 5"),
            ("--chaos", "chaos", "stall@1,ms=2+stall@3,ms=4"),
            ("--netem", "netem", "none"),
            ("--shards", "shards", "2"),
        ];
        for (flag, factor, level) in levels {
            let (from_flag, _) = plan(&["s.csv", "--sut", "tide-graph", flag, level])
                .unwrap()
                .remove(0);
            let cell = vec![
                ("sut".to_owned(), "tide-graph".to_owned()),
                (factor.to_owned(), level.to_owned()),
            ];
            let base = RunSpec::new("s.csv", 1, 0);
            let (from_cell, _) = plan_cell(&cell, &base, &builtin_registry()).unwrap();
            assert_eq!(format!("{from_flag:?}"), format!("{from_cell:?}"), "{flag}");
        }
    }

    #[test]
    fn an_option_needs_a_key() {
        assert!(flags(&["s.csv", "--sut", "tide-store", "--opt", "=4"]).is_err());
        let args = flags(&["s.csv", "--sut", "tide-store", "--opt", " workers = 2 "]).unwrap();
        assert_eq!(args.base.options.get("workers"), Some("2"));
    }

    #[test]
    fn lists_become_levels_of_one_factor_space() {
        let cells = plan(&[
            "s.csv",
            "--sut",
            "tide-store",
            "--clients",
            "2",
            "--scale",
            "1,2x5,6",
        ])
        .unwrap();
        let grid: Vec<(usize, f64)> = cells.iter().map(|(s, _)| (s.clients, s.rate)).collect();
        assert_eq!(grid, [(1, 5.0), (1, 6.0), (2, 5.0), (2, 6.0)]);
        let cells = plan(&[
            "s.csv",
            "--sut",
            "tide-store",
            "--clients",
            "2",
            "--shards",
            "1, ,4",
        ])
        .unwrap();
        let shards: Vec<_> = cells
            .iter()
            .map(|(s, _)| (s.sut.as_str(), s.shards))
            .collect();
        assert_eq!(
            shards,
            [
                ("tide-store-sharded", Some(1)),
                ("tide-store-sharded", Some(4))
            ]
        );
    }

    #[test]
    fn levels_and_modes_the_parent_refused_stay_refused() {
        for args in [
            &["--scale", "0,1x100"][..],
            &["--scale", "1x0"],
            &["--scale", "1x-5"],
            &["--scale", "ax100"],
            &["--scale", "1,2"],
            &["--scale", "1x2x3"],
            &["--shards", "0"],
            &["--shards", "1,x"],
            &["--shards", "1,2"],
            &["--clients", "2", "--shards", "1,2", "--scale", "1x100"],
            &["--rate", "-1"],
            &["--rate", "inf"],
            &["--clients", "-1"],
            &["--differential", "0"],
            &["--differential", "2", "--shards", "2"],
            &["--differential", "2", "--clients", "2"],
            &["--differential", "2", "--scale", "1x100"],
            &["--differential", "2", "--netem", NETEM],
            &["--differential", "2", "--pattern", "flash:1:4:2"],
            &["--clients", "2", "--chaos", "stall@10,ms=1"],
            &["--assert-achieved", "1.5"],
            &["--loop-model", "partial:0"],
        ] {
            let mut all = vec!["s.csv", "--sut", "tide-store"];
            all.extend(args);
            assert!(plan(&all).is_err(), "accepted {args:?}");
        }
    }

    #[test]
    fn refused_flags_name_the_flag_they_need() {
        for (args, names) in [
            (&["--assert-achieved", "0.99"][..], "--clients"),
            (
                &["--differential", "2", "--assert-achieved", "0.99"],
                "--clients",
            ),
            (&["--shards", "1,2"], "--clients"),
            (&["--differential", "2", "--journal", "j"], "--journal"),
        ] {
            let mut all = vec!["s.csv", "--sut", "tide-store"];
            all.extend(args);
            let error = plan(&all).err().unwrap_or_default();
            assert!(error.contains(names), "{args:?}: {error:?}");
        }
        let gated = ["s.csv", "--sut", "tide-store", "--clients", "2"];
        assert!(plan(&[&gated[..], &["--assert-achieved", "0.99"]].concat()).is_ok());
    }
}

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
//! gt-run matrix <matrix.spec> [--stream <stream.csv>] [--journal <path>]
//! ```
//!
//! Flags and matrix cells speak one vocabulary. `--sut`, `--rate`,
//! `--pattern`, `--clients`, `--loop-model`, `--chaos`, `--netem` and
//! `--shards` each set the matrix factor of the same name (`--loop-model`
//! sets `loop`) through one table, [`set_factor`]; `--scale` and a
//! `--shards` list give a factor several levels, enumerated like a
//! matrix's cells; and every run, flag-made or cell-made, is planned by
//! one [`plan_cell`] before anything starts.
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
//! split into one seeded substream per connection and offered over N
//! concurrent TCP clients under the chosen loop model; the report shows
//! offered-vs-achieved rate and sojourn-latency tails. `--scale` runs a
//! connections × rate grid (one SUT run per cell) and prints the
//! ingress-scaling curve. `--assert-achieved F` fails the invocation
//! when achieved/offered drops below F or any marker ordering violation
//! is observed — the CI smoke hook.
//!
//! `gt-run matrix` switches to the scenario-matrix orchestrator: a
//! declarative spec file names factors (`sut`, `rate`, `pattern`,
//! `shards`, `clients`, `loop`, `chaos`, `netem`, `stream`) whose
//! cross-product is executed cell by cell with n repetitions each —
//! lowered exactly as the same flags would be — journaled to
//! `<spec>.journal.jsonl` (one JSON line per finished cell-repetition),
//! and aggregated into per-cell CI95 summaries. A killed matrix resumes
//! from the journal without re-running completed cell-repetitions and
//! reproduces bit-identical aggregates; `gt-report --matrix <journal>`
//! re-renders the comparative table offline.
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
//! are bit-identical.

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use gt_analysis::{
    recovery_windows, recovery_windows_from, shard_scaling, Quantiles, RecoveryWindow,
    TRACE_SOURCE, TRACE_STAGE_METRICS,
};
use gt_core::spec::{self, SpecError};
use gt_faults::{parse_pipeline, FaultInjector};
use gt_harness::{
    cell_id, render_matrix_table, run, run_differential, run_matrix_with_progress, Assignment,
    CellRunResult, ChaosPlan, EvaluationLevel, Factor, FactorSpace, FaultSchedule, LoadPlan,
    LoopModel, NetemPlan, NetemSchedule, RatePattern, RunOutcome, RunPlan, RunStatus,
    ScenarioMatrix, SutOptions, SutRegistry, Target, WatchdogConfig, NETEM_SOURCE,
};

/// Throughput fraction of the pre-fault baseline that counts as
/// "recovered" in the summary table.
const RECOVERY_FRACTION: f64 = 0.9;

/// What one run is made of, whether flags or a matrix cell's factor
/// assignment said so: [`set_factor`] fills it in, [`lower`] turns it
/// into the harness's plan.
#[derive(Debug, Clone)]
struct RunSpec {
    stream: String,
    sut: String,
    options: SutOptions,
    rate: f64,
    pattern: RatePattern,
    /// 0 means single-sink replay; ≥ 1 switches to the load front.
    clients: usize,
    loop_model: LoopModel,
    /// `;`-separated chaos schedule.
    chaos: Option<String>,
    /// `;`-separated netem schedule; valid on both fronts.
    netem: Option<String>,
    /// Runs the platform's sharded variant with this many shards.
    shards: Option<usize>,
    /// Seeds the load plan's partitioning and arrival schedules, and the
    /// single-sink pacer's (pareto) pattern.
    load_seed: u64,
    /// Seeds the chaos and netem schedules (and `--faults`).
    fault_seed: u64,
}

impl RunSpec {
    /// A run before any factor is set.
    fn new(stream: &str, load_seed: u64, fault_seed: u64) -> Self {
        RunSpec {
            stream: stream.to_owned(),
            sut: String::new(),
            options: SutOptions::new(),
            rate: 10_000.0,
            pattern: RatePattern::Uniform,
            clients: 0,
            loop_model: LoopModel::Open,
            chaos: None,
            netem: None,
            shards: None,
            load_seed,
            fault_seed,
        }
    }
}

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

/// Sets one factor of `spec` from its level as written: the one table
/// behind a flag and a matrix cell. A chaos or netem level may join its
/// clauses with `+` (a cell id reserves `;`), and `none` is no schedule.
fn set_factor(spec: &mut RunSpec, name: &str, level: &str) -> Result<(), String> {
    let bad = |error: SpecError| format!("factor `{name}`: {error}");
    let schedule = || (level != "none").then(|| level.replace('+', ";"));
    match name {
        "sut" => spec.sut = level.to_owned(),
        "stream" => spec.stream = level.to_owned(),
        "rate" => {
            spec.rate = spec::value(level, level, "rate").map_err(bad)?;
            if !(spec.rate.is_finite() && spec.rate > 0.0) {
                return Err(bad(SpecError::new(level, level, "must be positive")));
            }
        }
        "pattern" => spec.pattern = level.parse().map_err(bad)?,
        "shards" => match spec::value(level, level, "shard count").map_err(bad)? {
            0 => return Err(bad(SpecError::new(level, level, "must be at least 1"))),
            n => spec.shards = Some(n),
        },
        "clients" => spec.clients = spec::value(level, level, "client count").map_err(bad)?,
        "loop" => spec.loop_model = level.parse().map_err(bad)?,
        "chaos" => spec.chaos = schedule(),
        "netem" => spec.netem = schedule(),
        other => {
            return Err(format!(
                "unknown factor `{other}` (known: sut, stream, rate, pattern, shards, \
                 clients, loop, chaos, netem)"
            ));
        }
    }
    Ok(())
}

/// Which curve a flag-made factor space with several cells prints.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Curve {
    /// `--scale`: connections × rate.
    Ingress,
    /// `--shards N1,N2,..`: throughput against the shard count.
    Shards,
}

/// What the command line asks for.
struct Args {
    /// Everything no factor sets: the stream, the `--opt`s and the seeds.
    base: RunSpec,
    /// One factor per factor flag; `--scale` and a `--shards` list give a
    /// factor several levels.
    space: FactorSpace,
    curve: Option<Curve>,
    /// `--differential`: its shard count is the `shards` factor.
    differential: bool,
    faults: Option<String>,
    assert_achieved: Option<f64>,
}

/// The serial base name of a platform: `tide-store-sharded` → `tide-store`.
fn serial_name(sut: &str) -> &str {
    sut.strip_suffix("-sharded").unwrap_or(sut)
}

/// The sharded variant name of a platform: `tide-store` →
/// `tide-store-sharded` (idempotent on already-sharded names).
fn sharded_name(sut: &str) -> String {
    format!("{}-sharded", serial_name(sut))
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
    let mut spec = base.clone();
    for (name, level) in cell {
        set_factor(&mut spec, name, level)?;
    }
    if spec.sut.is_empty() {
        return Err("the matrix needs a `sut` factor".into());
    }
    if let Some(n) = spec.shards {
        spec.sut = sharded_name(&spec.sut);
        spec.options.insert("shards", n.to_string());
    }
    if !registry.names().contains(&spec.sut.as_str()) {
        return Err(format!(
            "unknown platform `{}` (known: {})",
            spec.sut,
            registry.names().join(", ")
        ));
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

/// Runs `plan`, lowered from `spec`, against the spec's platform.
fn run_plan(plan: RunPlan, spec: &RunSpec, registry: &SutRegistry) -> Result<RunOutcome, String> {
    run(plan, Target::Sut(registry, &spec.sut, &spec.options)).map_err(|e| e.to_string())
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
         \x20      gt-run matrix <matrix.spec> [--stream <stream.csv>] [--journal <path>]"
    )
}

/// Puts `factor` into `factors`, replacing a factor of the same name.
fn put(factors: &mut Vec<Factor>, factor: Factor) {
    factors.retain(|f| f.name != factor.name);
    factors.push(factor);
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut base = RunSpec::new("", 1, 0);
    let mut path = None;
    let mut factors = Vec::new();
    let mut scale = None;
    let mut differential = None;
    let mut faults = None;
    let mut assert_achieved = None;
    while let Some(arg) = args.next() {
        let mut next = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        if let Some(&(_, name)) = FACTOR_FLAGS.iter().find(|(flag, _)| *flag == arg) {
            let level = next()?;
            let levels = match name {
                "shards" => spec::list(&level, &level, ',', |n| Ok(n.to_owned()))?,
                _ => vec![level],
            };
            put(&mut factors, Factor::new(name, levels));
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
            "--help" | "-h" => return Err(usage()),
            other if !other.starts_with('-') && path.is_none() => path = Some(other.to_owned()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    base.stream = path.ok_or_else(usage)?;
    if !factors.iter().any(|f| f.name == "sut") {
        return Err(usage());
    }
    if let Some(n) = &differential {
        if factors.iter().any(|f| f.name == "shards") {
            return Err("--differential already names the candidate shard count".into());
        }
        put(&mut factors, Factor::new("shards", [n]));
    }
    let shard_list = factors
        .iter()
        .any(|f| f.name == "shards" && f.levels.len() > 1);
    let curve = match (scale, shard_list) {
        (Some(_), true) => {
            return Err("--shards with multiple counts replaces --scale; use one of them".into())
        }
        (Some(grid), false) => {
            for factor in grid.factors() {
                put(&mut factors, factor.clone());
            }
            Some(Curve::Ingress)
        }
        (None, true) => Some(Curve::Shards),
        (None, false) => None,
    };
    Ok(Args {
        base,
        space: factors.iter().fold(FactorSpace::new(), |space, f| {
            space.factor(&f.name, &f.levels)
        }),
        curve,
        differential: differential.is_some(),
        faults,
        assert_achieved,
    })
}

/// Plans every cell the flags' factors enumerate, and refuses what no
/// mode runs, before anything starts.
fn plan_flags(args: &Args, registry: &SutRegistry) -> Result<Vec<(RunSpec, RunPlan)>, String> {
    let cells = args
        .space
        .full_factorial()
        .iter()
        .map(|cell| plan_cell(cell, &args.base, registry))
        .collect::<Result<Vec<_>, _>>()?;
    if args.curve.is_some() && cells.iter().any(|(spec, _)| spec.clients == 0) {
        return Err("a scaling curve runs on the load front; add --clients N".into());
    }
    let spec = &cells[0].0;
    if args.differential {
        if args.curve.is_some() || spec.clients > 0 || spec.chaos.is_some() {
            return Err(
                "--differential is single-connector A/B replay; drop --clients/--scale/--chaos"
                    .into(),
            );
        }
        if spec.netem.is_some() {
            return Err("--differential compares bit-exact replays; drop --netem".into());
        }
        if spec.pattern != RatePattern::Uniform {
            return Err(
                "--differential compares serial vs sharded under uniform pacing; drop --pattern"
                    .into(),
            );
        }
    }
    Ok(cells)
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

/// Prints the netem recovery table: one row per journaled network fault,
/// correlated against the chosen throughput series.
fn print_netem_recovery(windows: &[RecoveryWindow], rate_series: &str) {
    if windows.is_empty() {
        println!("\n# netem recovery: no network faults fired");
        return;
    }
    println!(
        "\n# netem recovery vs {rate_series} (recovered = {:.0}% of pre-fault rate)",
        RECOVERY_FRACTION * 100.0
    );
    println!(
        "{:<44} {:>8} {:>10} {:>7} {:>9}",
        "fault", "t[s]", "dip[e/s]", "depth", "ttr[s]"
    );
    for w in windows {
        let ttr = w
            .time_to_recover_secs
            .map_or_else(|| "never".to_owned(), |t| format!("{t:.2}"));
        println!(
            "{:<44} {:>8.2} {:>10.0} {:>6.0}% {:>9}",
            w.fault,
            w.t_fault_secs,
            w.dip_rate,
            w.dip_depth * 100.0,
            ttr
        );
        if let Some((action, t)) = &w.recovery {
            println!("  └ {action} at t={t:.2}s");
        }
    }
}

/// Checks the CI gate: achieved/offered at or above the threshold and
/// zero marker-ordering violations. Prints the verdict on failure.
fn gate_holds(outcome: &RunOutcome, threshold: Option<f64>) -> bool {
    let Some(threshold) = threshold else {
        return true;
    };
    let ratio = outcome.load().achieved_ratio();
    let violations = outcome.load().listener.marker_violations;
    let mut ok = true;
    if ratio < threshold {
        eprintln!("gt-run: achieved/offered {ratio:.3} below threshold {threshold:.3}");
        ok = false;
    }
    if violations > 0 {
        eprintln!("gt-run: {violations} marker ordering violation(s)");
        ok = false;
    }
    ok
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The connections × rate scaling curve: one load cell per `--scale`
/// grid point.
fn run_ingress_curve(
    cells: Vec<(RunSpec, RunPlan)>,
    assert_achieved: Option<f64>,
    registry: &SutRegistry,
) -> ExitCode {
    let first = &cells[0].0;
    println!(
        "# gt-run ingress scaling curve: {} {} loop, seed {}",
        first.sut, first.loop_model, first.load_seed
    );
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>8} {:>10} {:>10} {:>6}",
        "clients",
        "target[e/s]",
        "offered[e/s]",
        "achieved",
        "ratio",
        "p99[us]",
        "p999[us]",
        "viol"
    );
    let mut gate_ok = true;
    for (spec, plan) in cells {
        let outcome = match run_plan(plan, &spec, registry) {
            Ok(outcome) => outcome,
            Err(error) => {
                eprintln!(
                    "gt-run: {} clients @ {:.0} e/s: {error}",
                    spec.clients, spec.rate
                );
                return ExitCode::FAILURE;
            }
        };
        let tail = gt_analysis::sojourn_quantiles(&outcome.log, "main");
        let (p99, p999) = tail.map_or((f64::NAN, f64::NAN), |t| (t.p99, t.p999));
        let load = outcome.load();
        println!(
            "{:>8} {:>12.0} {:>12.0} {:>12.0} {:>8.3} {:>10.0} {:>10.0} {:>6}",
            spec.clients,
            spec.rate,
            load.offered_rate(),
            load.achieved_rate(),
            load.achieved_ratio(),
            p99,
            p999,
            load.listener.marker_violations
        );
        gate_ok &= gate_holds(&outcome, assert_achieved);
    }
    exit_code(gate_ok)
}

/// The multi-client path: one load run.
fn run_load_mode(
    spec: &RunSpec,
    plan: RunPlan,
    assert_achieved: Option<f64>,
    registry: &SutRegistry,
) -> ExitCode {
    let outcome = match run_plan(plan, spec, registry) {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("gt-run: {error}");
            return ExitCode::FAILURE;
        }
    };
    let (load, report) = (outcome.load(), outcome.sut_report());
    println!(
        "# gt-run load: {} with {} clients, {} loop @ {:.0} e/s offered (seed {})",
        spec.sut, spec.clients, spec.loop_model, spec.rate, spec.load_seed
    );
    if let Some(netem) = &spec.netem {
        println!("# netem schedule: {netem} (seed {})", spec.fault_seed);
    }
    // A run that lost connections or clients still completes (the
    // barrier excuses dead connections) — surface the degradation.
    let degraded = load.listener.connections_lost > 0 || !load.client_failures.is_empty();
    println!(
        "run status          {:>12}",
        if degraded { "degraded" } else { "completed" }
    );
    println!("offered events      {:>12}", load.offered());
    println!("sent events         {:>12}", load.sent());
    println!("offered rate [e/s]  {:>12.0}", load.offered_rate());
    println!("achieved rate [e/s] {:>12.0}", load.achieved_rate());
    println!("achieved/offered    {:>12.3}", load.achieved_ratio());
    println!(
        "marker violations   {:>12}",
        load.listener.marker_violations
    );
    println!("parse errors        {:>12}", load.listener.parse_errors);
    println!("connections lost    {:>12}", load.listener.connections_lost);
    println!("clients failed      {:>12}", load.client_failures.len());
    println!("quiesced            {:>12}", outcome.quiesced);
    println!("\n# sojourn latency [us] per class (completion - scheduled arrival)");
    println!(
        "{:<10} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "class", "n", "p50", "p99", "p999", "max"
    );
    for class in ["main"] {
        if let Some(t) = gt_analysis::sojourn_quantiles(&outcome.log, class) {
            println!(
                "{class:<10} {:>8} {:>10.0} {:>10.0} {:>10.0} {:>10.0}",
                t.n, t.p50, t.p99, t.p999, t.max
            );
        } else {
            println!("{class:<10} insufficient samples");
        }
    }
    println!("\n# {} final report", report.name);
    for (metric, value) in &report.summary {
        println!("{metric:<19} {value:>12.0}");
    }
    // Netem recovery: network faults correlated against the main class's
    // completion-rate series.
    if spec.netem.is_some() {
        let windows = recovery_windows_from(
            &outcome.log,
            NETEM_SOURCE,
            "load",
            "achieved_rate.main",
            RECOVERY_FRACTION,
        );
        print_netem_recovery(&windows, "achieved_rate.main");
    }
    println!(
        "\n# merged result log: {} records",
        outcome.log.records().len()
    );
    exit_code(gate_holds(&outcome, assert_achieved))
}

/// The throughput-vs-shards scaling curve: one load cell per shard count
/// against the sharded variant, normalized by `gt_analysis::shard_scaling`.
fn run_shard_curve(
    cells: Vec<(RunSpec, RunPlan)>,
    assert_achieved: Option<f64>,
    registry: &SutRegistry,
) -> ExitCode {
    let first = &cells[0].0;
    println!(
        "# gt-run throughput-vs-shards: {}, {} clients, {} loop @ {:.0} e/s, seed {}",
        first.sut, first.clients, first.loop_model, first.rate, first.load_seed
    );
    let mut samples: Vec<(usize, f64)> = Vec::new();
    let mut gate_ok = true;
    for (spec, plan) in cells {
        let shards = spec.shards.unwrap_or(1);
        let outcome = match run_plan(plan, &spec, registry) {
            Ok(outcome) => outcome,
            Err(error) => {
                eprintln!("gt-run: shards={shards}: {error}");
                return ExitCode::FAILURE;
            }
        };
        samples.push((shards, outcome.load().achieved_rate()));
        gate_ok &= gate_holds(&outcome, assert_achieved);
    }
    println!(
        "{:>8} {:>14} {:>10} {:>12}",
        "shards", "achieved[e/s]", "speedup", "efficiency"
    );
    for row in shard_scaling(&samples) {
        println!(
            "{:>8} {:>14.0} {:>10.2} {:>12.2}",
            row.shards, row.achieved, row.speedup, row.efficiency
        );
    }
    exit_code(gate_ok)
}

/// The differential mode: the same stream through the serial platform at
/// `shards=1` and the sharded variant at `shards=N`, single connector
/// each; nonzero exit on any digest or computation divergence.
fn run_differential_mode(spec: &RunSpec, registry: &SutRegistry) -> ExitCode {
    let path = &spec.stream;
    let stream = match gt_core::GraphStream::read_from_file(path) {
        Ok(stream) => stream,
        Err(error) => {
            eprintln!("gt-run: reading {path}: {error}");
            return ExitCode::FAILURE;
        }
    };
    let baseline = serial_name(&spec.sut).to_owned();
    let baseline_options = spec.options.clone().set("shards", 1);
    let shards = spec.shards.unwrap_or(1);
    let outcome = match run_differential(
        &stream,
        spec.rate,
        registry,
        (&baseline, &baseline_options),
        (&spec.sut, &spec.options),
    ) {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("gt-run: differential: {error}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# gt-run differential: {baseline} (shards=1) vs {} (shards={shards}) @ {:.0} e/s",
        spec.sut, spec.rate
    );
    println!(
        "baseline events     {:>12.0}",
        outcome.baseline_report.get("events").unwrap_or(f64::NAN)
    );
    println!(
        "candidate events    {:>12.0}",
        outcome.candidate_report.get("events").unwrap_or(f64::NAN)
    );
    println!(
        "marker windows      {:>12}",
        outcome.baseline_digest.windows.len()
    );
    println!(
        "final vertices      {:>12}",
        outcome.baseline_digest.final_adjacency.len()
    );
    match &outcome.mismatch {
        None => {
            println!("verdict             {:>12}", "IDENTICAL");
            ExitCode::SUCCESS
        }
        Some(mismatch) => {
            println!("verdict             {:>12}", "DIVERGED");
            eprintln!("gt-run: differential mismatch: {mismatch}");
            ExitCode::FAILURE
        }
    }
}

fn matrix_usage() -> String {
    format!(
        "usage: gt-run matrix <matrix.spec> [--stream <stream.csv>] [--journal <path>]\n\
         \x20 spec lines: matrix = NAME / repetitions = N / seed = N / design = full|ofat\n\
         \x20             factor NAME = LEVEL | LEVEL | ...\n\
         \x20 factors: sut (required, one of {}), rate, pattern\n\
         \x20          (uniform|diurnal:P:A|pareto:ALPHA:BURST:PEAK|flash:AT:F:HOLD),\n\
         \x20          shards, clients (0 = single-sink), loop, chaos (none or\n\
         \x20          clauses joined by `+`), netem (none or clauses joined by\n\
         \x20          `+`; valid in both modes), stream (per-cell file override)",
        builtin_registry().names().join("|")
    )
}

/// Executes one cell-repetition and maps the outcome onto the journal's
/// `(status, headline metrics)` shape.
fn run_matrix_cell(
    spec: &RunSpec,
    plan: RunPlan,
    registry: &SutRegistry,
) -> Result<CellRunResult, String> {
    let outcome = run_plan(plan, spec, registry)?;
    if spec.clients == 0 {
        let replay = outcome.replay();
        return Ok(CellRunResult {
            status: outcome.status.clone(),
            metrics: vec![
                ("achieved_rate".to_owned(), replay.achieved_rate),
                ("events".to_owned(), replay.graph_events as f64),
                ("duration_s".to_owned(), replay.duration_micros as f64 / 1e6),
            ],
        });
    }
    let load = outcome.load();
    let mut metrics = vec![
        ("offered_rate".to_owned(), load.offered_rate()),
        ("achieved_rate".to_owned(), load.achieved_rate()),
        ("achieved_ratio".to_owned(), load.achieved_ratio()),
        (
            "marker_violations".to_owned(),
            load.listener.marker_violations as f64,
        ),
    ];
    if let Some(tail) = gt_analysis::sojourn_quantiles(&outcome.log, "main") {
        metrics.push(("p99_sojourn_us".to_owned(), tail.p99));
    }
    if spec.netem.is_some() {
        metrics.push((
            "connections_lost".to_owned(),
            load.listener.connections_lost as f64,
        ));
    }
    Ok(CellRunResult {
        status: RunStatus::Completed,
        metrics,
    })
}

fn run_matrix_cli(argv: &[String]) -> Result<ExitCode, String> {
    let mut spec_path = None;
    let mut stream = None;
    let mut journal = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--stream" => stream = Some(it.next().ok_or("--stream needs a path")?.clone()),
            "--journal" => journal = Some(it.next().ok_or("--journal needs a path")?.clone()),
            "--help" | "-h" => return Err(matrix_usage()),
            other if !other.starts_with('-') && spec_path.is_none() => {
                spec_path = Some(other.to_owned())
            }
            other => return Err(format!("unknown argument `{other}`\n{}", matrix_usage())),
        }
    }
    let spec_path = spec_path.ok_or_else(matrix_usage)?;
    let text = std::fs::read_to_string(&spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let matrix = ScenarioMatrix::parse(&text).map_err(|e| format!("{spec_path}: {e}"))?;
    let journal = journal.unwrap_or_else(|| format!("{spec_path}.journal.jsonl"));
    let registry = builtin_registry();
    let stream = stream.unwrap_or_default();

    // Fail fast: every cell must resolve to a runnable plan before the
    // first (possibly expensive) repetition starts.
    let cells = matrix.cells();
    if cells.is_empty() {
        return Err("the matrix has no cells; add `factor` lines".into());
    }
    for cell in &cells {
        plan_cell(cell, &RunSpec::new(&stream, 0, 0), &registry)
            .map_err(|e| format!("cell {}: {e}", cell_id(cell)))?;
    }

    print!("{matrix}");
    println!("journal: {journal}");
    let mut runner = |cell: &Assignment, _rep: u32, seed: u64| -> CellRunResult {
        let (spec, plan) = plan_cell(cell, &RunSpec::new(&stream, seed, seed), &registry)
            .expect("cells validated above");
        match run_matrix_cell(&spec, plan, &registry) {
            Ok(result) => result,
            Err(error) => {
                // The journal holds every finished repetition (flushed
                // per line), so aborting here loses nothing: rerunning
                // the same invocation resumes at this exact repetition.
                eprintln!("gt-run: cell {} failed: {error}", cell_id(cell));
                eprintln!("gt-run: completed runs are journaled in {journal}; rerun to resume");
                std::process::exit(1);
            }
        }
    };
    let mut progress = |cell: &str, rep: u32, resumed: bool| {
        if resumed {
            println!("  skip {cell} rep {rep} (journaled)");
        } else {
            println!("  ran  {cell} rep {rep}");
        }
    };
    let outcome =
        run_matrix_with_progress(&matrix, Path::new(&journal), &mut runner, &mut progress)
            .map_err(|e| format!("{journal}: {e}"))?;
    println!();
    print!("{}", render_matrix_table(&outcome.cells));
    println!(
        "matrix complete: {} runs total, {} executed, {} resumed from journal",
        outcome.progress.total, outcome.progress.executed, outcome.progress.resumed
    );
    Ok(ExitCode::SUCCESS)
}

/// The single-sink path: one replay through the file pipeline at Level 2,
/// with the replay report, the platform's final report, the sampled
/// stage latencies and a recovery table per injected fault layer.
fn run_single_mode(
    spec: &RunSpec,
    plan: RunPlan,
    fault_description: Option<&str>,
    registry: &SutRegistry,
) -> ExitCode {
    let chaos_description = plan.chaos.as_ref().map(|chaos| chaos.schedule.describe());
    let outcome = match run_plan(plan, spec, registry) {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("gt-run: {error}");
            return ExitCode::FAILURE;
        }
    };

    let (session, report) = (outcome.session(), outcome.sut_report());
    println!("# gt-run: {} @ {} events/s", spec.sut, spec.rate);
    if let Some(faults) = fault_description {
        println!("# stream faults: {faults} (seed {})", spec.fault_seed);
    }
    if let Some(chaos) = &chaos_description {
        println!("# chaos schedule: {chaos} (seed {})", spec.fault_seed);
    }
    if let Some(netem) = &spec.netem {
        println!("# netem schedule: {netem} (seed {})", spec.fault_seed);
    }
    println!("run status          {:>12}", outcome.status.to_string());
    println!("entries read        {:>12}", session.entries_read);
    println!("graph events        {:>12}", session.replay.graph_events);
    println!(
        "replay duration [s] {:>12.2}",
        session.replay.duration_micros as f64 / 1e6
    );
    println!("achieved rate [e/s] {:>12.0}", session.replay.achieved_rate);
    println!(
        "emit latency p99 [us] {:>10}",
        session.emit_latency.quantile_upper_bound(0.99)
    );
    println!("quiesced            {:>12}", outcome.quiesced);
    println!("\n# {} final report", report.name);
    for (metric, value) in &report.summary {
        println!("{metric:<19} {value:>12.0}");
    }
    // Level-2 stage-pair latencies of the 1-in-N sampled events, when the
    // platform granted in-source tracing.
    let mut traced = false;
    for metric in TRACE_STAGE_METRICS {
        let values: Vec<f64> = outcome
            .log
            .series(TRACE_SOURCE, metric)
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        if let Some(q) = Quantiles::of(&values) {
            if !traced {
                println!("\n# sampled stage latencies [us] (median / p99, n)");
                traced = true;
            }
            println!(
                "{metric:<26} {:>8.0} / {:>8.0}  n={}",
                q.median,
                q.p99,
                values.len()
            );
        }
    }
    // Chaos recovery summary: one row per injected fault, correlated
    // against the ingress-rate series.
    if chaos_description.is_some() {
        let windows = recovery_windows(&outcome.log, RECOVERY_FRACTION);
        if windows.is_empty() {
            println!("\n# chaos recovery: no faults fired");
        } else {
            println!(
                "\n# chaos recovery (recovered = {:.0}% of pre-fault rate)",
                RECOVERY_FRACTION * 100.0
            );
            println!(
                "{:<40} {:>8} {:>10} {:>7} {:>9} {:>6}",
                "fault", "t[s]", "dip[e/s]", "depth", "ttr[s]", "lost"
            );
            for w in &windows {
                let ttr = w
                    .time_to_recover_secs
                    .map_or_else(|| "never".to_owned(), |t| format!("{t:.2}"));
                println!(
                    "{:<40} {:>8.2} {:>10.0} {:>6.0}% {:>9} {:>6}",
                    w.fault,
                    w.t_fault_secs,
                    w.dip_rate,
                    w.dip_depth * 100.0,
                    ttr,
                    w.events_lost
                );
                if let Some((action, t)) = &w.recovery {
                    println!("  └ {action} at t={t:.2}s");
                }
            }
        }
    }
    // Netem recovery: network faults correlated against the replayer's
    // ingress-rate series.
    if spec.netem.is_some() {
        let windows = recovery_windows_from(
            &outcome.log,
            NETEM_SOURCE,
            "replayer",
            "ingress_rate",
            RECOVERY_FRACTION,
        );
        print_netem_recovery(&windows, "ingress_rate");
    }
    println!(
        "\n# merged result log: {} records",
        outcome.log.records().len()
    );
    if outcome.status.is_aborted() {
        eprintln!("gt-run: run aborted by watchdog: {}", outcome.status);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Runs what the flags name: plans every cell first (a bad level or
/// combination fails before anything runs), then the differential, a
/// curve of cells, or one replay or load run.
fn run_flags(mut args: Args) -> Result<ExitCode, String> {
    let registry = builtin_registry();
    // A-priori stream faults: derive the weaker stream before replay.
    let fault_description = match &args.faults {
        Some(faults) => {
            let (scratch, description) =
                materialize_faults(&args.base.stream, faults, args.base.fault_seed)
                    .map_err(|e| format!("gt-run: --faults {e}"))?;
            args.base.stream = scratch;
            Some(description)
        }
        None => None,
    };
    let code = plan_flags(&args, &registry)
        .map_err(|e| format!("gt-run: {e}"))
        .map(|mut cells| match (args.differential, args.curve) {
            (true, _) => run_differential_mode(&cells[0].0, &registry),
            (false, Some(Curve::Ingress)) => {
                run_ingress_curve(cells, args.assert_achieved, &registry)
            }
            (false, Some(Curve::Shards)) => run_shard_curve(cells, args.assert_achieved, &registry),
            (false, None) => {
                let (spec, plan) = cells.swap_remove(0);
                if spec.clients > 0 {
                    run_load_mode(&spec, plan, args.assert_achieved, &registry)
                } else {
                    run_single_mode(&spec, plan, fault_description.as_deref(), &registry)
                }
            }
        });
    if fault_description.is_some() {
        let _ = std::fs::remove_file(&args.base.stream);
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
}

//! The one renderer: every table `gt-run` prints, rebuilt from the
//! artifacts its runs leave — the matrix journal and one result log per
//! cell-repetition beside it — by the same functions `gt-report --matrix`
//! calls, so the two tools print the same bytes.
//!
//! Which view a journal renders as is read off its header:
//!
//! * a bare header (no inputs: a journal [`crate::run_matrix`] wrote for a
//!   library caller) renders as its fingerprint, record count and matrix
//!   table;
//! * a flag run of `gt-run` names its one-repetition matrix after its view
//!   ([`FLAG_VIEWS`]): the run report of each cell (single-sink or load),
//!   the connections × rate ingress curve, or throughput against the
//!   shard count;
//! * any other journal with inputs is a `gt-run matrix` campaign: its spec,
//!   journal path, matrix table and completion line.
//!
//! A flag run's journal describes each of its runs in full: the header's
//! inputs are the base [`RunSpec`] (stream, options, seeds, stream
//! faults), and a record's cell sets the factors on it, so a report's
//! headers come from the spec the run was resolved to. Its numbers come
//! from the run's log: what [`crate::run()`] recorded of its outcome under
//! the `run` source, the platform's closing report, the sojourn tail, the
//! stage latencies and the fault journals.

use std::fmt::{self, Write as _};
use std::path::{Path, PathBuf};

use gt_analysis::{
    recovery_windows, recovery_windows_from, shard_scaling, sojourn_quantiles, Quantiles,
    RecoveryWindow, TailQuantiles, TRACE_SOURCE, TRACE_STAGE_METRICS,
};
use gt_chaos::FaultSchedule;
use gt_metrics::{MetricValue, ResultLog};
use gt_netem::NETEM_SOURCE;

use crate::differential::DifferentialOutcome;
use crate::load::LOAD_SOURCE;
use crate::orchestrator::{
    aggregate_records, cell_id, fnv1a, read_journal, Assignment, CellAggregate, JournalRecord,
    MatrixProgress, RunSpec, ScenarioMatrix,
};
use crate::run::{PIPELINE_SOURCE, RUN_SOURCE};

const RUN_VIEW: &str = "gt-run";
const SCALE_VIEW: &str = "gt-run-scale";
const SHARDS_VIEW: &str = "gt-run-shards";

/// The matrix names of `gt-run`'s flag runs, by what they print: a plain
/// run (one run report per cell), `--scale` (the ingress curve) and a
/// `--shards` list (the shard curve). A campaign may not take them.
pub const FLAG_VIEWS: [&str; 3] = [RUN_VIEW, SCALE_VIEW, SHARDS_VIEW];

/// The column heads of the sojourn-tail table.
const SOJOURN_HEADER: &str = "\n# sojourn latency [us] per class (completion - scheduled arrival)
class             n        p50        p99       p999        max\n";

/// The column heads of the ingress-scaling curve.
const INGRESS_HEADER: &str =
    " clients  target[e/s] offered[e/s]     achieved    ratio    p99[us]   p999[us]   viol\n";

/// Throughput fraction of the pre-fault baseline that counts as
/// "recovered" in the recovery tables.
const RECOVERY_FRACTION: f64 = 0.9;

/// `writeln!` into a `String`, which cannot fail.
macro_rules! put {
    ($out:expr, $($arg:tt)*) => {{
        let _ = writeln!($out, $($arg)*);
    }};
}

/// One `label value` row of a report, the value right-aligned.
fn row(out: &mut String, label: &str, value: impl fmt::Display) {
    put!(out, "{label:<19} {value:>12}");
}

/// Where the result log of repetition `rep` of `cell` lives: beside the
/// journal, named by a hash of the cell id (which may hold any level).
fn log_path(journal: &Path, cell: &str, rep: u32) -> PathBuf {
    let mut name = journal.as_os_str().to_owned();
    name.push(format!(".{:016x}.{rep}.log", fnv1a(cell)));
    PathBuf::from(name)
}

/// Writes `log`, the result log of repetition `rep` of `cell` run as
/// `spec`, beside `journal`, and returns the headline metrics its journal
/// line records — read off that log, so every journaled number is in it.
pub fn write_result_log(
    journal: &Path,
    cell: &Assignment,
    rep: u32,
    log: &ResultLog,
    spec: &RunSpec,
) -> Result<Vec<(String, f64)>, String> {
    let path = log_path(journal, &cell_id(cell), rep);
    let written = log.write_to_file(&path);
    written.map_err(|e| format!("writing {}: {e}", path.display()))?;
    let run = |metric| count(log, RUN_SOURCE, metric);
    let load = |metric| count(log, LOAD_SOURCE, metric);
    let metrics = match spec.clients {
        0 => vec![
            ("achieved_rate", run("achieved_rate")),
            ("events", run("graph_events")),
            ("duration_s", run("duration_us") / 1e6),
        ],
        _ => {
            let tail = sojourn_quantiles(log, "main").map(|t| ("p99_sojourn_us", t.p99));
            let lost = ("connections_lost", load("connections_lost"));
            let lost = spec.netem.as_ref().map(|_| lost);
            let rates = [
                ("offered_rate", run("offered_rate")),
                ("achieved_rate", run("achieved_rate")),
                ("achieved_ratio", load("achieved_ratio")),
                ("marker_violations", load("marker_violations")),
            ];
            rates.into_iter().chain(tail).chain(lost).collect()
        }
    };
    let metrics = metrics.into_iter().map(|(name, v)| (name.to_owned(), v));
    Ok(metrics.collect())
}

/// Renders the journal at `path` and the result logs beside it as `gt-run`
/// printed them, and says why that invocation fails: the
/// `--assert-achieved` gate (`threshold`) on each journaled load run, and
/// a flag run the watchdog aborted. `progress` is what the invocation that
/// ran the journal counted — it printed the campaign's head ([`matrix_head`])
/// itself, before the runs; without it the journal renders whole, as one
/// uninterrupted run of its records.
pub fn render_journal(
    path: &str,
    progress: Option<MatrixProgress>,
    threshold: Option<f64>,
) -> Result<(String, Vec<String>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let journal = read_journal(&text).map_err(|e| format!("{path}: {e}"))?;
    let records = journal.records;
    let mut failures = threshold.map_or_else(Vec::new, |t| gate_failures(&records, t));
    let matrix = ScenarioMatrix::from_fingerprint(&journal.fingerprint);
    let Some(matrix) = matrix.filter(|_| !journal.inputs.is_empty()) else {
        let aborted = records.iter().filter(|r| r.status.is_aborted()).count();
        let ignored = match journal.ignored_lines {
            0 => String::new(),
            // A killed run's cut last line, or a corrupt line and all after
            // it: a resume truncates them and re-runs those repetitions.
            n => format!(", {n} line(s) past the valid prefix ignored"),
        };
        let table = render_matrix_table(&aggregate_records(&records));
        let (fingerprint, n) = (journal.fingerprint, records.len());
        let text = format!(
            "matrix: {fingerprint}\njournal: {n} cell-repetitions ({aborted} aborted{ignored})\n{table}"
        );
        return Ok((text, failures));
    };
    if !FLAG_VIEWS.contains(&matrix.name.as_str()) {
        let mut text = progress.map_or_else(|| matrix_head(&matrix, path), |_| String::new());
        let (total, journaled) = (matrix.total_runs(), records.len());
        let progress = progress.map(|p| (p.executed, p.resumed));
        let (executed, resumed) = progress.unwrap_or((journaled, 0));
        text += &format!("\n{}", render_matrix_table(&aggregate_records(&records)));
        text += &match executed + resumed < total {
            true => format!("matrix incomplete: {journaled} of {total} runs journaled\n"),
            false => format!(
                "matrix complete: {total} runs total, {executed} executed, {resumed} resumed from journal\n"
            ),
        };
        return Ok((text, failures));
    }
    let base = base_spec(&journal.inputs).ok_or_else(|| format!("{path}: bad inputs"))?;
    let mut runs = Vec::new();
    for record in &records {
        let pairs = record
            .cell
            .split(';')
            .filter_map(|pair| pair.split_once('='));
        let cell: Assignment = pairs.map(|(k, v)| (k.to_owned(), v.to_owned())).collect();
        let log = log_path(Path::new(path), &record.cell, record.rep);
        let read = ResultLog::read_from_file(&log).map_err(|e| format!("{}: {e}", log.display()));
        runs.push((base.resolve(&cell)?, read?));
        if record.status.is_aborted() && matrix.name == RUN_VIEW {
            failures.push(format!("run aborted by watchdog: {}", record.status));
        }
    }
    let text = match matrix.name.as_str() {
        RUN_VIEW => runs.iter().map(run_report).collect(),
        SCALE_VIEW => ingress_curve(&runs),
        _ => shard_curve(&runs),
    };
    Ok((text, failures))
}

/// The base spec a flag run's journal header records as its inputs: the
/// fields its reports print (the options only tell journals apart).
fn base_spec(inputs: &str) -> Option<RunSpec> {
    let (stream, rest) = inputs.strip_prefix("stream=")?.split_once(";opt=")?;
    let (_, rest) = rest.split_once(";load_seed=")?;
    let (load_seed, rest) = rest.split_once(";fault_seed=")?;
    let (fault_seed, faults) = rest.split_once(";faults=")?;
    let mut base = RunSpec::new(stream, load_seed.parse().ok()?, fault_seed.parse().ok()?);
    base.faults = (faults != "none").then(|| faults.to_owned());
    Some(base)
}

/// A campaign's head: its spec and where its journal goes.
pub fn matrix_head(matrix: &ScenarioMatrix, journal: &str) -> String {
    format!("{matrix}journal: {journal}\n")
}

/// Renders the comparative matrix table: one block per cell, one line per
/// metric with mean, CI95, n, and the n ≥ 30 caveat.
pub fn render_matrix_table(cells: &[CellAggregate]) -> String {
    let mut out = String::new();
    for aggregate in cells {
        let n = aggregate.metrics.first().map_or(0, |m| m.summary.count());
        let caveat = match aggregate.meets_n30 {
            true => "",
            false => ", below n>=30 — provisional",
        };
        let (cell, excluded) = (&aggregate.cell, aggregate.excluded);
        put!(out, "cell {cell} (n={n}, excluded={excluded}{caveat})");
        for metric in &aggregate.metrics {
            let (name, mean) = (&metric.name, metric.summary.mean());
            let ci = match &metric.ci95 {
                Some(ci) => format!("CI95 [{:>12.2}, {:>12.2}]", ci.lo, ci.hi),
                None => "(no CI: n < 2)".to_owned(),
            };
            put!(out, "  {name:<20} mean {mean:>12.2}  {ci}");
        }
    }
    out
}

/// The `--assert-achieved` gate over journaled load runs: one message per
/// repetition whose achieved/offered ratio fell below `threshold` or that
/// saw a marker-ordering violation.
fn gate_failures(records: &[JournalRecord], threshold: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for record in records {
        let metric = |name: &str| {
            let found = record.metrics.iter().find(|(n, _)| n == name);
            found.map_or(f64::NAN, |&(_, v)| v)
        };
        let ratio = metric("achieved_ratio");
        if ratio < threshold {
            let below = format!("achieved/offered {ratio:.3} below threshold {threshold:.3}");
            failures.push(below);
        }
        let violations = metric("marker_violations");
        if violations > 0.0 {
            failures.push(format!("{violations} marker ordering violation(s)"));
        }
    }
    failures
}

/// The first value of `source`/`metric` in `log`.
fn value<'a>(log: &'a ResultLog, source: &str, metric: &str) -> Option<&'a MetricValue> {
    let mut records = log.records().iter();
    let found = records.find(|r| r.source == source && r.metric == metric);
    found.map(|r| &r.value)
}

/// `source`/`metric` as a number (NaN when absent).
fn count(log: &ResultLog, source: &str, metric: &str) -> f64 {
    let value = value(log, source, metric).and_then(MetricValue::as_f64);
    value.unwrap_or(f64::NAN)
}

/// The run report of one run: the single-sink replay report, or the load
/// report when the run had clients.
fn run_report((spec, log): &(RunSpec, ResultLog)) -> String {
    let mut out = String::new();
    let shown =
        |source, metric| value(log, source, metric).map_or_else(String::new, |v| v.to_string());
    let run = |metric| shown(RUN_SOURCE, metric);
    let num = |metric| count(log, RUN_SOURCE, metric);
    let (sut, seed, rate) = (&spec.sut, spec.fault_seed, spec.rate);
    if spec.clients > 0 {
        let (clients, model, load_seed) = (spec.clients, spec.loop_model, spec.load_seed);
        put!(
            out,
            "# gt-run load: {sut} with {clients} clients, {model} loop @ {rate:.0} e/s offered (seed {load_seed})"
        );
        if let Some(netem) = &spec.netem {
            put!(out, "# netem schedule: {netem} (seed {seed})");
        }
        let rates = [num("offered_rate"), num("achieved_rate")];
        load_report(&mut out, log, &run("quiesced"), rates);
    } else {
        put!(out, "# gt-run: {sut} @ {rate} events/s");
        let describe = |chaos: &String| FaultSchedule::parse(chaos, seed).map(|s| s.describe());
        let chaos = spec
            .chaos
            .as_ref()
            .map(|chaos| describe(chaos).unwrap_or(chaos.clone()));
        let schedules = [
            ("stream faults", spec.faults.clone()),
            ("chaos schedule", chaos),
            ("netem schedule", spec.netem.clone()),
        ];
        for (what, schedule) in schedules {
            if let Some(schedule) = schedule {
                put!(out, "# {what}: {schedule} (seed {seed})");
            }
        }
        for (label, source, metric) in [
            ("run status", RUN_SOURCE, "status"),
            ("entries read", PIPELINE_SOURCE, "entries_read"),
            ("graph events", RUN_SOURCE, "graph_events"),
        ] {
            row(&mut out, label, shown(source, metric));
        }
        let duration = num("duration_us") / 1e6;
        row(&mut out, "replay duration [s]", format!("{duration:.2}"));
        let (rate, p99) = (
            num("achieved_rate"),
            shown(PIPELINE_SOURCE, "emit_latency_p99_us"),
        );
        row(&mut out, "achieved rate [e/s]", format!("{rate:.0}"));
        put!(out, "emit latency p99 [us] {p99:>10}");
        row(&mut out, "quiesced", run("quiesced"));
    }
    put!(out, "\n# {sut} final report");
    // The closing report is stamped with the run's own outcome records;
    // the platform's sampled series under the same source come earlier.
    let mut records = log.records().iter();
    let closed = records.find(|r| r.source == RUN_SOURCE && r.metric == "status");
    let t_closed = closed.map_or(u64::MAX, |r| r.t_micros);
    for r in log.records() {
        if r.source == sut.as_str() && r.t_micros == t_closed {
            let value = r.value.as_f64().unwrap_or(f64::NAN);
            row(&mut out, r.metric.as_str(), format!("{value:.0}"));
        }
    }
    let netem_rate = if spec.clients > 0 {
        (LOAD_SOURCE, "achieved_rate.main")
    } else {
        stage_latencies(&mut out, log);
        if spec.chaos.is_some() {
            let windows = recovery_windows(log, RECOVERY_FRACTION);
            recovery_table(&mut out, &windows, "chaos recovery", true);
        }
        ("replayer", "ingress_rate")
    };
    if spec.netem.is_some() {
        let (source, metric) = netem_rate;
        let windows = recovery_windows_from(log, NETEM_SOURCE, source, metric, RECOVERY_FRACTION);
        let title = format!("netem recovery vs {metric}");
        recovery_table(&mut out, &windows, &title, false);
    }
    put!(out, "\n# merged result log: {} records", log.len());
    out
}

/// The load front's offered-vs-achieved summary and sojourn tail.
fn load_report(out: &mut String, log: &ResultLog, quiesced: &str, rates: [f64; 2]) {
    let load = |metric| count(log, LOAD_SOURCE, metric);
    // A run that lost connections or clients still completes (the barrier
    // excuses dead connections) — surface the degradation.
    let degraded = load("connections_lost") > 0.0 || load("clients_failed") > 0.0;
    let status = if degraded { "degraded" } else { "completed" };
    row(out, "run status", status);
    row(out, "offered events", load("offered_total"));
    row(out, "sent events", load("sent_total"));
    for (what, rate) in ["offered", "achieved"].into_iter().zip(rates) {
        row(out, &format!("{what} rate [e/s]"), format!("{rate:.0}"));
    }
    let ratio = load("achieved_ratio");
    row(out, "achieved/offered", format!("{ratio:.3}"));
    for (label, metric) in [
        ("marker violations", "marker_violations"),
        ("parse errors", "parse_errors"),
        ("connections lost", "connections_lost"),
        ("clients failed", "clients_failed"),
    ] {
        row(out, label, load(metric));
    }
    row(out, "quiesced", quiesced);
    out.push_str(SOJOURN_HEADER);
    for class in ["main"] {
        match sojourn_quantiles(log, class) {
            Some(tail) => put!(out, "{}", sojourn_row(class, &tail)),
            None => put!(out, "{class:<10} insufficient samples"),
        }
    }
}

/// One class's row of the sojourn-tail table.
fn sojourn_row(class: &str, tail: &TailQuantiles) -> String {
    let (n, p50, p99, p999, max) = (tail.n, tail.p50, tail.p99, tail.p999, tail.max);
    format!("{class:<10} {n:>8} {p50:>10.0} {p99:>10.0} {p999:>10.0} {max:>10.0}")
}

/// Level-2 stage-pair latencies of the 1-in-N sampled events, when the
/// platform granted in-source tracing.
fn stage_latencies(out: &mut String, log: &ResultLog) {
    let mut traced = false;
    for metric in TRACE_STAGE_METRICS {
        let series = log.series(TRACE_SOURCE, metric);
        let values: Vec<f64> = series.into_iter().map(|(_, v)| v).collect();
        if let Some(q) = Quantiles::of(&values) {
            if !traced {
                put!(out, "\n# sampled stage latencies [us] (median / p99, n)");
                traced = true;
            }
            let (median, p99, n) = (q.median, q.p99, values.len());
            put!(out, "{metric:<26} {median:>8.0} / {p99:>8.0}  n={n}");
        }
    }
}

/// One row per fault window — with a `lost` column for `chaos` faults —
/// and the recovery action journaled under it; "no `kind` fired" when
/// there is none.
fn recovery_table(out: &mut String, windows: &[RecoveryWindow], title: &str, chaos: bool) {
    let (what, kind) = match chaos {
        true => ("chaos", "faults"),
        false => ("netem", "network faults"),
    };
    if windows.is_empty() {
        return put!(out, "\n# {what} recovery: no {kind} fired");
    }
    let percent = RECOVERY_FRACTION * 100.0;
    put!(
        out,
        "\n# {title} (recovered = {percent:.0}% of pre-fault rate)"
    );
    let width = if chaos { 40 } else { 44 };
    let lost = |value: &dyn fmt::Display| match chaos {
        true => format!(" {value:>6}"),
        false => String::new(),
    };
    let (fault, t, dip, depth, ttr) = ("fault", "t[s]", "dip[e/s]", "depth", "ttr[s]");
    let lost_column = lost(&"lost");
    put!(
        out,
        "{fault:<width$} {t:>8} {dip:>10} {depth:>7} {ttr:>9}{lost_column}"
    );
    for w in windows {
        let ttr = w.time_to_recover_secs.map(|t| format!("{t:.2}"));
        let ttr = ttr.unwrap_or_else(|| "never".to_owned());
        let (fault, t, dip, depth) = (&w.fault, w.t_fault_secs, w.dip_rate, w.dip_depth * 100.0);
        let lost = lost(&w.events_lost);
        put!(
            out,
            "{fault:<width$} {t:>8.2} {dip:>10.0} {depth:>6.0}% {ttr:>9}{lost}"
        );
        if let Some((action, t)) = &w.recovery {
            put!(out, "  └ {action} at t={t:.2}s");
        }
    }
}

/// The connections × rate scaling curve: one row per load run.
fn ingress_curve(runs: &[(RunSpec, ResultLog)]) -> String {
    let mut out = String::new();
    if let Some((spec, _)) = runs.first() {
        let (sut, model, seed) = (&spec.sut, spec.loop_model, spec.load_seed);
        put!(
            out,
            "# gt-run ingress scaling curve: {sut} {model} loop, seed {seed}"
        );
    }
    out.push_str(INGRESS_HEADER);
    for (spec, log) in runs {
        let tail = sojourn_quantiles(log, "main");
        let (p99, p999) = tail.map_or((f64::NAN, f64::NAN), |t| (t.p99, t.p999));
        let (clients, target) = (spec.clients, spec.rate);
        let [offered, achieved] =
            ["offered_rate", "achieved_rate"].map(|m| count(log, RUN_SOURCE, m));
        let [ratio, viol] =
            ["achieved_ratio", "marker_violations"].map(|m| count(log, LOAD_SOURCE, m));
        put!(out, "{clients:>8} {target:>12.0} {offered:>12.0} {achieved:>12.0} {ratio:>8.3} {p99:>10.0} {p999:>10.0} {viol:>6}");
    }
    out
}

/// The throughput-vs-shards scaling curve, normalized by
/// [`shard_scaling`] against the smallest count.
fn shard_curve(runs: &[(RunSpec, ResultLog)]) -> String {
    let mut out = String::new();
    if let Some((spec, _)) = runs.first() {
        let (sut, clients, model) = (&spec.sut, spec.clients, spec.loop_model);
        let (rate, seed) = (spec.rate, spec.load_seed);
        put!(
            out,
            "# gt-run throughput-vs-shards: {sut}, {clients} clients, {model} loop @ {rate:.0} e/s, seed {seed}"
        );
    }
    let achieved = |(spec, log): &(RunSpec, ResultLog)| {
        (
            spec.shards.unwrap_or(1),
            count(log, RUN_SOURCE, "achieved_rate"),
        )
    };
    let samples: Vec<(usize, f64)> = runs.iter().map(achieved).collect();
    out.push_str("  shards  achieved[e/s]    speedup   efficiency\n");
    for row in shard_scaling(&samples) {
        let (shards, rate, speedup, efficiency) =
            (row.shards, row.achieved, row.speedup, row.efficiency);
        put!(
            out,
            "{shards:>8} {rate:>14.0} {speedup:>10.2} {efficiency:>12.2}"
        );
    }
    out
}

/// The serial-vs-sharded differential's verdict table: `baseline` at
/// `shards=1` against `candidate` at `shards`, both at `rate`.
pub fn render_differential(
    outcome: &DifferentialOutcome,
    (baseline, candidate): (&str, &str),
    shards: usize,
    rate: f64,
) -> String {
    let mut out = String::new();
    let header = format!("{baseline} (shards=1) vs {candidate} (shards={shards}) @ {rate:.0} e/s");
    put!(out, "# gt-run differential: {header}");
    for (label, report) in [
        ("baseline events", &outcome.baseline_report),
        ("candidate events", &outcome.candidate_report),
    ] {
        let events = report.get("events").unwrap_or(f64::NAN);
        row(&mut out, label, format!("{events:.0}"));
    }
    let digest = &outcome.baseline_digest;
    row(&mut out, "marker windows", digest.windows.len());
    row(&mut out, "final vertices", digest.final_adjacency.len());
    let verdict = match outcome.mismatch {
        None => "IDENTICAL",
        Some(_) => "DIVERGED",
    };
    row(&mut out, "verdict", verdict);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run, RunPlan, Target};
    use gt_load::{LoadPlan, LoopModel};
    use gt_sut::{SutOptions, SutRegistry};

    // The sojourn row a `--clients` run prints is rendered from the log
    // file the run leaves: it is the tail of the run's raw samples.
    #[test]
    fn a_load_runs_sojourn_row_is_the_tail_of_its_samples() {
        let mut registry = SutRegistry::new();
        tide_store::sut::register(&mut registry);
        let options = SutOptions::new()
            .set("timestamper_cost_us", 0)
            .set("shard_cost_us", 0);
        let stream = gt_workloads::Table3Workload::small(1_000, 3).generate();
        let load = LoadPlan::single(4, 40_000.0, LoopModel::Open, 1);
        let mut plan = RunPlan::new(stream, 0.0).with_load(load);
        plan.sysmon = None;
        let outcome = run(plan, Target::Sut(&registry, "tide-store", &options)).unwrap();
        let clients = outcome.load().clients.iter();
        let samples: Vec<f64> = clients
            .flat_map(|client| client.sojourn.iter().map(|&(_, us)| us as f64))
            .collect();
        let want = TailQuantiles::of(&samples).unwrap();

        let path = std::env::temp_dir().join(format!("gt-render-{}.log", std::process::id()));
        outcome.log.write_to_file(&path).unwrap();
        let log = ResultLog::read_from_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(sojourn_quantiles(&log, "main"), Some(want));
        let mut report = String::new();
        load_report(&mut report, &log, "true", [0.0; 2]);
        let row = sojourn_row("main", &want);
        assert!(report.lines().any(|line| line == row), "{report}");
    }
}

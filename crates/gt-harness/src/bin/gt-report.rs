//! `gt-report` — result-log analysis as a standalone tool.
//!
//! Reads a merged result log (the log collector's output) and prints the
//! assessment the paper's methodology starts from: per-series summaries,
//! marker positions, and optional cross-correlation between two series.
//!
//! ```text
//! gt-report <result.log> [--series SOURCE METRIC] [--correlate S1 M1 S2 M2] [--resources]
//! gt-report --matrix <journal.jsonl>
//! ```
//!
//! `--matrix` re-renders a journal `gt-run` wrote, without re-running
//! anything: it prints what that invocation printed (the run report, the
//! scaling curve, or a campaign's CI95 table), from the journal and the
//! result logs beside it (`gt_harness::render`).

use std::process::ExitCode;

use gt_analysis::{cross_correlation, Quantiles, Summary};
use gt_harness::render_journal;
use gt_metrics::{Name, ResultLog};

/// Human-readable byte count (binary units, matching `top`/`htop`).
fn fmt_bytes(bytes: f64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    format!("{value:.1} {}", UNITS[unit])
}

/// Prints the Level-0 resource summary for every source that carries a
/// process-monitor series (peak RSS, mean/max CPU%, totals).
fn print_resource_summary(log: &ResultLog) -> bool {
    let mut sources: Vec<Name> = log
        .records()
        .iter()
        .filter(|r| r.metric == "cpu_percent" || r.metric == "rss_bytes")
        .map(|r| r.source.clone())
        .collect();
    sources.sort();
    sources.dedup();
    if sources.is_empty() {
        return false;
    }
    println!("resource usage (Level-0 monitor):");
    for source in sources {
        let cpu: Vec<f64> = log
            .series(&source, "cpu_percent")
            .iter()
            .map(|&(_, v)| v)
            .collect();
        let rss: Vec<f64> = log
            .series(&source, "rss_bytes")
            .iter()
            .map(|&(_, v)| v)
            .collect();
        let threads = log.series(&source, "threads");
        let mut line = format!("    {source}:");
        if !cpu.is_empty() {
            let s = Summary::of(&cpu);
            line.push_str(&format!(
                " cpu mean {:.1}% max {:.1}%,",
                s.mean(),
                s.max().unwrap_or(0.0)
            ));
        }
        if !rss.is_empty() {
            let s = Summary::of(&rss);
            line.push_str(&format!(
                " rss peak {} (mean {}),",
                fmt_bytes(s.max().unwrap_or(0.0)),
                fmt_bytes(s.mean())
            ));
        }
        if let Some(&(_, n)) = threads.last() {
            line.push_str(&format!(" {n:.0} threads,"));
        }
        println!("{}", line.trim_end_matches(','));
        for (metric, label) in [
            ("io_read_bytes", "io read"),
            ("io_write_bytes", "io written"),
        ] {
            if let Some(&(_, v)) = log.series(&source, metric).last() {
                println!("        {label} {}", fmt_bytes(v));
            }
        }
        for r in log.records() {
            if r.source == source && r.metric == "error" {
                println!("        monitor error: {}", r.value);
            }
        }
    }
    true
}

fn print_series_summary(log: &ResultLog, source: &str, metric: &str) {
    let series = log.series(source, metric);
    if series.is_empty() {
        println!("{source}/{metric}: no numeric samples");
        return;
    }
    let values: Vec<f64> = series.iter().map(|&(_, v)| v).collect();
    let summary = Summary::of(&values);
    // A salvaged partial log can carry all-NaN windows (a degraded
    // sampler); degrade the row rather than aborting the whole report.
    let Some(q) = Quantiles::of(&values) else {
        println!(
            "{source}/{metric}: insufficient samples ({} records, none usable)",
            values.len()
        );
        return;
    };
    println!(
        "{source}/{metric}: n={} span {:.2}s..{:.2}s",
        summary.count(),
        series.first().expect("non-empty").0,
        series.last().expect("non-empty").0,
    );
    println!(
        "    mean {:.3} (stddev {:.3}), min {:.3}, median {:.3}, p95 {:.3}, max {:.3}",
        summary.mean(),
        summary.stddev(),
        q.min,
        q.median,
        q.p95,
        q.max
    );
}

/// The strongest lagged Pearson correlation between two series.
fn print_correlation(log: &ResultLog, (s1, m1): (&str, &str), (s2, m2): (&str, &str)) {
    let a: Vec<f64> = log.series(s1, m1).iter().map(|&(_, v)| v).collect();
    let b: Vec<f64> = log.series(s2, m2).iter().map(|&(_, v)| v).collect();
    let n = a.len().min(b.len());
    let lags = cross_correlation(&a[..n], &b[..n], (n / 4).max(1));
    let strongest = lags
        .iter()
        .max_by(|(_, x), (_, y)| x.abs().total_cmp(&y.abs()));
    match strongest {
        Some((lag, r)) => println!(
            "cross-correlation {s1}/{m1} vs {s2}/{m2}: strongest r={r:.3} at lag {lag} samples"
        ),
        None => println!("cross-correlation: series too short"),
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        return Err(
            "usage: gt-report <result.log> [--series SOURCE METRIC] [--correlate S1 M1 S2 M2] [--resources]\n\
             \x20      gt-report --matrix <journal.jsonl>"
                .into(),
        );
    }
    if args[0] == "--matrix" {
        let path = args.get(1).ok_or("--matrix needs a journal path")?;
        print!("{}", render_journal(path, None, None)?.0);
        return Ok(());
    }
    let log = ResultLog::read_from_file(&args[0]).map_err(|e| format!("{}: {e}", args[0]))?;
    println!(
        "result log: {} records from {} sources",
        log.len(),
        log.sources().len()
    );

    let mut rest = args[1..].iter();
    let mut did_something = false;
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--series" => {
                let source = rest.next().ok_or("--series needs SOURCE METRIC")?;
                let metric = rest.next().ok_or("--series needs SOURCE METRIC")?;
                print_series_summary(&log, source, metric);
                did_something = true;
            }
            "--correlate" => {
                let mut next = || {
                    rest.next()
                        .map(String::as_str)
                        .ok_or("--correlate needs S1 M1 S2 M2")
                };
                let (a, b) = ((next()?, next()?), (next()?, next()?));
                print_correlation(&log, a, b);
                did_something = true;
            }
            "--resources" => {
                if !print_resource_summary(&log) {
                    println!("resource usage: no monitor series in this log");
                }
                did_something = true;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }

    if !did_something {
        // Default report: every (source, metric) pair plus markers.
        let mut pairs: Vec<(Name, Name)> = log
            .records()
            .iter()
            .filter(|r| r.value.as_f64().is_some())
            .map(|r| (r.source.clone(), r.metric.clone()))
            .collect();
        pairs.sort();
        pairs.dedup();
        for (source, metric) in pairs {
            print_series_summary(&log, &source, &metric);
        }
        print_resource_summary(&log);
        let markers: Vec<_> = log
            .records()
            .iter()
            .filter(|r| r.metric == "marker")
            .collect();
        if !markers.is_empty() {
            println!("markers:");
            for m in markers {
                println!("    {:.3}s  {}", m.t_secs(), m.value);
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("gt-report: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_metrics::MetricRecord;

    // Regression: an all-NaN series from a degraded sampler used to
    // panic `Quantiles::of`'s sort and abort the whole report; it must
    // degrade to an "insufficient samples" row instead.
    #[test]
    fn all_nan_series_degrades_instead_of_panicking() {
        let mut log = ResultLog::new();
        for i in 0..5u64 {
            log.push(MetricRecord::float(i * 1000, "sysmon", "cpu", f64::NAN));
        }
        print_series_summary(&log, "sysmon", "cpu");
    }

    // Regression: a NaN sample made every lag's r NaN, and picking the
    // strongest lag panicked on the NaN comparison.
    #[test]
    fn a_nan_sample_in_a_correlated_series_does_not_panic() {
        let mut log = ResultLog::new();
        for i in 0..8u64 {
            let value = if i == 1 { f64::NAN } else { (i + 1) as f64 };
            log.push(MetricRecord::float(i * 1000, "sysmon", "cpu", value));
        }
        print_correlation(&log, ("sysmon", "cpu"), ("sysmon", "cpu"));
    }

    #[test]
    fn empty_series_degrades_instead_of_panicking() {
        let log = ResultLog::new();
        print_series_summary(&log, "sysmon", "cpu");
    }
}

//! **Figure 3c** — CPU usage of the store's components over time at
//! 10,000 events/s batched as 10 events per transaction.
//!
//! Paper finding: "the evaluation showed a relatively high utilization of
//! the timestamper process of Weaver" — the serial ordering component
//! dominates, the shard processes stay comparatively idle. "This finding
//! could represent an entry point for optimizations."
//!
//! The store accounts each component's busy time into hub counters; one
//! [`gt_harness::run()`] at Level 1 samples them every 500 ms, and
//! utilization is each interval's busy-time delta over its measured
//! length — the same computation a Level-0 `pidstat` logger would do per
//! process.

use std::time::Duration;

use gt_bench::{counter_rates, header, scaled};
use gt_core::prelude::*;
use gt_harness::{run, EvaluationLevel, RunPlan, SutOptions, SutRegistry, Target, WatchdogConfig};
use gt_workloads::Table3Workload;
use tide_store::sut::SUT_NAME;

/// How often the store's counters are sampled.
const SAMPLING: Duration = Duration::from_millis(500);

fn main() {
    header("Figure 3c: store component CPU at 10k events/s, 10 events/tx");
    let window = scaled(Duration::from_secs(6));
    let shards = 2usize;

    let events = (10_000.0 * window.as_secs_f64() * 1.2) as usize;
    let stream: GraphStream = Table3Workload::small(events, 7)
        .generate()
        .into_entries()
        .into_iter()
        .filter(|e| !e.is_control())
        .collect();

    let mut registry = SutRegistry::new();
    tide_store::sut::register(&mut registry);
    let options = SutOptions::new()
        .set("shards", shards)
        .set("timestamper_cost_us", 800)
        .set("shard_cost_us", 20)
        .set("queue_capacity", 64)
        .set("batch_size", 10);
    let mut plan = RunPlan::new(stream, 10_000.0)
        .at_level(EvaluationLevel::Level1)
        .with_watchdog(WatchdogConfig::default().with_deadline(window));
    plan.sampling_interval = SAMPLING;
    plan.sysmon = None;
    let outcome = run(plan, Target::Sut(&registry, SUT_NAME, &options)).expect("store run");

    // Busy microseconds per second of wall time, as a percentage.
    let busy = |component: String| {
        let counter = format!("{component}.busy_micros");
        let rates = counter_rates(&outcome.log, SUT_NAME, &counter, SAMPLING / 2);
        rates.into_iter().map(|(t, rate)| (t, rate / 1e4))
    };
    let mut series: Vec<_> = std::iter::once("timestamper".to_owned())
        .chain((0..shards).map(|s| format!("shard-{s}")))
        .map(busy)
        .collect();
    // One row per sample time, while every component has a sample.
    let rows: Vec<(f64, Vec<f64>)> = std::iter::from_fn(|| {
        let row: Option<Vec<(f64, f64)>> = series.iter_mut().map(Iterator::next).collect();
        row.map(|row| (row[0].0, row.iter().map(|&(_, cpu)| cpu).collect()))
    })
    .collect();

    print!("{:>6} {:>16}", "t[s]", "timestamper[%]");
    for s in 0..shards {
        print!(" {:>12}", format!("shard-{s}[%]"));
    }
    println!();
    let mut ts_mean = 0.0;
    let mut shard_mean = 0.0;
    for (t, cpu) in &rows {
        print!("{t:>6.1} {:>16.1}", cpu[0]);
        for c in &cpu[1..] {
            print!(" {c:>12.1}");
        }
        println!();
        ts_mean += cpu[0];
        shard_mean += cpu[1..].iter().sum::<f64>() / shards as f64;
    }
    if !rows.is_empty() {
        ts_mean /= rows.len() as f64;
        shard_mean /= rows.len() as f64;
    }
    println!(
        "\nmean utilization: timestamper {ts_mean:.1}%, shards {shard_mean:.1}%\n\
         Expected shape (paper): the timestamper runs near saturation while\n\
         the shard processes stay far below it."
    );
}

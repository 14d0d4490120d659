//! **Figure 3b** — events processed in the Weaver-class store over time
//! for different streaming rates and transaction batch sizes.
//!
//! Paper setup (Table 3): Barabási–Albert bootstrap (n = 10,000,
//! m₀ = 250, M = 50), then the Table 3 event mix streamed at target rates
//! 10², 10³, 10⁴ events/s, committed as either 1 event/tx or 10 events
//! batched per tx, against a single Weaver instance. Finding: "independent
//! of the actual streaming rates, Weaver appeared to have an upper bound
//! for throughput" — and batching raises that bound.
//!
//! Scaled-down reproduction: the same workload shape, a configurable run
//! window per cell (default 4 s × GT_BENCH_SCALE), and a store whose
//! timestamper costs 800 µs per transaction (ceiling ≈ 1.2k tx/s). Each
//! cell is one [`gt_harness::run()`] at Level 1: the store's native
//! `store.events` counter is sampled every 500 ms, and the watchdog's
//! deadline closes the window.

use std::time::Duration;

use gt_bench::{counter_rates, header, scaled};
use gt_core::prelude::*;
use gt_harness::{run, EvaluationLevel, RunPlan, SutOptions, SutRegistry, Target, WatchdogConfig};
use gt_workloads::Table3Workload;
use tide_store::sut::SUT_NAME;

/// How often the store's counters are sampled.
const SAMPLING: Duration = Duration::from_millis(500);

const RATES: [f64; 3] = [100.0, 1_000.0, 10_000.0];
const BATCHES: [usize; 2] = [1, 10];

fn main() {
    header("Figure 3b: store write throughput over time (rate x batch)");
    let mut registry = SutRegistry::new();
    tide_store::sut::register(&mut registry);
    let window = scaled(Duration::from_secs(4));
    println!("# Table 3 workload: BA bootstrap + 10/5/35/35/15/0 event mix");
    println!("# store: timestamper 800us/tx, 2 shards, 20us/event");
    println!(
        "{:>10} {:>8} {:>6} {:>16} {:>16}",
        "rate[e/s]", "batch", "t[s]", "committed[e/s]", "offered[e/s]"
    );

    for &batch in &BATCHES {
        for &rate in &RATES {
            run_cell(&registry, rate, batch, window);
        }
    }

    println!(
        "\nExpected shape (paper): at low rates the committed series tracks the\n\
         offered rate; past the ceiling it flattens at the same bound regardless\n\
         of the offered rate, and the 10-events/tx ceiling sits about an order\n\
         of magnitude above the 1-event/tx ceiling."
    );
}

fn run_cell(registry: &SutRegistry, rate: f64, batch: usize, window: Duration) {
    // Enough workload to cover the window at the *offered* rate.
    let events = (rate * window.as_secs_f64() * 1.2) as usize + 1_000;
    let workload = Table3Workload::small(events, 42);
    let stream = strip_controls(workload.generate());

    let options = SutOptions::new()
        .set("shards", 2)
        .set("timestamper_cost_us", 800)
        .set("shard_cost_us", 20)
        .set("queue_capacity", 64)
        .set("batch_size", batch);
    let mut plan = RunPlan::new(stream, rate)
        .at_level(EvaluationLevel::Level1)
        .with_watchdog(WatchdogConfig::default().with_deadline(window));
    plan.sampling_interval = SAMPLING;
    plan.sysmon = None;
    let outcome = run(plan, Target::Sut(registry, SUT_NAME, &options)).expect("store run");

    let committed = counter_rates(&outcome.log, SUT_NAME, "store.events", SAMPLING / 2);
    for (t, committed) in committed {
        println!("{rate:>10.0} {batch:>8} {t:>6.1} {committed:>16.0} {rate:>16.0}");
    }
}

/// The Figure 3b runs stream continuously; drop the two-phase pause.
fn strip_controls(stream: GraphStream) -> GraphStream {
    stream
        .into_entries()
        .into_iter()
        .filter(|e| !e.is_control())
        .collect()
}

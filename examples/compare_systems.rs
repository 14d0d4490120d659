//! Statistically rigorous system comparison — the methodology of §4.5.
//!
//! The paper's rule: run at least n ≥ 30 repetitions per configuration,
//! aggregate the metric, and compare 95% confidence intervals;
//! non-overlapping intervals are significantly different. This example
//! compares two configurations of the transactional store (1 event/tx vs
//! 10 events/tx) under an identical workload and identical offered rate,
//! and lets the CI95 comparison deliver the verdict.
//!
//! ```sh
//! cargo run --release --example compare_systems
//! ```

use std::time::{Duration, Instant};

use graphtides::analysis::summary::Comparison;
use graphtides::harness::{compare_metric, repeat_runs, FactorSpace};
use graphtides::prelude::*;
use graphtides::store::{BatchingConnector, StoreConfig, TideStore};
use graphtides::workloads::Table3Workload;

/// Repetitions per configuration: the paper's n >= 30.
const REPETITIONS: u32 = 30;

/// The offered rate, far above both configurations' ceilings.
const RATE: f64 = 50_000.0;

/// One measured run: committed events/s for a given batch size.
fn measure_throughput(stream: &GraphStream, batch: usize) -> f64 {
    let hub = MetricsHub::new();
    let store = TideStore::start(
        StoreConfig {
            shards: 2,
            timestamper_cost_per_tx: Duration::from_micros(400),
            shard_cost_per_event: Duration::from_micros(10),
            queue_capacity: 32,
            supervised: false,
        },
        &hub,
    );
    let mut connector = BatchingConnector::new(store.client(), batch);
    let replayer = Replayer::new(ReplayerConfig {
        target_rate: RATE,
        honor_pauses: false,
        ..Default::default()
    });
    let started = Instant::now();
    replayer
        .replay_stream(stream, &mut connector)
        .expect("replay succeeds");
    let elapsed = started.elapsed().as_secs_f64();
    let committed = store.events_committed() as f64;
    store.shutdown();
    committed / elapsed
}

fn main() {
    // Declare the experiment before measuring (Jain's methodology): the
    // goal, the workload, the metric's conditions and the factor varied.
    let space = FactorSpace::new().factor("events_per_tx", [1, 10]);
    println!("experiment: store-batching-comparison");
    println!("  goal:      does transaction batching significantly raise write throughput?");
    println!("  workload:  Table 3 workload (small), 1,500 evolution events");
    println!("  rate:      {RATE} events/s");
    println!("  reps:      {REPETITIONS}");
    println!(
        "configurations: {} (full factorial)\n",
        space.full_factorial_size()
    );

    // One fixed workload for every run: same stream, same seed.
    let stream = Table3Workload::small(1_500, 7).generate();

    let mut outcomes = Vec::new();
    for assignment in space.full_factorial() {
        let batch: usize = assignment[0].1.parse().expect("numeric level");
        let mut samples = Vec::with_capacity(REPETITIONS as usize);
        let outcome = repeat_runs(REPETITIONS, |_rep| {
            let v = measure_throughput(&stream, batch);
            samples.push(v);
            v
        });
        let ci = outcome.ci95.expect("n >= 2");
        let variability = graphtides::analysis::variability(&samples).expect("enough samples");
        println!(
            "events_per_tx = {batch:>2}: mean {:>8.0} events/s, CI95 [{:>8.0}, {:>8.0}] over {} runs (n>=30: {}, cv {:.1}%, outlier runs {})",
            outcome.summary.mean(),
            ci.lo,
            ci.hi,
            outcome.summary.count(),
            outcome.meets_n30,
            variability.cv * 100.0,
            variability.outliers,
        );
        outcomes.push((batch, outcome));
    }

    let (batch_a, a) = &outcomes[0];
    let (batch_b, b) = &outcomes[1];
    let comparison = compare_metric(a, b).expect("both sides have intervals");
    println!();
    match comparison.verdict {
        Comparison::AGreater => println!(
            "verdict: events_per_tx={batch_a} is significantly FASTER than events_per_tx={batch_b} (non-overlapping CI95)"
        ),
        Comparison::BGreater => println!(
            "verdict: events_per_tx={batch_b} is significantly FASTER than events_per_tx={batch_a} (non-overlapping CI95)"
        ),
        Comparison::NotSignificant => println!(
            "verdict: no significant difference at CI95 — more repetitions or a stronger factor needed"
        ),
    }
    if !comparison.meets_n30 {
        println!("caveat: below the paper's n >= 30 rule — the verdict is provisional");
    }
    println!(
        "\n(The paper: \"non-overlapping confidence intervals of the results from two\n\
         different systems are indeed significantly different under the given interval.\")"
    );
}

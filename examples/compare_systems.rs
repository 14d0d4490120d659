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

use graphtides::analysis::summary::{compare_ci95, Comparison};
use graphtides::harness::{
    run_matrix, Assignment, CellRunResult, Design, FactorSpace, RunStatus, ScenarioMatrix,
};
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
    let session = ReplaySession::new(ReplaySessionConfig {
        replayer: ReplayerConfig {
            target_rate: RATE,
            honor_pauses: false,
            ..Default::default()
        },
        ..Default::default()
    });
    let started = Instant::now();
    session
        .run(stream, &mut connector)
        .expect("replay succeeds");
    let elapsed = started.elapsed().as_secs_f64();
    let committed = store.events_committed() as f64;
    store.shutdown();
    committed / elapsed
}

fn main() {
    // Declare the experiment before measuring (Jain's methodology): the
    // goal, the workload, the metric's conditions and the factor varied.
    let matrix = ScenarioMatrix {
        name: "store-batching-comparison".into(),
        repetitions: REPETITIONS,
        seed: 7,
        design: Design::FullFactorial,
        space: FactorSpace::new().factor("events_per_tx", [1, 10]),
    };
    println!("experiment: {}", matrix.name);
    println!("  goal:      does transaction batching significantly raise write throughput?");
    println!("  workload:  Table 3 workload (small), 1,500 evolution events");
    println!("  rate:      {RATE} events/s");
    println!("  reps:      {REPETITIONS}");
    println!(
        "configurations: {} (full factorial), {} runs\n",
        matrix.cells().len(),
        matrix.total_runs()
    );

    // One fixed workload for every run: same stream, same seed. Each run
    // is journaled, so an interrupted comparison resumes where it stopped.
    let stream = Table3Workload::small(1_500, 7).generate();
    let journal = std::env::temp_dir().join("compare_systems.journal.jsonl");
    std::fs::remove_file(&journal).ok();
    let mut samples: Vec<(usize, Vec<f64>)> = Vec::new();
    let outcome = run_matrix(&matrix, &journal, &mut |cell: &Assignment, _, _| {
        let batch: usize = cell[0].1.parse().expect("numeric level");
        let v = measure_throughput(&stream, batch);
        match samples.iter_mut().find(|(b, _)| *b == batch) {
            Some((_, values)) => values.push(v),
            None => samples.push((batch, vec![v])),
        }
        CellRunResult {
            status: RunStatus::Completed,
            metrics: vec![("events_per_s".to_owned(), v)],
        }
    })
    .expect("the journal is writable");
    std::fs::remove_file(&journal).ok();

    for (cell, (batch, samples)) in outcome.cells.iter().zip(&samples) {
        let metric = &cell.metrics[0];
        let ci = metric.ci95.as_ref().expect("n >= 2");
        let variability = graphtides::analysis::variability(samples).expect("enough samples");
        println!(
            "events_per_tx = {batch:>2}: mean {:>8.0} events/s, CI95 [{:>8.0}, {:>8.0}] over {} runs (n>=30: {}, cv {:.1}%, outlier runs {})",
            metric.summary.mean(),
            ci.lo,
            ci.hi,
            metric.summary.count(),
            cell.meets_n30,
            variability.cv * 100.0,
            variability.outliers,
        );
    }

    let (batch_a, batch_b) = (samples[0].0, samples[1].0);
    let (a, b) = (&outcome.cells[0].metrics[0], &outcome.cells[1].metrics[0]);
    let comparison = compare_ci95(&a.summary, &b.summary).expect("both sides have intervals");
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

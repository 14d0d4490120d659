//! Wall-clock shard-scaling check for the release timing job: when the
//! sequencer's ordering cost dominates, the hash-partitioned store — which
//! pays that cost once per *shard* batch, concurrently — must beat the
//! serial store, which pays it once per transaction on a single thread.
//!
//! This is deliberately a throughput (wall-clock) assertion, so it runs
//! only in the `--release -- --ignored` timing job; the functional
//! sharding contract is covered by the always-on differential and
//! property suites at the workspace root.

use std::time::{Duration, Instant};

use gt_core::prelude::*;
use gt_harness::{run, EvaluationLevel, RunPlan, SutOptions, SutRegistry, Target};

fn registry() -> SutRegistry {
    let mut registry = SutRegistry::new();
    tide_store::sut::register(&mut registry);
    registry
}

fn vertices(n: u64) -> GraphStream {
    (0..n)
        .map(|i| {
            StreamEntry::graph(GraphEvent::AddVertex {
                id: VertexId(i),
                state: State::empty(),
            })
        })
        .collect()
}

/// One backpressure-bound run: the offered rate is far above what the
/// simulated sequencer cost allows, so wall time measures the platform's
/// own throughput ceiling, not the replayer's pacing.
fn saturated_rate(sut: &str, options: &SutOptions, events: u64) -> f64 {
    let mut plan = RunPlan::new(vertices(events), 10_000_000.0).at_level(EvaluationLevel::Level0);
    plan.sysmon = None;
    let started = Instant::now();
    let outcome = run(plan, Target::Sut(&registry(), sut, options)).unwrap();
    let elapsed = started.elapsed();
    assert!(outcome.quiesced, "{sut} failed to quiesce");
    assert_eq!(
        outcome.sut_report().get("events"),
        Some(events as f64),
        "{sut}"
    );
    events as f64 / elapsed.as_secs_f64()
}

#[test]
#[ignore = "wall-clock timing; run with --release -- --ignored"]
fn sharded_store_beats_serial_when_sequencing_dominates() {
    // The sequencer cost is modelled as CPU spin, so shard concurrency
    // needs real cores to buy anything; on a single-core box the curve is
    // honestly flat and this assertion would test the scheduler, not the
    // store.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        println!("# skipping: {cores} core(s) available, spin-modelled sharding cannot scale");
        return;
    }
    const EVENTS: u64 = 2_000;
    // 250 µs of ordering work per single-event transaction caps the serial
    // store near 4k events/s; four shards sequencing concurrently (and
    // coalescing router batches) must clear a comfortably higher ceiling.
    let costed = SutOptions::new()
        .set("timestamper_cost_us", 250)
        .set("shard_cost_us", 0)
        .set("batch_size", 1);

    let serial = saturated_rate("tide-store", &costed.clone().set("shards", 1), EVENTS);
    let sharded = saturated_rate("tide-store-sharded", &costed.set("shards", 4), EVENTS);

    println!("# shard scaling @ 250us/tx sequencer cost, {EVENTS} events");
    println!("serial  {serial:>10.0} e/s");
    println!("4-shard {sharded:>10.0} e/s  ({:.2}x)", sharded / serial);
    assert!(
        serial < 8_000.0,
        "serial store should be sequencer-bound near 4k e/s, got {serial:.0}"
    );
    assert!(
        sharded > 1.5 * serial,
        "4 shards must beat serial by >1.5x: serial {serial:.0} e/s, sharded {sharded:.0} e/s"
    );
    // Guard against a degenerate measurement (e.g. the whole run finishing
    // inside scheduler noise).
    assert!(
        Duration::from_secs_f64(EVENTS as f64 / serial) > Duration::from_millis(100),
        "serial run too fast to be sequencer-bound"
    );
}

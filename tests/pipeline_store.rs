//! End-to-end pipeline: workload generation → rate-controlled replay →
//! transactional store (the Weaver-class SUT) → metrics → verification.

use std::time::{Duration, Instant};

use graphtides::generator::{MixModel, StreamGenerator};
use graphtides::graph::builders::BarabasiAlbert;
use graphtides::prelude::*;
use graphtides::store::{BatchingConnector, StoreConfig, TideStore};

fn table3_small(seed: u64, evolution: usize) -> GraphStream {
    let bootstrap = BarabasiAlbert {
        n: 300,
        m0: 10,
        m: 3,
        seed,
    }
    .generate();
    let mut generator = StreamGenerator::new(MixModel::table3(), seed);
    generator.bootstrap(&bootstrap).unwrap();
    let evolution = generator.evolve(evolution);
    let mut stream = bootstrap;
    stream.extend(evolution.stream);
    stream
}

fn zero_cost_store(hub: &MetricsHub) -> TideStore {
    TideStore::start(
        StoreConfig {
            shards: 3,
            timestamper_cost_per_tx: Duration::ZERO,
            shard_cost_per_event: Duration::ZERO,
            queue_capacity: 128,
            supervised: false,
        },
        hub,
    )
}

#[test]
fn store_reconstructs_exactly_the_streamed_graph() {
    let stream = table3_small(11, 3_000);
    let reference = EvolvingGraph::from_stream(&stream).unwrap();

    let hub = MetricsHub::new();
    let store = zero_cost_store(&hub);
    let mut connector = BatchingConnector::new(store.client(), 10);
    let session = ReplaySession::new(ReplaySessionConfig {
        replayer: ReplayerConfig {
            target_rate: 1e6,
            ..Default::default()
        },
        ..Default::default()
    });
    let report = session.run(&stream, &mut connector).unwrap().replay;
    connector.flush().unwrap();
    let stats = store.shutdown();

    assert_eq!(report.graph_events, stats.events);
    assert_eq!(stats.graph.vertex_count(), reference.vertex_count());
    assert_eq!(stats.graph.edge_count(), reference.edge_count());
    stats.graph.check_invariants().unwrap();
    // Full state equality, not only counts.
    let got: Vec<_> = stats.graph.edges().map(|(e, s)| (e, s.clone())).collect();
    let want: Vec<_> = reference.edges().map(|(e, s)| (e, s.clone())).collect();
    assert_eq!(got, want);
}

#[test]
fn store_backpressure_caps_achieved_rate() {
    // A 1 ms/tx timestamper caps the store near 1k tx/s; a replayer
    // offering 50k events/s with 1 event/tx must get backthrottled.
    let stream = table3_small(5, 1_200);
    let hub = MetricsHub::new();
    let store = TideStore::start(
        StoreConfig {
            shards: 2,
            timestamper_cost_per_tx: Duration::from_millis(1),
            shard_cost_per_event: Duration::ZERO,
            queue_capacity: 8,
            supervised: false,
        },
        &hub,
    );
    let mut connector = BatchingConnector::new(store.client(), 1);
    let session = ReplaySession::new(ReplaySessionConfig {
        replayer: ReplayerConfig {
            target_rate: 50_000.0,
            ..Default::default()
        },
        ..Default::default()
    });
    let started = Instant::now();
    let report = session.run(&stream, &mut connector).unwrap().replay;
    let elapsed = started.elapsed().as_secs_f64();
    store.shutdown();

    let achieved = report.graph_events as f64 / elapsed;
    assert!(
        achieved < 2_500.0,
        "backpressure failed: achieved {achieved} events/s"
    );
}

#[test]
fn batching_multiplies_the_ceiling_end_to_end() {
    let run = |batch: usize| -> f64 {
        let stream = table3_small(6, 1_500);
        let hub = MetricsHub::new();
        let store = TideStore::start(
            StoreConfig {
                shards: 2,
                timestamper_cost_per_tx: Duration::from_micros(500),
                shard_cost_per_event: Duration::ZERO,
                queue_capacity: 8,
                supervised: false,
            },
            &hub,
        );
        let mut connector = BatchingConnector::new(store.client(), batch);
        let session = ReplaySession::new(ReplaySessionConfig {
            replayer: ReplayerConfig {
                target_rate: 1e6,
                ..Default::default()
            },
            ..Default::default()
        });
        let started = Instant::now();
        let report = session.run(&stream, &mut connector).unwrap().replay;
        connector.flush().unwrap();
        let elapsed = started.elapsed().as_secs_f64();
        store.shutdown();
        report.graph_events as f64 / elapsed
    };
    let single = run(1);
    let batched = run(10);
    assert!(
        batched > single * 3.0,
        "batch=10 gave {batched}, batch=1 gave {single}"
    );
}

#[test]
fn harness_collects_store_metrics_during_run() {
    use graphtides::metrics::{HubSampler, WallClock};
    use std::sync::Arc;

    let stream = table3_small(9, 2_000);
    let hub = MetricsHub::new();
    let store = zero_cost_store(&hub);
    let mut connector = BatchingConnector::new(store.client(), 5);

    let clock = Arc::new(WallClock::start());
    let plan = graphtides::harness::RunPlan {
        sampling_interval: Duration::from_millis(20),
        ..graphtides::harness::RunPlan::new(stream, 30_000.0)
    }
    .with_logger(Box::new(HubSampler::new(hub.clone(), clock, "store")));

    let outcome =
        graphtides::harness::run(plan, graphtides::harness::Target::Sink(&mut connector)).unwrap();
    store.shutdown();

    // The log holds a growing store.events series.
    let series = outcome.log.series("store", "store.events");
    assert!(series.len() >= 2, "sampled {} points", series.len());
    let last = series.last().unwrap().1;
    assert!(last > 0.0);
    // Monotone counter.
    assert!(series.windows(2).all(|w| w[0].1 <= w[1].1));
}

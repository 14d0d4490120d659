//! End-to-end pipeline: social workload → replay → vertex-centric online
//! engine (the Chronograph-class SUT) → accuracy analysis against the
//! batch reference.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use graphtides::algorithms::pagerank::{pagerank, PageRankConfig};
use graphtides::analysis::top_k_overlap;
use graphtides::engine::{EngineConfig, EngineConnector, TideGraph};
use graphtides::prelude::*;
use graphtides::workloads::SnbWorkload;

fn exact_ranks(stream: &GraphStream) -> BTreeMap<VertexId, f64> {
    let graph = EvolvingGraph::from_stream(stream).unwrap();
    let csr = CsrSnapshot::from_graph(&graph);
    let result = pagerank(&csr, &PageRankConfig::default());
    csr.indices()
        .map(|i| (csr.id_of(i), result.ranks[i as usize]))
        .collect()
}

#[test]
fn engine_converges_toward_batch_reference() {
    let stream = SnbWorkload {
        persons: 120,
        connections: 1_200,
        seed: 21,
    }
    .generate();

    let hub = MetricsHub::new();
    // The default epsilon (1e-3) balances accuracy against push-cascade
    // volume; see DESIGN.md ("Queue discipline" and epsilon ablation).
    let engine = Arc::new(TideGraph::start(EngineConfig::default(), &hub));
    let mut connector = EngineConnector::new(Arc::clone(&engine));
    let session = ReplaySession::new(ReplaySessionConfig {
        replayer: ReplayerConfig {
            target_rate: 1e6,
            ..Default::default()
        },
        ..Default::default()
    });
    session.run(&stream, &mut connector).unwrap();
    assert!(engine.quiesce(Duration::from_secs(60)));
    drop(connector);
    let engine = Arc::try_unwrap(engine).ok().expect("sole owner");
    let stats = engine.shutdown();

    assert_eq!(stats.events, 1_320);
    let online = TideGraph::normalized(&stats.ranks);
    let exact = exact_ranks(&stream);
    assert_eq!(online.len(), exact.len());
    let overlap = top_k_overlap(&online, &exact, 10);
    assert!(overlap >= 0.4, "top-10 overlap only {overlap}");
}

#[test]
fn backlog_grows_under_burst_and_fully_drains() {
    let stream = SnbWorkload {
        persons: 200,
        connections: 2_000,
        seed: 4,
    }
    .generate();

    let hub = MetricsHub::new();
    // A coarse push threshold keeps the share volume test-sized while the
    // event cost alone already saturates two workers under the burst.
    let engine = Arc::new(TideGraph::start(
        EngineConfig {
            workers: 2,
            rank: graphtides::engine::RankParams {
                epsilon: 1e-2,
                ..Default::default()
            },
            event_cost: Duration::from_micros(200),
            share_cost: Duration::from_micros(5),
            ..Default::default()
        },
        &hub,
    ));
    let mut connector = EngineConnector::new(Arc::clone(&engine));
    // Unthrottled burst: workers cannot keep up.
    let session = ReplaySession::new(ReplaySessionConfig {
        replayer: ReplayerConfig {
            target_rate: 1e6,
            ..Default::default()
        },
        ..Default::default()
    });
    session.run(&stream, &mut connector).unwrap();
    let backlog = engine.total_queue_len();
    assert!(backlog > 50, "expected a backlog, got {backlog}");

    assert!(engine.quiesce(Duration::from_secs(120)));
    assert_eq!(engine.total_queue_len(), 0);
    drop(connector);
    let engine = Arc::try_unwrap(engine).ok().expect("sole owner");
    let stats = engine.shutdown();
    assert_eq!(stats.events, 2_200);
}

#[test]
fn marker_correlation_measures_ingestion_latency() {
    use graphtides::generator::StreamComposer;

    // Watermark pattern (§4.5): a marker every 500 events; the replayer
    // timestamps each one, and the engine-side events counter confirms
    // everything before the marker arrived.
    let base = SnbWorkload {
        persons: 100,
        connections: 900,
        seed: 8,
    }
    .generate();
    let stream = StreamComposer::new()
        .segment_with_markers(base, 500, "wm")
        .build();

    let hub = MetricsHub::new();
    let engine = Arc::new(TideGraph::start(EngineConfig::default(), &hub));
    let mut connector = EngineConnector::new(Arc::clone(&engine));
    let plan = graphtides::harness::RunPlan::new(stream, 100_000.0);
    let outcome =
        graphtides::harness::run(plan, graphtides::harness::Target::Sink(&mut connector)).unwrap();

    // Two watermarks expected (1000 events / 500).
    assert_eq!(outcome.replay().markers.len(), 2);
    let names: Vec<&str> = outcome
        .replay()
        .markers
        .iter()
        .map(|(n, _)| n.as_str())
        .collect();
    assert_eq!(names, ["wm-0", "wm-1"]);
    // Marker records land in the merged result log too.
    assert!(outcome.log.marker("wm-1").is_some());

    engine.quiesce(Duration::from_secs(60));
    // The engine side processed each watermark on every worker, after
    // everything queued ahead of it.
    let processed = engine.marker_log();
    assert_eq!(processed.len(), 2 * engine.workers());
    let wm0_done = processed
        .iter()
        .filter(|(n, _, _)| n == "wm-0")
        .map(|(_, _, t)| *t)
        .max()
        .unwrap();
    let wm1_done = processed
        .iter()
        .filter(|(n, _, _)| n == "wm-1")
        .map(|(_, _, t)| *t)
        .max()
        .unwrap();
    assert!(wm0_done <= wm1_done, "watermark order preserved");
    drop(connector);
    Arc::try_unwrap(engine).ok().expect("sole owner").shutdown();
}

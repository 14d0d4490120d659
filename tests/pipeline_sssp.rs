//! End-to-end pipeline for the engine's second vertex program: online
//! SSSP over the evolving road-traffic workload, including the staleness
//! hazards the KickStarter line of work exists to repair.

use std::sync::Arc;
use std::time::Duration;

use graphtides::algorithms::shortest::bellman_ford;
use graphtides::engine::{start_sssp, EngineConfig, EngineConnector};
use graphtides::prelude::*;
use graphtides::workloads::TrafficWorkload;

#[test]
fn online_sssp_tracks_batch_oracle_on_growing_graph() {
    // Additions and weight decreases only: the monotone regime where the
    // online program is exact after quiescence. Take just the bootstrap
    // (grid + initial weights) of the traffic workload.
    let workload = TrafficWorkload {
        rows: 6,
        cols: 6,
        ticks: 0,
        ..Default::default()
    };
    let stream = workload.generate();

    let hub = MetricsHub::new();
    let engine = Arc::new(start_sssp(EngineConfig::default(), &hub, VertexId(0)));
    let mut connector = EngineConnector::new(Arc::clone(&engine));
    let session = ReplaySession::new(ReplaySessionConfig {
        replayer: ReplayerConfig {
            target_rate: 1e6,
            ..Default::default()
        },
        ..Default::default()
    });
    session.run(&stream, &mut connector).unwrap();
    assert!(engine.quiesce(Duration::from_secs(30)));
    drop(connector);
    let engine = Arc::try_unwrap(engine).ok().expect("sole owner");
    let stats = engine.shutdown();

    let graph = EvolvingGraph::from_stream(&stream).unwrap();
    let csr = CsrSnapshot::from_graph(&graph);
    let oracle = bellman_ford(&csr, csr.index_of(VertexId(0)).unwrap()).unwrap();
    for idx in csr.indices() {
        let id = csr.id_of(idx);
        let online = stats.ranks[&id];
        let exact = oracle.dist[idx as usize];
        assert!(
            (online - exact).abs() < 1e-9,
            "junction {id}: online {online}, exact {exact}"
        );
    }
}

#[test]
fn churn_accumulates_stale_hazards() {
    use graphtides::engine::{DistanceProgram, VertexStore};

    // Full traffic run: rush-hour weight *increases* and closures are the
    // non-monotone operations online relaxation cannot repair. The
    // program must count every such hazard so an analyst knows when a
    // restart is due.
    let workload = TrafficWorkload {
        rows: 5,
        cols: 5,
        ticks: 40,
        updates_per_tick: 20,
        closure_prob: 0.3,
        ..Default::default()
    };
    let stream = workload.generate();
    // The store counts them as it applies the events: no round needs to
    // be computed.
    let mut store = VertexStore::new(DistanceProgram::new(VertexId(0)));
    for event in stream.graph_events() {
        store.apply(event);
    }
    assert!(
        store.program().stale_hazards() > 0,
        "rush hour must raise weights somewhere"
    );
}

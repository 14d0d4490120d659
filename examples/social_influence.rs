//! The social-network use case (paper §2.4, first scenario): a growing
//! social graph streams into an online engine that maintains a live
//! influence ranking, while a batch reference quantifies the
//! latency/accuracy trade-off of the online results.
//!
//! ```sh
//! cargo run --release --example social_influence
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use graphtides::algorithms::pagerank::{pagerank, PageRankConfig};
use graphtides::analysis::{median_relative_error, top_k_overlap};
use graphtides::engine::{EngineConfig, EngineConnector, TideGraph};
use graphtides::prelude::*;
use graphtides::workloads::SnbWorkload;

fn main() {
    // An SNB-like social stream: 1% of the paper's Table 4 size.
    let workload = SnbWorkload::scaled(0.01, 7);
    let stream = workload.generate();
    println!(
        "social stream: {} persons, {} connections",
        workload.persons, workload.connections
    );

    let hub = MetricsHub::new();
    let engine = Arc::new(TideGraph::start(EngineConfig::default(), &hub));
    let mut connector = EngineConnector::new(Arc::clone(&engine));

    let session = ReplaySession::new(ReplaySessionConfig {
        replayer: ReplayerConfig {
            target_rate: 50_000.0,
            ..Default::default()
        },
        ..Default::default()
    });
    let report = session
        .run(&stream, &mut connector)
        .expect("replay succeeds")
        .replay;
    println!(
        "streamed {} events at {:.0} events/s",
        report.graph_events, report.achieved_rate
    );

    // Snapshot the *intermediate* ranking right at stream end (possibly
    // stale), then the converged ranking after quiescence.
    let intermediate = engine.board_ranks();
    engine.quiesce(Duration::from_secs(60));
    drop(connector);
    let engine = Arc::try_unwrap(engine).ok().expect("sole owner");
    let stats = engine.shutdown();
    let converged = TideGraph::normalized(&stats.ranks);

    // Batch reference: exact PageRank on the reconstructed final graph.
    let graph = EvolvingGraph::from_stream(&stream).expect("stream applies");
    let csr = CsrSnapshot::from_graph(&graph);
    let exact = pagerank(&csr, &PageRankConfig::default());
    let exact_map: BTreeMap<VertexId, f64> = csr
        .indices()
        .map(|i| (csr.id_of(i), exact.ranks[i as usize]))
        .collect();

    // The latency/accuracy trade-off, quantified (§4.3 computation
    // metrics).
    for (label, ranking) in [
        ("at stream end", &intermediate),
        ("after drain", &converged),
    ] {
        let med = median_relative_error(ranking, &exact_map).unwrap_or(f64::NAN);
        let overlap = top_k_overlap(ranking, &exact_map, 10);
        println!("{label}: median relative rank error {med:.4}, top-10 overlap {overlap:.2}");
    }

    println!("\nmost influential users (converged online ranking):");
    let mut top: Vec<(&VertexId, &f64)> = converged.iter().collect();
    top.sort_by(|a, b| b.1.partial_cmp(a.1).expect("finite"));
    for (id, rank) in top.into_iter().take(10) {
        let exact_rank = exact_map.get(id).copied().unwrap_or(0.0);
        println!("  user {id}: online {rank:.5}, exact {exact_rank:.5}");
    }
}

//! Quickstart: generate a graph stream, replay it at a controlled rate
//! into a system under test, sample metrics while it runs, and analyse
//! the merged result log — the full GraphTides pipeline in one file.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;
use std::time::Duration;

use graphtides::engine::{EngineConfig, EngineConnector, TideGraph};
use graphtides::generator::{EventMix, MixModel, StreamComposer, StreamGenerator};
use graphtides::graph::builders::BarabasiAlbert;
use graphtides::harness::{run, RunPlan, Target};
use graphtides::metrics::{GaugeSampler, MetricsHub, WallClock};
use graphtides::prelude::*;

fn main() {
    // 1. Generate a two-phase stream: Barabási–Albert bootstrap, then
    //    2,000 evolution events under the paper's Table 3 event mix.
    let bootstrap = BarabasiAlbert {
        n: 1_000,
        m0: 20,
        m: 5,
        seed: 42,
    }
    .generate();
    let mut generator = StreamGenerator::new(MixModel::new(EventMix::table3()), 42);
    generator.bootstrap(&bootstrap).expect("bootstrap applies");
    let evolution = generator.evolve(2_000);
    let stream = StreamComposer::two_phase(bootstrap, Duration::from_millis(100), evolution.stream);
    println!(
        "stream: {} entries ({} graph events)",
        stream.len(),
        stream.stats().graph_events
    );

    // 2. Start a system under test: the vertex-centric online engine with
    //    4 workers running an online influence rank.
    let hub = MetricsHub::new();
    let engine = Arc::new(TideGraph::start(EngineConfig::default(), &hub));
    let mut connector = EngineConnector::new(Arc::clone(&engine));

    // 3. Run the experiment: replay at 20k events/s while a logger samples
    //    the engine's total backlog every 50 ms.
    let clock = Arc::new(WallClock::start());
    let backlog_probe = {
        let engine = Arc::clone(&engine);
        GaugeSampler::new(clock, "engine", "backlog", move || {
            Some(engine.total_queue_len() as f64)
        })
    };
    let plan = RunPlan {
        sampling_interval: Duration::from_millis(50),
        ..RunPlan::new(stream, 20_000.0)
    }
    .with_logger(Box::new(backlog_probe));
    let outcome = run(plan, Target::Sink(&mut connector)).expect("replay succeeds");

    println!(
        "replayed {} events in {:.2}s (achieved {:.0} events/s)",
        outcome.replay().graph_events,
        outcome.replay().duration_micros as f64 / 1e6,
        outcome.replay().achieved_rate,
    );
    for (name, t) in &outcome.replay().markers {
        println!("marker `{name}` at t = {:.3}s", *t as f64 / 1e6);
    }

    // 4. Let the computation drain, then query the most influential
    //    vertices.
    engine.quiesce(Duration::from_secs(30));
    drop(connector);
    let engine = Arc::try_unwrap(engine).ok().expect("sole owner");
    let stats = engine.shutdown();
    let ranks = TideGraph::normalized(&stats.ranks);
    let mut top: Vec<(&VertexId, &f64)> = ranks.iter().collect();
    top.sort_by(|a, b| b.1.partial_cmp(a.1).expect("finite"));
    println!("\ntop-5 influence ranks:");
    for (id, rank) in top.into_iter().take(5) {
        println!("  vertex {id}: {rank:.5}");
    }

    // 5. Analyse the result log: peak backlog over the run.
    let backlog = outcome.log.series("engine", "backlog");
    let peak = backlog.iter().map(|&(_, v)| v).fold(0.0, f64::max);
    println!("\npeak engine backlog during replay: {peak} messages");
}

//! Cross-crate tests of the fault-injection path (§3.2) and the
//! statistical methodology (§4.5).

use graphtides::analysis::summary::compare_ci95;
use graphtides::faults::{
    DropFaults, DuplicateFaults, FaultInjector, FaultPipeline, ShuffleWindows,
};
use graphtides::graph::ApplyPolicy;
use graphtides::harness::{aggregate_records, JournalRecord, RunStatus};
use graphtides::prelude::*;
use graphtides::workloads::SnbWorkload;

#[test]
fn faulty_streams_survive_a_lenient_consumer_end_to_end() {
    let stream = SnbWorkload {
        persons: 100,
        connections: 500,
        seed: 2,
    }
    .generate();
    let faulty = FaultPipeline::new()
        .then(DuplicateFaults { probability: 0.15 })
        .then(ShuffleWindows { window: 32 })
        .then(DropFaults { probability: 0.15 })
        .inject(stream.clone(), 77);

    // A strict consumer rejects the faulty stream…
    let strict_fails = faulty
        .graph_events()
        .try_fold(EvolvingGraph::new(), |mut g, e| {
            g.apply(e)?;
            Ok::<_, graphtides::graph::ApplyError>(g)
        })
        .is_err();
    assert!(strict_fails, "heavy fault injection must break strictness");

    // …while a lenient one ingests it and stays internally consistent.
    let mut lenient = EvolvingGraph::new();
    for event in faulty.graph_events() {
        let _ = lenient.apply_with(event, ApplyPolicy::Lenient);
    }
    lenient.check_invariants().unwrap();
    // Drops cannot create vertices out of thin air.
    let reference = EvolvingGraph::from_stream(&stream).unwrap();
    assert!(lenient.vertex_count() <= reference.vertex_count());
}

#[test]
fn fault_injection_is_reproducible_for_reruns() {
    // Popper-style re-execution: the same spec (stream + seed) must give
    // the same faulty stream, byte for byte.
    let stream = SnbWorkload {
        persons: 50,
        connections: 200,
        seed: 3,
    }
    .generate();
    let make = || {
        FaultPipeline::new()
            .then(DropFaults { probability: 0.3 })
            .then(DuplicateFaults { probability: 0.3 })
            .inject(stream.clone(), 123)
    };
    assert_eq!(make().to_csv_string(), make().to_csv_string());
}

#[test]
fn ci95_comparison_separates_configurations() {
    // Two replayer configurations measured 30× each: 50k events/s vs 10k
    // events/s on the same stream. The CI95 comparison must call the
    // faster one significantly faster; same-vs-same must not.
    let stream: GraphStream = (0..300u64)
        .map(|i| {
            StreamEntry::graph(GraphEvent::AddVertex {
                id: VertexId(i),
                state: State::empty(),
            })
        })
        .collect();

    // One journal record per repetition, aggregated per configuration
    // exactly as a scenario matrix aggregates its cells.
    let measure = |cell: &str, rate: f64| -> Vec<JournalRecord> {
        (0..30)
            .map(|rep| {
                let session = ReplaySession::new(ReplaySessionConfig {
                    replayer: ReplayerConfig {
                        target_rate: rate,
                        ..Default::default()
                    },
                    ..Default::default()
                });
                let mut sink = CollectSink::new();
                let report = session.run(&stream, &mut sink).unwrap().replay;
                JournalRecord {
                    cell: cell.to_owned(),
                    rep,
                    seed: 0,
                    status: RunStatus::Completed,
                    metrics: vec![("achieved_rate".to_owned(), report.achieved_rate)],
                }
            })
            .collect()
    };

    let records = [measure("fast", 50_000.0), measure("slow", 10_000.0)].concat();
    let cells = aggregate_records(&records);
    let (fast, slow) = (&cells[0], &cells[1]);
    assert!(fast.meets_n30 && slow.meets_n30);
    let verdict = compare_ci95(&fast.metrics[0].summary, &slow.metrics[0].summary)
        .expect("both sides have intervals");
    assert_eq!(
        verdict.verdict,
        graphtides::analysis::summary::Comparison::AGreater
    );
    assert!(verdict.meets_n30);
}

#[test]
fn stream_file_roundtrip_through_replayer() {
    // Write a workload to disk, stream it through the replay session's
    // decoupled reader into its emitter, and verify nothing is lost or
    // reordered.
    let stream = SnbWorkload {
        persons: 80,
        connections: 400,
        seed: 9,
    }
    .generate();
    let dir = std::env::temp_dir().join("gt-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("snb.csv");
    stream.write_to_file(&path).unwrap();

    let session = ReplaySession::new(ReplaySessionConfig {
        replayer: ReplayerConfig {
            target_rate: 1e6,
            ..Default::default()
        },
        buffer: 1024,
    });
    let mut sink = CollectSink::new();
    let report = session.run(&path, &mut sink).unwrap();
    assert_eq!(report.entries_read, stream.len() as u64);
    assert_eq!(
        report.replay.graph_events as usize,
        stream.stats().graph_events
    );
    assert_eq!(sink.entries, stream.entries());
    std::fs::remove_file(path).ok();
}

//! The store's digest against an independent oracle. A `tide-store` run
//! in digest mode snapshots its graph at every marker cut while it
//! rebuilds the graph from its merged commit log at shutdown. Each
//! snapshot must equal what a plain `EvolvingGraph` holds after replaying
//! the *input stream* up to that marker, and the final adjacency what it
//! holds after the whole stream.
//!
//! `differential_oracle.rs` compares two runs of the store code against
//! each other, so a bug both sequencers share (a window cut one event
//! late, a snapshot taken from the wrong graph) passes it. Here the other
//! side shares nothing with the store: no commit log, no timestamps, no
//! shards, no cut bookkeeping.

use graphtides::graph::ApplyPolicy;
use graphtides::harness::{run, RunPlan, StateDigest, Target};
use graphtides::prelude::*;
use graphtides::sut::Adjacency;
use graphtides::workloads::Table3Workload;

/// `graph`'s out-adjacency in the digest's canonical form: vertices
/// ascending, each out-list ascending, weights as `f64` bits (an
/// unweighted edge weighs 1.0).
fn adjacency(graph: &EvolvingGraph) -> Adjacency {
    let mut adjacency: Adjacency = graph
        .vertices()
        .map(|v| {
            let mut out: Vec<(u64, u64)> = graph
                .out_edges(v)
                .map(|(dst, state)| (dst.0, state.as_weight().unwrap_or(1.0).to_bits()))
                .collect();
            out.sort_unstable();
            (v.0, out)
        })
        .collect();
    adjacency.sort_unstable_by_key(|(v, _)| *v);
    adjacency
}

/// A Table 3 stream (adds, removals and updates over a BA bootstrap)
/// with three more markers spread through its evolution phase.
fn stream() -> GraphStream {
    let generated = Table3Workload::small(3_000, 17).generate();
    let entries = generated.into_entries();
    let spacing = entries.len() / 4;
    let mut stream = GraphStream::new();
    for (i, entry) in entries.into_iter().enumerate() {
        if i > 0 && i % spacing == 0 && i / spacing <= 3 {
            stream.push(StreamEntry::marker(format!("cut-{}", i / spacing)));
        }
        stream.push(entry);
    }
    stream
}

/// `(marker, adjacency)` at every marker of `stream`, and the final
/// adjacency, from one replay of the stream itself.
fn oracle(stream: &GraphStream) -> (Vec<(String, Adjacency)>, Adjacency) {
    let mut graph = EvolvingGraph::new();
    let mut windows = Vec::new();
    for entry in stream.entries() {
        match entry {
            StreamEntry::Graph(event) => {
                let _ = graph.apply_with(event, ApplyPolicy::Lenient);
            }
            StreamEntry::Marker(name) => windows.push((name.clone(), adjacency(&graph))),
            StreamEntry::Control(_) => {}
        }
    }
    (windows, adjacency(&graph))
}

#[test]
fn digest_windows_equal_a_replay_of_the_stream_prefix_at_each_marker() {
    let stream = stream();
    let (windows, last) = oracle(&stream);
    assert!(windows.len() >= 5, "{} markers", windows.len());
    let registry = {
        let mut registry = SutRegistry::new();
        graphtides::store::sut::register(&mut registry);
        registry
    };
    for name in ["tide-store", "tide-store-sharded"] {
        let options = SutOptions::new()
            .set("timestamper_cost_us", 0)
            .set("shard_cost_us", 0)
            .set("digest", 1);
        let mut plan = RunPlan::new(stream.clone(), 400_000.0);
        plan.sysmon = None;
        let outcome = run(plan, Target::Sut(&registry, name, &options)).unwrap();
        assert!(outcome.quiesced, "{name}");
        let digest: StateDigest = outcome.digest.expect("digest mode");
        let got: Vec<(String, Adjacency)> = digest
            .windows
            .into_iter()
            .map(|w| (w.marker, w.adjacency))
            .collect();
        assert_eq!(got.len(), windows.len(), "{name}");
        for ((marker, adjacency), (want_marker, want)) in got.iter().zip(&windows) {
            assert_eq!(marker, want_marker, "{name}");
            assert!(adjacency == want, "{name}: window `{marker}` differs");
        }
        assert!(
            digest.final_adjacency == last,
            "{name}: final state differs"
        );
    }
}

//! Property tests of the sharding contract both platforms advertise
//! (`shards=N` SutOption, N ∈ 1..=8):
//!
//! * **Routing purity**: the shard an event lands on is a pure function
//!   of its entity key — vertex events by vertex id, edge events by the
//!   edge's *source* — identical across calls, bounded by the shard
//!   count, and *identical between the two platforms* (both call the one
//!   function, `gt_core::hash::shard_of`), which is what lets the
//!   differential harness compare their behavior shard-for-shard.
//! * **Marker broadcast**: every marker reaches every shard exactly once
//!   — the store counts arrivals per shard slot, the engine logs one
//!   marker processing per worker — and in stream order per shard.
//! * **Per-partition order**: the subsequence of the input stream owned
//!   by shard `s` is exactly the sequence shard `s` processes, in input
//!   order (the global sequence numbers in each shard's log are the
//!   stream positions of precisely its own events, strictly increasing).
//! * **Exact shards**: the store's shards together hold what a lenient
//!   `EvolvingGraph` replay of the input holds — final state, every
//!   marker window, the event count and the dangling-edge count — behind
//!   either sequencer, whatever the stream throws at them.
//! * **No drop in order**: an in-order single-sink stream loses no edge on
//!   either platform (`dangling_edges_dropped` reads 0).

use std::time::Duration;

use graphtides::core::hash::shard_of;
use graphtides::engine::{EngineConfig, TideGraph};
use graphtides::graph::ApplyPolicy;
use graphtides::harness::{EvaluationLevel, Target};
use graphtides::metrics::MetricsHub;
use graphtides::prelude::*;
use graphtides::store::{StoreConfig, TideStore, Transaction};
use graphtides::sut::Adjacency;
use graphtides::workloads::SnbWorkload;
use proptest::prelude::*;

/// A mixed event from two raw bytes: vertex ops on id `a`, edge ops on
/// `a → b` (self-loops shifted). Ids stay in a small range so streams
/// exercise every shard and collide on entities.
fn event_from(a: u8, b: u8) -> GraphEvent {
    let (src, dst) = (a as u64 % 32, b as u64 % 32);
    match b % 3 {
        0 => GraphEvent::AddVertex {
            id: VertexId(src),
            state: State::empty(),
        },
        1 => GraphEvent::AddEdge {
            id: EdgeId::from((src, (dst + 1) % 33)),
            state: State::empty(),
        },
        _ => GraphEvent::UpdateVertex {
            id: VertexId(src),
            state: State::empty(),
        },
    }
}

fn fast_config(shards: usize) -> StoreConfig {
    StoreConfig {
        shards,
        timestamper_cost_per_tx: Duration::ZERO,
        shard_cost_per_event: Duration::ZERO,
        queue_capacity: 64,
        supervised: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Routing purity, for every shard count the contract covers: pure in
    // the entity key, in range, shards=1 degenerates to a single shard,
    // and both platforms hash identically.
    #[test]
    fn routing_is_a_pure_function_of_the_entity_key(
        raw in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..80),
        shards in 1usize..=8,
    ) {
        for &(a, b) in &raw {
            let event = event_from(a, b);
            let s1 = shard_of(event.home(), shards);
            // Pure: same event, same answer.
            prop_assert_eq!(s1, shard_of(event.home(), shards));
            // In range, and degenerate at one shard.
            prop_assert!(s1 < shards);
            prop_assert_eq!(shard_of(event.home(), 1), 0);
            // Keyed by the entity: vertex events by the vertex id, edge
            // events by the source vertex id.
            let key = match &event {
                GraphEvent::AddEdge { id, .. } => id.src,
                _ => event.vertex().unwrap(),
            };
            prop_assert_eq!(event.home(), key);
        }
    }

    // The store side of broadcast + per-partition order, at every shard
    // count: markers reach all shards exactly once, and each shard's log
    // is exactly its own subsequence of the input, in input order.
    #[test]
    fn store_shards_see_their_subsequence_in_order_and_every_marker(
        raw in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..120),
        shards in 1usize..=8,
        markers in 1usize..4,
    ) {
        let events: Vec<GraphEvent> = raw.iter().map(|&(a, b)| event_from(a, b)).collect();
        let hub = MetricsHub::new();
        let store = TideStore::start_sharded(fast_config(shards), &hub);
        let mut client = store.client();
        // Interleave markers at deterministic positions.
        let marker_every = events.len().div_ceil(markers);
        for (i, event) in events.iter().enumerate() {
            client.submit(Transaction::single(event.clone())).unwrap();
            if (i + 1) % marker_every == 0 {
                client.marker(&format!("m{}", (i + 1) / marker_every - 1)).unwrap();
            }
        }
        prop_assert!(store.quiesce(Duration::from_secs(30)));
        let sent_markers: Vec<String> =
            (0..events.len() / marker_every).map(|i| format!("m{i}")).collect();
        let stats = store.shutdown();

        prop_assert_eq!(stats.events, events.len() as u64);
        prop_assert_eq!(stats.marker_skips, 0);
        // Broadcast: every marker hit every shard slot exactly once, and
        // per shard the markers appear in stream order.
        for slot in 0..shards {
            let seen: Vec<&str> = stats
                .shard_markers
                .iter()
                .filter(|(_, s)| *s == slot)
                .map(|(name, _)| name.as_str())
                .collect();
            prop_assert_eq!(seen.len(), sent_markers.len());
            for (got, want) in seen.iter().zip(&sent_markers) {
                prop_assert_eq!(*got, want.as_str());
            }
        }
        // Per-partition order: shard s processed exactly the input
        // positions it owns, in input order.
        for (slot, seqs) in stats.per_shard_seqs.iter().enumerate() {
            let owned: Vec<u64> = events
                .iter()
                .enumerate()
                .filter(|(_, e)| shard_of(e.home(), shards) == slot)
                .map(|(i, _)| i as u64)
                .collect();
            prop_assert_eq!(seqs, &owned, "shard {} log != owned subsequence", slot);
        }
    }

    // The engine side: every marker is processed exactly once per worker,
    // in stream order, for every worker count the contract covers.
    #[test]
    fn engine_workers_each_process_every_marker_once_in_order(
        raw in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..80),
        workers in 1usize..=8,
        markers in 1usize..4,
    ) {
        let events: Vec<GraphEvent> = raw.iter().map(|&(a, b)| event_from(a, b)).collect();
        let hub = MetricsHub::new();
        let engine = TideGraph::start(
            EngineConfig {
                workers,
                ..Default::default()
            },
            &hub,
        );
        let marker_every = events.len().div_ceil(markers);
        for (i, event) in events.iter().enumerate() {
            engine.ingest(event.clone());
            if (i + 1) % marker_every == 0 {
                let reached = engine
                    .ingest_marker_barrier(&format!("m{}", (i + 1) / marker_every - 1),
                                            Duration::from_secs(30));
                prop_assert_eq!(reached, workers);
            }
        }
        prop_assert!(engine.quiesce(Duration::from_secs(30)));
        let sent_markers: Vec<String> =
            (0..events.len() / marker_every).map(|i| format!("m{i}")).collect();
        let log = engine.marker_log();
        engine.shutdown();

        prop_assert_eq!(log.len(), sent_markers.len() * workers);
        for w in 0..workers {
            let seen: Vec<&str> = log
                .iter()
                .filter(|(_, worker, _)| *worker == w)
                .map(|(name, _, _)| name.as_str())
                .collect();
            prop_assert_eq!(seen.len(), sent_markers.len());
            for (got, want) in seen.iter().zip(&sent_markers) {
                prop_assert_eq!(*got, want.as_str());
            }
        }
    }

    // Exactness: removes, duplicate adds, self-loops, edges with a missing
    // endpoint, updates of missing entities, at every shard count and
    // behind both sequencers, with digest windows at the markers.
    #[test]
    fn store_shards_hold_exactly_what_a_lenient_replay_holds(
        raw in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..160),
        shards in 1usize..=8,
        markers in 0usize..4,
    ) {
        let events: Vec<GraphEvent> =
            raw.iter().map(|&(a, b, c)| lenient_event(a, b, c)).collect();
        let marker_after = |i: usize| {
            let every = events.len().div_ceil(markers.max(1));
            (markers > 0 && (i + 1) % every == 0).then(|| format!("m{}", (i + 1) / every))
        };
        // The oracle: one lenient replay, snapshotted at each marker.
        let mut graph = EvolvingGraph::new();
        let (mut dangling, mut windows) = (0u64, Vec::new());
        for (i, event) in events.iter().enumerate() {
            if let GraphEvent::AddEdge { id, .. } = event {
                let endpoints = graph.has_vertex(id.src) && graph.has_vertex(id.dst);
                dangling += u64::from(!id.is_self_loop() && !endpoints);
            }
            let _ = graph.apply_with(event, ApplyPolicy::Lenient);
            if let Some(marker) = marker_after(i) {
                windows.push((marker, adjacency(&graph)));
            }
        }
        let mut registry = SutRegistry::new();
        graphtides::store::sut::register(&mut registry);
        for name in ["tide-store", "tide-store-sharded"] {
            let options = SutOptions::new()
                .set("timestamper_cost_us", 0)
                .set("shard_cost_us", 0)
                .set("shards", shards)
                .set("batch_size", 4)
                .set("digest", 1);
            let mut sut = registry.start(name, &options).unwrap();
            let mut connector = sut.connector().unwrap();
            for (i, event) in events.iter().enumerate() {
                connector.send(&StreamEntry::graph(event.clone())).unwrap();
                if let Some(marker) = marker_after(i) {
                    connector.send(&StreamEntry::marker(marker)).unwrap();
                }
            }
            connector.close().unwrap();
            drop(connector);
            prop_assert!(sut.quiesce(Duration::from_secs(30)), "{}", name);
            let (report, digest) = sut.shutdown_digest();
            let digest = digest.expect("digest mode");
            prop_assert_eq!(report.get("events"), Some(events.len() as f64), "{}", name);
            prop_assert_eq!(report.get("dangling_edges_dropped"), Some(dangling as f64), "{}", name);
            prop_assert_eq!(&digest.final_adjacency, &adjacency(&graph), "{}", name);
            prop_assert_eq!(digest.windows.len(), windows.len(), "{}", name);
            for (got, (marker, want)) in digest.windows.iter().zip(&windows) {
                prop_assert_eq!(&got.marker, marker, "{}", name);
                prop_assert_eq!(&got.adjacency, want, "{} at {}", name, marker);
            }
        }
    }
}

/// A mixed event from three raw bytes over 16 vertex ids: adds (of
/// present vertices too), updates and removals of vertices and edges, and
/// edges whose endpoint is missing or which are self-loops.
fn lenient_event(a: u8, b: u8, c: u8) -> GraphEvent {
    let (src, dst) = (VertexId(a as u64 % 16), VertexId(b as u64 % 16));
    let state = State::weight((c % 7 + 1) as f64);
    match c % 8 {
        0 | 1 => GraphEvent::AddVertex { id: src, state },
        2 | 3 => GraphEvent::AddEdge {
            id: EdgeId::new(src, dst),
            state,
        },
        4 => GraphEvent::UpdateEdge {
            id: EdgeId::new(src, dst),
            state,
        },
        5 => GraphEvent::RemoveEdge {
            id: EdgeId::new(src, dst),
        },
        6 => GraphEvent::RemoveVertex { id: src },
        _ => GraphEvent::UpdateVertex { id: src, state },
    }
}

/// `graph`'s out-adjacency in the digest's canonical form: vertices
/// ascending, each out-list ascending, weights as `f64` bits (an
/// unweighted edge weighs 1.0).
fn adjacency(graph: &EvolvingGraph) -> Adjacency {
    graph
        .vertices()
        .map(|v| {
            let out = graph
                .out_edges(v)
                .map(|(dst, state)| (dst.0, state.as_weight().unwrap_or(1.0).to_bits()))
                .collect();
            (v.0, out)
        })
        .collect()
}

/// An in-order single-sink SNB stream drops no edge on either platform:
/// every edge arrives after both its endpoints.
#[test]
fn an_in_order_stream_drops_no_edge_on_either_platform() {
    let stream = SnbWorkload {
        persons: 150,
        connections: 1_500,
        seed: 3,
    }
    .generate();
    let registry = graphtides::builtin_registry();
    let options = SutOptions::new()
        .set("timestamper_cost_us", 0)
        .set("shard_cost_us", 0)
        .set("shards", 3);
    for name in ["tide-store", "tide-store-sharded", "tide-graph"] {
        let mut plan = RunPlan::new(stream.clone(), 400_000.0).at_level(EvaluationLevel::Level0);
        plan.sysmon = None;
        let outcome = run(plan, Target::Sut(&registry, name, &options)).unwrap();
        assert!(outcome.quiesced, "{name}");
        let report = outcome.sut_report();
        assert_eq!(report.get("events"), Some(stream.len() as f64), "{name}");
        assert_eq!(report.get("dangling_edges_dropped"), Some(0.0), "{name}");
    }
}

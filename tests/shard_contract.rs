//! Property tests of the sharding contract both platforms advertise
//! (`shards=N` SutOption, N ∈ 1..=8):
//!
//! * **Routing purity**: the shard an event lands on is a pure function
//!   of its entity key — vertex events by vertex id, edge events by the
//!   edge's *source* — identical across calls, bounded by the shard
//!   count, and *identical between the two platforms* (both use the same
//!   Fibonacci hash), which is what lets the differential harness compare
//!   their behavior shard-for-shard.
//! * **Marker broadcast**: every marker reaches every shard exactly once
//!   — the store counts arrivals per shard slot, the engine logs one
//!   marker processing per worker — and in stream order per shard.
//! * **Per-partition order**: the subsequence of the input stream owned
//!   by shard `s` is exactly the sequence shard `s` processes, in input
//!   order (the global sequence numbers in each shard's log are the
//!   stream positions of precisely its own events, strictly increasing).

use std::time::Duration;

use graphtides::engine::{owner, route_target, EngineConfig, TideGraph};
use graphtides::metrics::MetricsHub;
use graphtides::prelude::*;
use graphtides::store::{shard_for, shard_for_key, StoreConfig, TideStore, Transaction};
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
            let s1 = shard_for(&event, shards as u64);
            // Pure: same event, same answer.
            prop_assert_eq!(s1, shard_for(&event, shards as u64));
            // In range, and degenerate at one shard.
            prop_assert!(s1 < shards as u64);
            prop_assert_eq!(shard_for(&event, 1), 0);
            // Keyed by the entity: vertex events by the vertex id, edge
            // events by the source vertex id.
            let key = route_target(&event).0;
            prop_assert_eq!(s1, shard_for_key(key, shards as u64));
            // Cross-platform agreement: the engine's owner() places the
            // same event on the same worker index.
            prop_assert_eq!(owner(route_target(&event), shards) as u64, s1);
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
                .filter(|(_, e)| shard_for(e, shards as u64) == slot as u64)
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
}

//! Property tests of the batched sink contract at the SUT boundary
//! (§4.5's marker semantics under batching): for any random interleaving
//! of graph events and markers, delivered through [`EventSink::send_batch`]
//! in arbitrary chunk sizes,
//!
//! * **tide-store**, behind the timestamper (2 shards) and behind the
//!   router (4 shards): a marker flushes every graph event streamed before
//!   it into a committed transaction — nothing streamed before a marker
//!   may still sit in the connector when the marker has passed — no event
//!   is lost or duplicated end to end, every marker cut equals the number
//!   of events streamed before it, and every marker is broadcast to every
//!   shard exactly once;
//! * **tide-graph**: markers are observable *after* the events that
//!   preceded them — each worker processes every marker exactly once, in
//!   stream order, behind its FIFO mailbox.

use std::time::Duration;

use graphtides::engine::sut::SUT_NAME as GRAPH_SUT;
use graphtides::engine::TideGraphSut;
use graphtides::prelude::*;
use graphtides::replayer::EventSink;
use graphtides::store::BatchingConnector;
use graphtides::store::{StoreConfig, TideStore};
use proptest::prelude::*;

type Start = fn(StoreConfig, &MetricsHub) -> TideStore;

/// One random stream: `ops[i] < 2` becomes a marker, anything else a
/// fresh `AddVertex`. Returns the shared entries plus the positions of
/// markers (counted in graph events seen before each).
fn build_stream(ops: &[u8]) -> (Vec<SharedEntry>, Vec<u64>, u64) {
    let mut entries = Vec::with_capacity(ops.len());
    let mut events_before_marker = Vec::new();
    let mut events = 0u64;
    let mut markers = 0u64;
    for &op in ops {
        if op < 2 {
            entries.push(SharedEntry::new(StreamEntry::marker(format!("m{markers}"))));
            events_before_marker.push(events);
            markers += 1;
        } else {
            entries.push(SharedEntry::new(StreamEntry::graph(
                GraphEvent::AddVertex {
                    id: VertexId(events),
                    state: State::empty(),
                },
            )));
            events += 1;
        }
    }
    (entries, events_before_marker, events)
}

/// Streams `ops` through a [`BatchingConnector`] into a store started by
/// `start` with `shards` shards, in `chunk`-sized sink batches, and checks
/// the flush, conservation, marker-cut and broadcast contracts.
fn check_store_markers(
    sequencer: &str,
    start: Start,
    shards: usize,
    ops: &[u8],
    chunk: usize,
    batch_size: usize,
) -> Result<(), TestCaseError> {
    let (entries, events_before_marker, total_events) = build_stream(ops);
    let hub = MetricsHub::new();
    let store = start(
        StoreConfig {
            shards,
            timestamper_cost_per_tx: Duration::ZERO,
            shard_cost_per_event: Duration::ZERO,
            queue_capacity: 64,
            supervised: false,
        },
        &hub,
    );
    let mut connector = BatchingConnector::new(store.client(), batch_size);

    let mut sent_events = 0u64;
    let mut last_marker_events = 0u64;
    for chunk_entries in entries.chunks(chunk) {
        connector.send_batch(chunk_entries).unwrap();
        for entry in chunk_entries {
            match entry.as_ref() {
                StreamEntry::Graph(_) => sent_events += 1,
                StreamEntry::Marker(_) => last_marker_events = sent_events,
                StreamEntry::Control(_) => {}
            }
        }
        // Conservation: every event sent is either committed or pending.
        prop_assert_eq!(
            connector.submitted_events() + connector.pending_len() as u64,
            sent_events
        );
        // Marker contract: everything streamed before the last marker
        // has left the connector (a full batch may have pushed more).
        prop_assert!(connector.submitted_events() >= last_marker_events);
    }
    connector.close().unwrap();
    prop_assert_eq!(connector.submitted_events(), total_events);
    prop_assert_eq!(connector.pending_len(), 0);

    drop(connector);
    prop_assert!(store.quiesce(Duration::from_secs(30)), "{}", sequencer);
    let stats = store.shutdown();
    // End to end: nothing lost, nothing duplicated, and the merged
    // graph is complete.
    prop_assert_eq!(stats.events, total_events, "{}", sequencer);
    prop_assert_eq!(
        stats.graph.vertex_count() as u64,
        total_events,
        "{}",
        sequencer
    );
    // Marker cuts: the flush-before-marker contract means the commit
    // timestamp at each marker equals the events streamed before it.
    let cuts: Vec<u64> = stats.markers.iter().map(|(_, cut)| *cut).collect();
    prop_assert_eq!(cuts, events_before_marker.clone(), "{}", sequencer);
    // Broadcast: every marker reached every shard exactly once.
    prop_assert_eq!(stats.marker_skips, 0, "{}", sequencer);
    for i in 0..events_before_marker.len() {
        let name = format!("m{i}");
        let reached = stats
            .shard_markers
            .iter()
            .filter(|(n, _)| *n == name)
            .count();
        prop_assert_eq!(
            reached,
            shards,
            "{}: marker {} reached {} shards",
            sequencer,
            name,
            reached
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn store_markers_flush_all_prior_events(
        ops in proptest::collection::vec(0u8..10, 10..200),
        chunk in 1usize..17,
        batch_size in 1usize..8,
    ) {
        check_store_markers("timestamper", TideStore::start, 2, &ops, chunk, batch_size)?;
    }

    #[test]
    fn sharded_store_markers_flush_and_conserve_at_four_shards(
        ops in proptest::collection::vec(0u8..10, 10..200),
        chunk in 1usize..17,
        batch_size in 1usize..8,
    ) {
        check_store_markers("router", TideStore::start_sharded, 4, &ops, chunk, batch_size)?;
    }

    #[test]
    fn engine_markers_follow_their_events_per_worker(
        ops in proptest::collection::vec(0u8..10, 10..120),
        chunk in 1usize..17,
        workers in 1usize..4,
    ) {
        let (entries, events_before_marker, total_events) = build_stream(&ops);
        let marker_count = events_before_marker.len();

        let registry = graphtides::builtin_registry();
        let options = SutOptions::new().set("workers", workers);
        let mut sut = registry.start(GRAPH_SUT, &options).unwrap();
        let mut connector = sut.connector().unwrap();
        for chunk_entries in entries.chunks(chunk) {
            connector.send_batch(chunk_entries).unwrap();
        }
        connector.close().unwrap();
        prop_assert!(sut.quiesce(Duration::from_secs(30)));

        let engine_sut = sut
            .as_any()
            .downcast_mut::<TideGraphSut>()
            .expect("tide-graph SUT");
        let log = engine_sut.engine().marker_log();
        // Every marker is processed exactly once per worker...
        prop_assert_eq!(log.len(), marker_count * workers);
        // ...and each worker sees the markers in stream order (the FIFO
        // mailbox guarantees they queued behind their preceding events).
        for w in 0..workers {
            let seen: Vec<&str> = log
                .iter()
                .filter(|(_, worker, _)| *worker == w)
                .map(|(name, _, _)| name.as_str())
                .collect();
            let expected: Vec<String> =
                (0..marker_count).map(|i| format!("m{i}")).collect();
            prop_assert_eq!(seen.len(), marker_count);
            for (got, want) in seen.iter().zip(&expected) {
                prop_assert_eq!(*got, want.as_str());
            }
        }

        drop(connector);
        let report = sut.shutdown();
        prop_assert_eq!(report.get("events"), Some(total_events as f64));
    }
}

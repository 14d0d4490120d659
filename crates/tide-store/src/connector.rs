//! The platform-specific connector plugging the store into the replayer
//! (§4.1: "the analyst either plugs a platform-specific connector into the
//! graph stream replayer component, or provides logic within the platform").
//!
//! [`BatchingConnector`] implements [`gt_replayer::EventSink`]: it groups
//! incoming graph events into transactions of a configurable size — the
//! paper's "single transaction per event vs. 10 events batched as 1
//! transaction" experiment axis — and submits them to a [`StoreClient`],
//! inheriting the store's backpressure (a full store visibly slows the
//! replayer, which is exactly the backthrottling Figure 3b shows).

use std::io;

use gt_core::prelude::*;
use gt_replayer::EventSink;
use gt_trace::Probe;

use crate::store::{StoreClient, Transaction};

/// Batches replayed events into store transactions.
///
/// Both sink paths copy each event into the transaction by value (a short
/// `State` is inline, so the copy allocates nothing) and keep no handle to
/// the replayer's shared entries, which the replayer frees once it is done
/// with a chunk. Transactions are filled into buffers the store hands
/// back after routing them.
pub struct BatchingConnector {
    client: StoreClient,
    batch_size: usize,
    pending: Vec<GraphEvent>,
    submitted_events: u64,
    trace_probe: Option<Probe>,
}

impl BatchingConnector {
    /// A connector committing `batch_size` events per transaction through
    /// `client`, behind whichever sequencer its store was started with.
    ///
    /// # Panics
    /// If `batch_size` is zero.
    pub fn new(client: StoreClient, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        BatchingConnector {
            client,
            batch_size,
            pending: Vec::with_capacity(batch_size),
            submitted_events: 0,
            trace_probe: None,
        }
    }

    /// Attaches a Level-2 tracepoint (normally
    /// [`gt_trace::Stage::ConnectorRecv`]) stamped once per received
    /// graph event, in stream order.
    #[must_use]
    pub fn with_trace_probe(mut self, probe: Probe) -> Self {
        self.trace_probe = Some(probe);
        self
    }

    /// Events submitted so far (excludes events still pending).
    pub fn submitted_events(&self) -> u64 {
        self.submitted_events
    }

    /// Events accumulated but not yet submitted.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    fn push(&mut self, event: GraphEvent) -> io::Result<()> {
        // Every graph event passes through here exactly once, in stream
        // order — the connector-receive tracepoint.
        if let Some(probe) = &self.trace_probe {
            probe.stamp();
        }
        self.pending.push(event);
        if self.pending.len() >= self.batch_size {
            self.submit_pending()?;
        }
        Ok(())
    }

    fn submit_pending(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        // The next batch fills a buffer the store has routed before.
        let events = std::mem::replace(&mut self.pending, std::mem::take(&mut self.client.spare));
        self.pending.reserve(self.batch_size);
        let count = events.len() as u64;
        self.client
            .submit(Transaction { events })
            .map_err(store_shut_down)?;
        self.submitted_events += count;
        Ok(())
    }

    /// Flushes pending events, then forwards the marker to the store so
    /// the cut is recorded with everything streamed before it sequenced
    /// first.
    fn forward_marker(&mut self, name: &str) -> io::Result<()> {
        self.submit_pending()?;
        self.client.marker(name).map_err(store_shut_down)
    }
}

fn store_shut_down<E>(_: E) -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, "store shut down")
}

impl EventSink for BatchingConnector {
    fn send(&mut self, entry: &StreamEntry) -> io::Result<()> {
        match entry {
            StreamEntry::Graph(event) => self.push(event.clone()),
            // Markers flush so that everything streamed before the marker
            // is committed when the marker's timestamp is taken.
            StreamEntry::Marker(name) => self.forward_marker(name),
            StreamEntry::Control(_) => Ok(()),
        }
    }

    fn send_batch(&mut self, batch: &[SharedEntry]) -> io::Result<()> {
        for entry in batch {
            match &**entry {
                StreamEntry::Graph(event) => self.push(event.clone())?,
                StreamEntry::Marker(name) => self.forward_marker(name)?,
                StreamEntry::Control(_) => {}
            }
        }
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.submit_pending()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{StoreConfig, TideStore};
    use gt_metrics::MetricsHub;
    use gt_replayer::{ReplaySession, ReplaySessionConfig, ReplayerConfig};
    use std::time::Duration;

    fn fast_store(hub: &MetricsHub) -> TideStore {
        TideStore::start(
            StoreConfig {
                shards: 2,
                timestamper_cost_per_tx: Duration::ZERO,
                shard_cost_per_event: Duration::ZERO,
                queue_capacity: 64,
                supervised: false,
            },
            hub,
        )
    }

    fn stream(n: u64) -> GraphStream {
        let mut s: GraphStream = (0..n)
            .map(|i| {
                StreamEntry::graph(GraphEvent::AddVertex {
                    id: VertexId(i),
                    state: State::empty(),
                })
            })
            .collect();
        s.push(StreamEntry::marker("end"));
        s
    }

    #[test]
    fn batches_exactly() {
        let hub = MetricsHub::new();
        let store = fast_store(&hub);
        let mut connector = BatchingConnector::new(store.client(), 10);
        for entry in stream(25) {
            connector.send(&entry).unwrap();
        }
        connector.flush().unwrap();
        // 25 events: two full batches, marker flushes the remaining 5.
        let stats = store.shutdown();
        assert_eq!(stats.events, 25);
        assert_eq!(stats.transactions, 3);
    }

    #[test]
    fn replayer_to_store_end_to_end() {
        let hub = MetricsHub::new();
        let store = fast_store(&hub);
        let mut connector = BatchingConnector::new(store.client(), 1);
        let session = ReplaySession::new(ReplaySessionConfig {
            replayer: ReplayerConfig {
                target_rate: 1e6,
                ..Default::default()
            },
            ..Default::default()
        });
        let report = session.run(&stream(200), &mut connector).unwrap().replay;
        assert_eq!(report.graph_events, 200);
        let stats = store.shutdown();
        assert_eq!(stats.events, 200);
        assert_eq!(stats.graph.vertex_count(), 200);
    }

    #[test]
    fn batched_dispatch_shares_events_and_flushes_at_markers() {
        let hub = MetricsHub::new();
        let store = fast_store(&hub);
        let mut connector = BatchingConnector::new(store.client(), 10);
        let entries: Vec<SharedEntry> = stream(25)
            .into_entries()
            .into_iter()
            .map(SharedEntry::new)
            .collect();
        connector.send_batch(&entries).unwrap();
        // 25 events: two full batches, the trailing marker flushes the 5.
        assert_eq!(connector.submitted_events(), 25);
        assert_eq!(connector.pending_len(), 0);
        let stats = store.shutdown();
        assert_eq!(stats.events, 25);
        assert_eq!(stats.transactions, 3);
        assert_eq!(stats.graph.vertex_count(), 25);
    }

    #[test]
    fn pending_buffer_keeps_capacity_across_batches() {
        let hub = MetricsHub::new();
        let store = fast_store(&hub);
        let mut connector = BatchingConnector::new(store.client(), 16);
        for entry in stream(100).into_entries() {
            connector.send(&entry).unwrap();
        }
        connector.flush().unwrap();
        assert!(
            connector.pending.capacity() >= 16,
            "pending buffer lost its allocation: capacity {}",
            connector.pending.capacity()
        );
        store.shutdown();
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_rejected() {
        let hub = MetricsHub::new();
        let store = fast_store(&hub);
        let _ = BatchingConnector::new(store.client(), 0);
    }
}

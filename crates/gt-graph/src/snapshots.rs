//! Epoch snapshot management.
//!
//! The paper's background (§1) describes systems that capture graph
//! dynamicity "often by periodically creating snapshots", then process
//! "graph snapshots of different points in time … in batches to perform
//! temporal graph computation" (Kineograph's epoch snapshots, Chronos).
//! Offline computations in the GraphTides model run on exactly such
//! snapshots (§4.4.2).
//!
//! [`SnapshotStore`] ingests the event stream, cuts an immutable
//! [`CsrSnapshot`] every `epoch_len` events (plus on demand), retains a
//! bounded history, and serves temporal queries: per-epoch property
//! series and epoch-to-epoch entity diffs.

use std::sync::Arc;

use gt_core::prelude::*;

use crate::apply::ApplyPolicy;
use crate::csr::CsrSnapshot;
use crate::graph::EvolvingGraph;

/// One retained epoch.
#[derive(Debug, Clone)]
pub struct Epoch {
    /// Epoch sequence number (0 = first cut).
    pub seq: u64,
    /// Graph events ingested when the snapshot was cut.
    pub events: u64,
    /// The frozen graph.
    pub snapshot: Arc<CsrSnapshot>,
}

/// Ingests events, cuts periodic snapshots, retains a bounded history.
#[derive(Debug)]
pub struct SnapshotStore {
    live: EvolvingGraph,
    epoch_len: u64,
    retain: usize,
    events: u64,
    next_seq: u64,
    epochs: Vec<Epoch>,
}

impl SnapshotStore {
    /// A store cutting a snapshot every `epoch_len` events, retaining the
    /// most recent `retain` epochs.
    ///
    /// # Panics
    /// If `epoch_len` is zero or `retain` is zero.
    pub fn new(epoch_len: u64, retain: usize) -> Self {
        assert!(epoch_len > 0, "epoch length must be positive");
        assert!(retain > 0, "must retain at least one epoch");
        SnapshotStore {
            live: EvolvingGraph::new(),
            epoch_len,
            retain,
            events: 0,
            next_seq: 0,
            epochs: Vec::new(),
        }
    }

    /// Ingests one event (lenient semantics); cuts an epoch when the
    /// period elapses. Returns the new epoch if one was cut.
    pub fn ingest(&mut self, event: &GraphEvent) -> Option<&Epoch> {
        let _ = self.live.apply_with(event, ApplyPolicy::Lenient);
        self.events += 1;
        if self.events % self.epoch_len == 0 {
            Some(self.cut())
        } else {
            None
        }
    }

    /// Forces an epoch cut now (e.g. at a stream marker).
    pub(crate) fn cut(&mut self) -> &Epoch {
        let epoch = Epoch {
            seq: self.next_seq,
            events: self.events,
            snapshot: Arc::new(CsrSnapshot::from_graph(&self.live)),
        };
        self.next_seq += 1;
        self.epochs.push(epoch);
        if self.epochs.len() > self.retain {
            let excess = self.epochs.len() - self.retain;
            self.epochs.drain(..excess);
        }
        self.epochs.last().expect("just pushed")
    }

    /// The live (up-to-the-event) graph.
    pub fn live(&self) -> &EvolvingGraph {
        &self.live
    }

    /// Retained epochs, oldest first.
    pub fn epochs(&self) -> &[Epoch] {
        &self.epochs
    }

    /// The most recent epoch, if any was cut.
    pub fn latest(&self) -> Option<&Epoch> {
        self.epochs.last()
    }

    /// A per-epoch time series of some snapshot property:
    /// `(events_at_cut, value)`.
    pub fn property_series(&self, f: impl Fn(&CsrSnapshot) -> f64) -> Vec<(f64, f64)> {
        self.epochs
            .iter()
            .map(|e| (e.events as f64, f(&e.snapshot)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add_v(id: u64) -> GraphEvent {
        GraphEvent::AddVertex {
            id: VertexId(id),
            state: State::empty(),
        }
    }

    #[test]
    fn cuts_epochs_on_period() {
        let mut store = SnapshotStore::new(10, 8);
        for i in 0..25u64 {
            let cut = store.ingest(&add_v(i)).is_some();
            assert_eq!(cut, (i + 1) % 10 == 0, "event {i}");
        }
        assert_eq!(store.epochs().len(), 2);
        assert_eq!(store.epochs()[0].snapshot.vertex_count(), 10);
        assert_eq!(store.epochs()[1].snapshot.vertex_count(), 20);
        assert_eq!(store.live().vertex_count(), 25);
    }

    #[test]
    fn snapshots_are_immutable_views() {
        let mut store = SnapshotStore::new(5, 4);
        for i in 0..5u64 {
            store.ingest(&add_v(i));
        }
        let first = Arc::clone(&store.latest().unwrap().snapshot);
        for i in 5..10u64 {
            store.ingest(&add_v(i));
        }
        // The earlier epoch still sees the old world.
        assert_eq!(first.vertex_count(), 5);
        assert_eq!(store.latest().unwrap().snapshot.vertex_count(), 10);
    }

    #[test]
    fn retention_drops_oldest() {
        let mut store = SnapshotStore::new(2, 3);
        for i in 0..20u64 {
            store.ingest(&add_v(i));
        }
        assert_eq!(store.epochs().len(), 3);
        let seqs: Vec<u64> = store.epochs().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [7, 8, 9]);
    }

    #[test]
    fn property_series_over_epochs() {
        let mut store = SnapshotStore::new(4, 10);
        for i in 0..12u64 {
            store.ingest(&add_v(i));
        }
        let series = store.property_series(|s| s.vertex_count() as f64);
        assert_eq!(series, [(4.0, 4.0), (8.0, 8.0), (12.0, 12.0)]);
    }

    #[test]
    fn forced_cut_at_marker() {
        let mut store = SnapshotStore::new(1_000, 4);
        store.ingest(&add_v(1));
        let epoch = store.cut();
        assert_eq!(epoch.events, 1);
        assert_eq!(epoch.snapshot.vertex_count(), 1);
    }

    #[test]
    #[should_panic(expected = "epoch length")]
    fn zero_epoch_len_rejected() {
        SnapshotStore::new(0, 1);
    }
}

//! The replayer connector for the engine.
//!
//! Routes replayed graph events into the worker mailboxes. The mailboxes
//! are unbounded (Chronograph ingested through Kafka, which absorbs
//! bursts), so the replayer never blocks — the stream keeps its pace and
//! the *workers* fall behind, which is precisely the experiment of
//! Figure 3d.

use std::io;
use std::sync::Arc;

use gt_core::prelude::*;
use gt_replayer::EventSink;
use gt_trace::Probe;

use crate::engine::Engine;
use crate::program::Program;
use crate::rank::RankParams;

/// An [`EventSink`] feeding a running [`Engine`] (defaults to the
/// influence-rank engine, [`crate::TideGraph`]).
///
/// Each graph event is copied into its owner's mailbox, singly or in a
/// batch (the trait's per-entry `send_batch`): the engine keeps no
/// replayer handle, so the session's reader refills every entry in place.
pub struct EngineConnector<P: Program = RankParams> {
    engine: Arc<Engine<P>>,
    trace_probe: Option<Probe>,
}

impl<P: Program> EngineConnector<P> {
    /// Wraps a shared engine handle.
    pub fn new(engine: Arc<Engine<P>>) -> Self {
        EngineConnector {
            engine,
            trace_probe: None,
        }
    }

    /// Attaches a Level-2 tracepoint (normally
    /// [`gt_trace::Stage::ConnectorRecv`]) stamped once per received
    /// graph event, in stream order.
    #[must_use]
    pub(crate) fn with_trace_probe(mut self, probe: Probe) -> Self {
        self.trace_probe = Some(probe);
        self
    }

    #[inline]
    fn stamp_recv(&self) {
        if let Some(probe) = &self.trace_probe {
            probe.stamp();
        }
    }
}

impl<P: Program> EventSink for EngineConnector<P> {
    fn send(&mut self, entry: &StreamEntry) -> io::Result<()> {
        match entry {
            StreamEntry::Graph(event) => {
                self.stamp_recv();
                self.engine.ingest(event.clone());
            }
            // Watermarks flow into the worker mailboxes: their processing
            // time (engine marker log) vs. their emission time (replayer
            // report) measures ingestion latency under the current
            // backlog.
            StreamEntry::Marker(name) => _ = self.engine.ingest_marker(name),
            // Control events are handled by the replayer itself.
            StreamEntry::Control(_) => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, TideGraph};
    use gt_metrics::MetricsHub;
    use gt_replayer::{ReplaySession, ReplaySessionConfig, ReplayerConfig};
    use std::time::Duration;

    #[test]
    fn replayer_to_engine_end_to_end() {
        let hub = MetricsHub::new();
        let engine = Arc::new(TideGraph::start(EngineConfig::default(), &hub));
        let mut connector = EngineConnector::new(Arc::clone(&engine));

        let mut stream = gt_graph::builders::ring(100);
        stream.push(StreamEntry::marker("end"));
        let session = ReplaySession::new(ReplaySessionConfig {
            replayer: ReplayerConfig {
                target_rate: 50_000.0,
                ..Default::default()
            },
            ..Default::default()
        });
        let report = session.run(&stream, &mut connector).unwrap().replay;
        assert_eq!(report.graph_events, 200);

        assert!(engine.quiesce(Duration::from_secs(10)));
        drop(connector);
        let engine = Arc::try_unwrap(engine).ok().expect("sole owner");
        let stats = engine.shutdown();
        assert_eq!(stats.events, 200);
        assert_eq!(stats.ranks.len(), 100);
    }

    #[test]
    fn a_batch_leaves_no_handle_behind() {
        let hub = MetricsHub::new();
        let engine = Arc::new(TideGraph::start(EngineConfig::default(), &hub));
        let mut connector = EngineConnector::new(Arc::clone(&engine));
        let mut batch: Vec<SharedEntry> = gt_graph::builders::ring(50)
            .entries()
            .iter()
            .cloned()
            .map(SharedEntry::new)
            .collect();
        batch.push(SharedEntry::new(StreamEntry::marker("end")));
        connector.send_batch(&batch).unwrap();
        // The engine copied what it needs: the reader may refill every
        // entry in place.
        for entry in &batch {
            assert_eq!(SharedEntry::strong_count(entry), 1, "{entry:?} kept");
        }
        assert!(engine.quiesce(Duration::from_secs(10)));
        drop(connector);
        let engine = Arc::try_unwrap(engine).ok().expect("sole owner");
        assert_eq!(engine.shutdown().events, 100);
    }
}

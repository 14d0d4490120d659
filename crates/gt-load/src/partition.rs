//! Deterministic, seeded stream partitioning.
//!
//! Splitting one generated stream into N per-connection substreams must
//! be (a) stable — the same event lands on the same connection for the
//! same seed, so runs are reproducible and per-entity event order is
//! preserved, and (b) entity-affine — all events touching a vertex ride
//! the same connection, so no cross-connection reordering can violate
//! per-entity causality (an `ADD_VERTEX` arriving after its
//! `UPDATE_VERTEX`). Markers and control events are broadcast to every
//! substream: the listener's barrier needs to see each marker on each
//! connection to re-establish a total order. A load run applies the
//! partitioner entry by entry as its routing pass reads the stream
//! ([`crate::feed`]); [`SeededPartitioner::split`] applies it to a whole
//! stream in memory.

use gt_core::prelude::*;

/// Splits a stream across N substreams by seeded entity hash.
#[derive(Debug, Clone, Copy)]
pub struct SeededPartitioner {
    partitions: usize,
    seed: u64,
}

/// SplitMix64 finalizer — a strong, dependency-free 64-bit mix.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl SeededPartitioner {
    /// A partitioner over `partitions` substreams.
    ///
    /// # Panics
    /// If `partitions` is zero.
    pub fn new(partitions: usize, seed: u64) -> Self {
        assert!(partitions > 0, "partition count must be positive");
        SeededPartitioner { partitions, seed }
    }

    /// The routing key of a graph event: its vertex, or an edge's source
    /// vertex (edge events co-locate with their source's vertex events).
    fn route_key(event: &GraphEvent) -> u64 {
        match event {
            GraphEvent::AddVertex { id, .. }
            | GraphEvent::RemoveVertex { id }
            | GraphEvent::UpdateVertex { id, .. } => id.raw(),
            GraphEvent::AddEdge { id, .. }
            | GraphEvent::RemoveEdge { id }
            | GraphEvent::UpdateEdge { id, .. } => id.src.raw(),
        }
    }

    /// The number of substreams.
    pub(crate) fn partitions(&self) -> usize {
        self.partitions
    }

    /// The substream a graph event belongs to.
    pub(crate) fn owner_of(&self, event: &GraphEvent) -> usize {
        (mix64(Self::route_key(event) ^ self.seed) % self.partitions as u64) as usize
    }

    /// Splits a stream into `partitions` substreams: graph events are
    /// routed by seeded entity hash, markers and control events are
    /// broadcast to all substreams, and relative order is preserved
    /// within each substream.
    pub fn split(&self, stream: &GraphStream) -> Vec<GraphStream> {
        let mut out: Vec<GraphStream> = (0..self.partitions).map(|_| GraphStream::new()).collect();
        for entry in stream.entries() {
            match entry {
                StreamEntry::Graph(event) => out[self.owner_of(event)].push(entry.clone()),
                StreamEntry::Marker(_) | StreamEntry::Control(_) => {
                    for sub in &mut out {
                        sub.push(entry.clone());
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stream(n: u64) -> GraphStream {
        let mut stream = GraphStream::new();
        stream.push(StreamEntry::marker("start"));
        for i in 0..n {
            stream.push(StreamEntry::graph(GraphEvent::AddVertex {
                id: VertexId(i),
                state: State::empty(),
            }));
            if i % 3 == 0 && i > 0 {
                stream.push(StreamEntry::graph(GraphEvent::AddEdge {
                    id: EdgeId::new(VertexId(i), VertexId(i - 1)),
                    state: State::empty(),
                }));
            }
        }
        stream.push(StreamEntry::marker("end"));
        stream
    }

    #[test]
    fn split_conserves_graph_events_and_broadcasts_markers() {
        let stream = sample_stream(300);
        let graph_events = stream.entries().iter().filter(|e| e.is_graph()).count();
        let partitioner = SeededPartitioner::new(8, 42);
        let subs = partitioner.split(&stream);
        assert_eq!(subs.len(), 8);
        let total: usize = subs
            .iter()
            .map(|s| s.entries().iter().filter(|e| e.is_graph()).count())
            .sum();
        assert_eq!(total, graph_events, "every graph event lands exactly once");
        for sub in &subs {
            let markers: Vec<_> = sub
                .entries()
                .iter()
                .filter(|e| e.is_marker())
                .cloned()
                .collect();
            assert_eq!(
                markers,
                vec![StreamEntry::marker("start"), StreamEntry::marker("end")],
                "markers broadcast to every substream, in order"
            );
        }
    }

    #[test]
    fn split_is_deterministic_and_seed_sensitive() {
        let stream = sample_stream(200);
        let a = SeededPartitioner::new(4, 1).split(&stream);
        let b = SeededPartitioner::new(4, 1).split(&stream);
        let c = SeededPartitioner::new(4, 2).split(&stream);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.entries(), y.entries());
        }
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.entries() != y.entries()),
            "a different seed should route differently"
        );
    }

    #[test]
    fn entity_affinity_edges_follow_source_vertex() {
        let partitioner = SeededPartitioner::new(16, 9);
        for src in 0..200u64 {
            let vertex_owner =
                partitioner.owner_of(&GraphEvent::RemoveVertex { id: VertexId(src) });
            let edge_owner = partitioner.owner_of(&GraphEvent::RemoveEdge {
                id: EdgeId::new(VertexId(src), VertexId(src + 1)),
            });
            assert_eq!(vertex_owner, edge_owner);
        }
    }

    #[test]
    fn split_balances_reasonably() {
        let stream = sample_stream(4000);
        let subs = SeededPartitioner::new(8, 3).split(&stream);
        let counts: Vec<usize> = subs
            .iter()
            .map(|s| s.entries().iter().filter(|e| e.is_graph()).count())
            .collect();
        let expected = counts.iter().sum::<usize>() / counts.len();
        for count in counts {
            assert!(
                count > expected / 2 && count < expected * 2,
                "partition badly unbalanced: {count} vs mean {expected}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "partition count")]
    fn zero_partitions_rejected() {
        let _ = SeededPartitioner::new(0, 0);
    }
}

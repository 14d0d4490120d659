//! Shard-local graph state.
//!
//! Every shard worker keeps a partition-local view of the vertices and
//! edges routed to it: the per-event apply work of the store (a Weaver
//! shard's, in the paper). Events apply *leniently* — the cross-shard existence of edge endpoints
//! cannot be checked locally; the merged commit-log reconstruction at
//! shutdown is authoritative for consistency.
//!
//! State is held as the [`SharedGraphEvent`] that last set it, never as a
//! copy of its payload: the shard log keeps every applied event alive for
//! the whole run anyway, so a handle retains nothing extra, costs no
//! allocation per event, and keeps an inline adjacency slot at 16 bytes
//! (an 8-byte id beside an 8-byte handle).
//!
//! The body is gt-graph's [`AdjacencyStore`], the one the reference
//! `EvolvingGraph` runs on: a slab of 232-byte per-vertex entries behind a
//! hash index, each with an out-list and an in-list that move between
//! three tiers by degree (up to 8 entries inline, a sorted array up to
//! 1 024, a tree above), so removing a vertex costs its own degree.
//! Writes here are *upserts*: an edge creates its missing endpoints, and a
//! vertex another shard owns becomes a stateless entry that lives as long
//! as its edges here. The in-lists are therefore *partition-local*: edges
//! are routed by source, so they list only the sources this shard holds —
//! an edge into the removed vertex from another shard's source survives
//! there, and is dropped by the shutdown reconstruction.

use gt_core::prelude::*;
use gt_graph::AdjacencyStore;

/// The vertex and edge state held by one shard worker.
#[derive(Debug, Default)]
pub struct PartitionState {
    /// Each vertex's and edge's payload is the event that last set it.
    store: AdjacencyStore<SharedGraphEvent>,
}

impl PartitionState {
    /// An empty partition.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of vertices with explicit state.
    pub fn vertex_count(&self) -> usize {
        self.store.vertex_count()
    }

    /// Number of edges held locally.
    pub fn edge_count(&self) -> usize {
        self.store.edge_count()
    }

    /// Applies one graph event leniently (unknown entities are upserted
    /// or ignored, never an error — see the module docs). Stateful events
    /// are kept by handle; the payload is not copied.
    pub fn apply(&mut self, event: &SharedGraphEvent) {
        match event.event() {
            GraphEvent::AddVertex { id, .. } | GraphEvent::UpdateVertex { id, .. } => {
                self.store.upsert_state(*id, event.clone());
            }
            GraphEvent::RemoveVertex { id } => {
                self.store.remove_vertex(*id);
            }
            GraphEvent::AddEdge { id, .. } | GraphEvent::UpdateEdge { id, .. } => {
                self.store.upsert_edge(*id, event.clone());
            }
            GraphEvent::RemoveEdge { id } => {
                self.store.remove_edge(*id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use gt_graph::hybrid::Tier;
    use gt_graph::HybridAdjacency;

    use super::*;

    /// The state a stored vertex's event set.
    fn read_vertex(p: &PartitionState, id: VertexId) -> Option<State> {
        p.store.state(id).and_then(carried_state)
    }

    /// The state a stored edge's event set.
    fn read_edge(p: &PartitionState, id: EdgeId) -> Option<State> {
        p.store.edge(id).and_then(carried_state)
    }

    /// The state a stored event set (only stateful events are stored).
    fn carried_state(event: &SharedGraphEvent) -> Option<State> {
        match event.event() {
            GraphEvent::AddVertex { state, .. }
            | GraphEvent::UpdateVertex { state, .. }
            | GraphEvent::AddEdge { state, .. }
            | GraphEvent::UpdateEdge { state, .. } => Some(state.clone()),
            GraphEvent::RemoveVertex { .. } | GraphEvent::RemoveEdge { .. } => None,
        }
    }

    fn shared(event: GraphEvent) -> SharedGraphEvent {
        SharedGraphEvent::new(event)
    }

    fn add_edge(state: &mut PartitionState, src: u64, dst: u64, s: &str) {
        state.apply(&shared(GraphEvent::AddEdge {
            id: EdgeId::from((src, dst)),
            state: State::new(s),
        }));
    }

    #[test]
    fn lenient_upserts_and_reads() {
        let mut p = PartitionState::new();
        // Edges may arrive before their endpoints — kept verbatim.
        add_edge(&mut p, 1, 2, "w=1");
        p.apply(&shared(GraphEvent::AddVertex {
            id: VertexId(1),
            state: State::new("v"),
        }));
        assert_eq!(read_vertex(&p, VertexId(1)).unwrap().as_str(), "v");
        assert_eq!(read_edge(&p, EdgeId::from((1, 2))).unwrap().as_str(), "w=1");
        assert_eq!(read_edge(&p, EdgeId::from((2, 1))), None);
        assert_eq!(p.edge_count(), 1);
        // UpdateEdge overwrites in place without changing the count.
        p.apply(&shared(GraphEvent::UpdateEdge {
            id: EdgeId::from((1, 2)),
            state: State::new("w=2"),
        }));
        assert_eq!(read_edge(&p, EdgeId::from((1, 2))).unwrap().as_str(), "w=2");
        assert_eq!(p.edge_count(), 1);
    }

    #[test]
    fn remove_vertex_drops_both_edge_directions() {
        let mut p = PartitionState::new();
        add_edge(&mut p, 1, 2, "");
        add_edge(&mut p, 2, 1, "");
        add_edge(&mut p, 2, 3, "");
        p.apply(&shared(GraphEvent::RemoveVertex { id: VertexId(1) }));
        assert_eq!(read_edge(&p, EdgeId::from((1, 2))), None);
        assert_eq!(read_edge(&p, EdgeId::from((2, 1))), None);
        assert!(read_edge(&p, EdgeId::from((2, 3))).is_some());
        assert_eq!(p.edge_count(), 1);
    }

    #[test]
    fn remove_edge_is_idempotent() {
        let mut p = PartitionState::new();
        add_edge(&mut p, 1, 2, "");
        for _ in 0..2 {
            p.apply(&shared(GraphEvent::RemoveEdge {
                id: EdgeId::from((1, 2)),
            }));
        }
        assert_eq!(p.edge_count(), 0);
        assert_eq!(read_edge(&p, EdgeId::from((1, 2))), None);
    }

    #[test]
    fn hub_degrees_promote_without_changing_reads() {
        let mut p = PartitionState::new();
        for dst in 0..64u64 {
            if dst != 7 {
                add_edge(&mut p, 7, dst, "x");
            }
        }
        assert_eq!(p.edge_count(), 63);
        assert_eq!(read_edge(&p, EdgeId::from((7, 42))).unwrap().as_str(), "x");
        p.apply(&shared(GraphEvent::RemoveVertex { id: VertexId(7) }));
        assert_eq!(p.edge_count(), 0);
    }

    #[test]
    fn an_entry_goes_with_its_last_state_and_last_edge() {
        let mut p = PartitionState::new();
        // Vertex 2 is another shard's: only the edges routed here name it.
        add_edge(&mut p, 1, 2, "");
        add_edge(&mut p, 3, 2, "");
        p.apply(&shared(GraphEvent::AddVertex {
            id: VertexId(3),
            state: State::new("v"),
        }));
        assert_eq!((p.store.entry_count(), p.vertex_count()), (3, 1));
        p.apply(&shared(GraphEvent::RemoveEdge {
            id: EdgeId::from((1, 2)),
        }));
        assert!(p.store.get(VertexId(1)).is_none(), "no state, no edge");
        assert!(p.store.get(VertexId(2)).is_some(), "3 -> 2 still names it");
        p.apply(&shared(GraphEvent::RemoveEdge {
            id: EdgeId::from((3, 2)),
        }));
        assert!(p.store.get(VertexId(2)).is_none());
        assert_eq!(read_vertex(&p, VertexId(3)).unwrap().as_str(), "v");
        p.apply(&shared(GraphEvent::RemoveVertex { id: VertexId(3) }));
        assert_eq!(p.store.entry_count(), 0);
        p.store.check_invariants().unwrap();
    }

    /// The reference the indexed state is compared against: cloned
    /// payloads, no reverse index, and a `RemoveVertex` that walks every
    /// adjacency list.
    #[derive(Default)]
    struct ScanState {
        vertices: BTreeMap<VertexId, State>,
        out: BTreeMap<VertexId, HybridAdjacency<State>>,
        edge_count: usize,
    }

    impl ScanState {
        fn apply(&mut self, event: &GraphEvent) {
            match event {
                GraphEvent::AddVertex { id, state } | GraphEvent::UpdateVertex { id, state } => {
                    self.vertices.insert(*id, state.clone());
                }
                GraphEvent::RemoveVertex { id } => {
                    self.vertices.remove(id);
                    if let Some(adj) = self.out.remove(id) {
                        self.edge_count -= adj.len();
                    }
                    let mut dropped = 0;
                    self.out.retain(|_, adj| {
                        if adj.remove(*id).is_some() {
                            dropped += 1;
                        }
                        !adj.is_empty()
                    });
                    self.edge_count -= dropped;
                }
                GraphEvent::AddEdge { id, state } | GraphEvent::UpdateEdge { id, state } => {
                    let adj = self.out.entry(id.src).or_default();
                    if adj.insert(id.dst, state.clone()).is_none() {
                        self.edge_count += 1;
                    }
                }
                GraphEvent::RemoveEdge { id } => {
                    if let Some(adj) = self.out.get_mut(&id.src) {
                        if adj.remove(id.dst).is_some() {
                            self.edge_count -= 1;
                        }
                        if adj.is_empty() {
                            self.out.remove(&id.src);
                        }
                    }
                }
            }
        }
    }

    /// A seeded mixed stream over `vertices` ids. Vertex 0 is pushed well
    /// past `INLINE_CAP` in both directions (a hub source and a hub
    /// destination); the other vertices stay mostly inline. Includes
    /// self-loops, duplicate adds, updates and removals of missing
    /// entities, and removed vertices that are later re-added.
    fn mixed_stream(seed: u64, vertices: u64, len: usize) -> Vec<GraphEvent> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        (0..len)
            .map(|i| {
                let a = VertexId(next() % vertices);
                let b = VertexId(next() % vertices);
                let hub = VertexId(0);
                let state = State::new(format!("s{i}"));
                match next() % 128 {
                    0..=31 => GraphEvent::AddEdge {
                        id: EdgeId::new(a, b),
                        state,
                    },
                    32..=47 => GraphEvent::AddEdge {
                        id: EdgeId::new(hub, b),
                        state,
                    },
                    48..=63 => GraphEvent::AddEdge {
                        id: EdgeId::new(a, hub),
                        state,
                    },
                    64..=69 => GraphEvent::AddEdge {
                        id: EdgeId::new(a, a),
                        state,
                    },
                    70..=81 => GraphEvent::UpdateEdge {
                        id: EdgeId::new(a, b),
                        state,
                    },
                    82..=97 => GraphEvent::RemoveEdge {
                        id: EdgeId::new(a, b),
                    },
                    98..=109 => GraphEvent::AddVertex { id: a, state },
                    110..=115 => GraphEvent::UpdateVertex { id: a, state },
                    // Any vertex but the hub, so the hub has time to grow.
                    116..=126 => GraphEvent::RemoveVertex {
                        id: VertexId(1 + a.0 % (vertices - 1)),
                    },
                    _ => GraphEvent::RemoveVertex { id: hub },
                }
            })
            .collect()
    }

    #[test]
    fn indexed_state_matches_the_scanning_reference_after_every_event() {
        let mut hub_promoted = false;
        for seed in 0..24u64 {
            // Few vertices → dense lists and frequent hits on existing
            // edges; more vertices → mostly inline lists around the hub.
            let vertices = if seed % 2 == 0 { 12 } else { 32 };
            let mut indexed = PartitionState::new();
            let mut reference = ScanState::default();
            for (i, event) in mixed_stream(seed, vertices, 400).into_iter().enumerate() {
                reference.apply(&event);
                indexed.apply(&shared(event.clone()));
                let at = format!("seed {seed}, event {i} ({event:?})");
                assert_eq!(indexed.vertex_count(), reference.vertices.len(), "{at}");
                assert_eq!(indexed.edge_count(), reference.edge_count, "{at}");
                indexed.store.check_invariants().unwrap();
                for v in (0..vertices).map(VertexId) {
                    assert_eq!(
                        read_vertex(&indexed, v),
                        reference.vertices.get(&v).cloned(),
                        "{at}"
                    );
                    for w in (0..vertices).map(VertexId) {
                        let expected = reference.out.get(&v).and_then(|adj| adj.get(w));
                        assert_eq!(
                            read_edge(&indexed, EdgeId::new(v, w)),
                            expected.cloned(),
                            "{at}"
                        );
                    }
                }
                hub_promoted |= indexed.store.get(VertexId(0)).is_some_and(|hub| {
                    hub.inc.tier() != Tier::Inline && hub.out.tier() != Tier::Inline
                });
            }
        }
        assert!(hub_promoted, "no stream pushed the hub past INLINE_CAP");
    }
}

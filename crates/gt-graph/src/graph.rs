//! The evolving property graph.
//!
//! Vertices, states and both adjacency directions live in the one
//! [`AdjacencyStore`] (DESIGN.md §12): a slab of entries behind a hash
//! index `VertexId → slot`, with O(degree) cascading vertex removal. What
//! this type adds is the reference semantics — strict and lenient
//! preconditions, the applied-event counter — and an **ordered index** of
//! the live ids, touched only when a vertex is added or removed.
//! `vertices()`, `vertices_with_state()` and `edges()` therefore run in
//! ascending id order, and every downstream computation and simulated
//! experiment stays deterministic for a given event sequence.
//!
//! Per-vertex adjacency is a degree-adaptive [`crate::HybridAdjacency`]
//! in three tiers (up to 8 entries inline, a sorted array up to 1 024, a
//! tree for the hubs above) that iterates ascending in every tier.

use std::collections::BTreeMap;

use gt_core::prelude::*;

use crate::apply::{Applied, ApplyError, ApplyPolicy};
use crate::store::{AdjacencyStore, Slot};

/// A directed, stateful graph that evolves by applying stream events.
///
/// Equality is structural: two graphs holding the same vertices, states,
/// edges and counters are equal whatever slab slots their histories left
/// the entries in.
#[derive(Debug, Clone, Default)]
pub struct EvolvingGraph {
    /// Every vertex is an entry with a state: edges need both endpoints.
    store: AdjacencyStore<State>,
    /// The live ids in ascending order with their slots, so iteration
    /// neither sorts nor hashes. Written on vertex add/remove only.
    ordered: BTreeMap<VertexId, Slot>,
    /// Total graph events successfully applied (mutating or not).
    applied_events: u64,
}

impl PartialEq for EvolvingGraph {
    fn eq(&self, other: &Self) -> bool {
        self.store.edge_count() == other.store.edge_count()
            && self.applied_events == other.applied_events
            && self.ordered.len() == other.ordered.len()
            && self
                .ordered
                .iter()
                .zip(&other.ordered)
                .all(|((a, &sa), (b, &sb))| a == b && self.store.at(sa) == other.store.at(sb))
    }
}

impl EvolvingGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a graph by strictly applying every graph event of a stream.
    pub fn from_stream(stream: &GraphStream) -> Result<Self, ApplyError> {
        let mut g = EvolvingGraph::new();
        for event in stream.graph_events() {
            g.apply(event)?;
        }
        Ok(g)
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.store.vertex_count()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.store.edge_count()
    }

    /// Total graph events applied so far.
    pub fn applied_events(&self) -> u64 {
        self.applied_events
    }

    /// Whether the vertex exists.
    pub fn has_vertex(&self, id: VertexId) -> bool {
        self.store.state(id).is_some()
    }

    /// Whether the directed edge exists.
    pub fn has_edge(&self, id: EdgeId) -> bool {
        self.store.edge(id).is_some()
    }

    /// Out-degree of a vertex (`None` if it does not exist).
    pub fn out_degree(&self, id: VertexId) -> Option<usize> {
        self.store.get(id).map(|v| v.out.len())
    }

    /// In-degree of a vertex (`None` if it does not exist).
    pub fn in_degree(&self, id: VertexId) -> Option<usize> {
        self.store.get(id).map(|v| v.inc.len())
    }

    /// Total degree (in + out), `None` if the vertex does not exist.
    pub fn degree(&self, id: VertexId) -> Option<usize> {
        self.store.get(id).map(|v| v.out.len() + v.inc.len())
    }

    /// Iterates over all vertex ids in ascending order.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.ordered.keys().copied()
    }

    /// Iterates over `(id, state)` for all vertices in ascending id order.
    pub fn vertices_with_state(&self) -> impl Iterator<Item = (VertexId, &State)> {
        self.ordered.iter().map(|(id, &slot)| {
            (
                *id,
                self.store
                    .at(slot)
                    .state
                    .as_ref()
                    .expect("a vertex has a state"),
            )
        })
    }

    /// Iterates over all directed edges `(edge, state)` in deterministic
    /// (src, dst) order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &State)> {
        self.ordered.iter().flat_map(|(src, &slot)| {
            self.store
                .at(slot)
                .out
                .iter()
                .map(move |(dst, s)| (EdgeId::new(*src, dst), s))
        })
    }

    /// Out-neighbors of a vertex in ascending order (empty if missing).
    pub fn out_neighbors(&self, id: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.store.get(id).into_iter().flat_map(|v| v.out.keys())
    }

    /// Out-neighbors with edge state.
    pub fn out_edges(&self, id: VertexId) -> impl Iterator<Item = (VertexId, &State)> {
        self.store.get(id).into_iter().flat_map(|v| v.out.iter())
    }

    /// In-neighbors of a vertex in ascending order (empty if missing).
    pub fn in_neighbors(&self, id: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.store.get(id).into_iter().flat_map(|v| v.inc.keys())
    }

    /// Applies one event with [`ApplyPolicy::Strict`] semantics.
    pub fn apply(&mut self, event: &GraphEvent) -> Result<Applied, ApplyError> {
        self.apply_with(event, ApplyPolicy::Strict)
    }

    /// Applies one event under the given policy.
    ///
    /// Each endpoint is resolved to its slot once and an edge event
    /// searches its source's out-list once.
    pub fn apply_with(
        &mut self,
        event: &GraphEvent,
        policy: ApplyPolicy,
    ) -> Result<Applied, ApplyError> {
        let lenient = policy == ApplyPolicy::Lenient;
        // What a violated precondition comes to under the policy.
        let violated = |error| {
            if lenient {
                Ok(Applied::noop())
            } else {
                Err(error)
            }
        };
        let mutated = Applied::mutated();
        let checked = match event {
            GraphEvent::AddVertex { id, .. } if self.has_vertex(*id) => {
                Err(ApplyError::VertexExists(*id))
            }
            GraphEvent::AddVertex { id, state } => {
                let slot = self.store.upsert_state(*id, state.clone());
                self.ordered.insert(*id, slot);
                Ok(mutated)
            }
            GraphEvent::RemoveVertex { id } => match self.store.remove_vertex(*id) {
                Some(cascaded_edge_removals) => {
                    self.ordered.remove(id);
                    Ok(Applied {
                        mutated: true,
                        cascaded_edge_removals,
                    })
                }
                None => Err(ApplyError::MissingVertex(*id)),
            },
            GraphEvent::UpdateVertex { id, state } => (self.store.state_mut(*id))
                .map(|old| *old = state.clone())
                .map_or(Err(ApplyError::MissingVertex(*id)), |()| Ok(mutated)),
            GraphEvent::AddEdge { id, .. } if id.is_self_loop() => {
                return Err(ApplyError::SelfLoop(id.src));
            }
            GraphEvent::AddEdge { id, state } => {
                match self.store.insert_edge_if_absent(*id, || state.clone()) {
                    Ok(added) => added.then_some(mutated).ok_or(ApplyError::EdgeExists(*id)),
                    // An edge dropped for a missing endpoint is the one
                    // lenient no-op that is not counted as applied.
                    Err(missing) => return violated(ApplyError::MissingVertex(missing)),
                }
            }
            GraphEvent::RemoveEdge { id } => (self.store.remove_edge(*id))
                .map_or(Err(ApplyError::MissingEdge(*id)), |_| Ok(mutated)),
            GraphEvent::UpdateEdge { id, state } => (self.store.edge_mut(*id))
                .map(|old| *old = state.clone())
                .map_or(Err(ApplyError::MissingEdge(*id)), |()| Ok(mutated)),
        };
        let outcome = checked.or_else(violated)?;
        self.applied_events += 1;
        Ok(outcome)
    }

    /// A deep copy of the current graph (an "epoch snapshot" in
    /// Kineograph terms — §4.4.2).
    pub fn snapshot(&self) -> EvolvingGraph {
        self.clone()
    }

    /// Checks internal consistency: the store's own invariants (slab, free
    /// list and hash index agree, the reverse index mirrors the forward
    /// adjacency, the counts match), every entry is a vertex, and the
    /// ordered index lists exactly the store's ids at their slots.
    /// Intended for tests and debugging; O(V + E).
    pub fn check_invariants(&self) -> Result<(), String> {
        self.store.check_invariants()?;
        let (ids, entries) = (self.ordered.len(), self.store.entry_count());
        let agree = ids == entries
            && self.store.vertex_count() == entries
            && (self.ordered.iter()).all(|(&id, &slot)| self.store.slot(id) == Some(slot));
        if agree {
            return Ok(());
        }
        Err(format!("ordered index ({ids} ids) and store disagree"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add_v(g: &mut EvolvingGraph, id: u64) {
        g.apply(&GraphEvent::AddVertex {
            id: VertexId(id),
            state: State::empty(),
        })
        .unwrap();
    }

    fn add_e(g: &mut EvolvingGraph, src: u64, dst: u64) {
        g.apply(&GraphEvent::AddEdge {
            id: EdgeId::from((src, dst)),
            state: State::empty(),
        })
        .unwrap();
    }

    #[test]
    fn add_and_query_vertices() {
        let mut g = EvolvingGraph::new();
        add_v(&mut g, 1);
        add_v(&mut g, 2);
        assert_eq!(g.vertex_count(), 2);
        assert!(g.has_vertex(VertexId(1)));
        assert!(!g.has_vertex(VertexId(3)));
        assert_eq!(g.vertices().collect::<Vec<_>>(), [VertexId(1), VertexId(2)]);
    }

    #[test]
    fn duplicate_vertex_rejected_strict_tolerated_lenient() {
        let mut g = EvolvingGraph::new();
        add_v(&mut g, 1);
        let dup = GraphEvent::AddVertex {
            id: VertexId(1),
            state: State::new("other"),
        };
        assert_eq!(g.apply(&dup), Err(ApplyError::VertexExists(VertexId(1))));
        let lenient = g.apply_with(&dup, ApplyPolicy::Lenient).unwrap();
        assert!(!lenient.mutated);
        // Lenient duplicate add must not clobber existing state.
        assert_eq!(g.store.state(VertexId(1)).unwrap().as_str(), "");
    }

    #[test]
    fn edges_require_endpoints() {
        let mut g = EvolvingGraph::new();
        add_v(&mut g, 1);
        let e = GraphEvent::AddEdge {
            id: EdgeId::from((1, 2)),
            state: State::empty(),
        };
        assert_eq!(g.apply(&e), Err(ApplyError::MissingVertex(VertexId(2))));
        assert!(!g.apply_with(&e, ApplyPolicy::Lenient).unwrap().mutated);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn self_loops_always_rejected() {
        let mut g = EvolvingGraph::new();
        add_v(&mut g, 1);
        let e = GraphEvent::AddEdge {
            id: EdgeId::from((1, 1)),
            state: State::empty(),
        };
        assert_eq!(g.apply(&e), Err(ApplyError::SelfLoop(VertexId(1))));
        assert_eq!(
            g.apply_with(&e, ApplyPolicy::Lenient),
            Err(ApplyError::SelfLoop(VertexId(1)))
        );
    }

    #[test]
    fn duplicate_edge_rejected() {
        let mut g = EvolvingGraph::new();
        add_v(&mut g, 1);
        add_v(&mut g, 2);
        add_e(&mut g, 1, 2);
        let e = GraphEvent::AddEdge {
            id: EdgeId::from((1, 2)),
            state: State::empty(),
        };
        assert_eq!(
            g.apply(&e),
            Err(ApplyError::EdgeExists(EdgeId::from((1, 2))))
        );
        // Reverse direction is a distinct edge.
        add_e(&mut g, 2, 1);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn degrees_and_neighbors() {
        let mut g = EvolvingGraph::new();
        for id in 1..=4 {
            add_v(&mut g, id);
        }
        add_e(&mut g, 1, 2);
        add_e(&mut g, 1, 3);
        add_e(&mut g, 4, 1);
        assert_eq!(g.out_degree(VertexId(1)), Some(2));
        assert_eq!(g.in_degree(VertexId(1)), Some(1));
        assert_eq!(g.degree(VertexId(1)), Some(3));
        assert_eq!(
            g.out_neighbors(VertexId(1)).collect::<Vec<_>>(),
            [VertexId(2), VertexId(3)]
        );
        assert_eq!(
            g.in_neighbors(VertexId(1)).collect::<Vec<_>>(),
            [VertexId(4)]
        );
        assert_eq!(g.out_degree(VertexId(99)), None);
    }

    #[test]
    fn vertex_removal_cascades_edges() {
        let mut g = EvolvingGraph::new();
        for id in 1..=4 {
            add_v(&mut g, id);
        }
        add_e(&mut g, 1, 2);
        add_e(&mut g, 3, 1);
        add_e(&mut g, 1, 4);
        add_e(&mut g, 2, 3); // unrelated edge
        let applied = g
            .apply(&GraphEvent::RemoveVertex { id: VertexId(1) })
            .unwrap();
        assert_eq!(applied.cascaded_edge_removals, 3);
        assert_eq!(g.edge_count(), 1);
        assert!(!g.has_vertex(VertexId(1)));
        assert!(g.has_edge(EdgeId::from((2, 3))));
        g.check_invariants().unwrap();
    }

    #[test]
    fn state_updates() {
        let mut g = EvolvingGraph::new();
        add_v(&mut g, 1);
        add_v(&mut g, 2);
        add_e(&mut g, 1, 2);
        g.apply(&GraphEvent::UpdateVertex {
            id: VertexId(1),
            state: State::new("v1"),
        })
        .unwrap();
        g.apply(&GraphEvent::UpdateEdge {
            id: EdgeId::from((1, 2)),
            state: State::weight(9.0),
        })
        .unwrap();
        assert_eq!(g.store.state(VertexId(1)).unwrap().as_str(), "v1");
        assert_eq!(
            g.store.edge(EdgeId::from((1, 2))).unwrap().as_weight(),
            Some(9.0)
        );

        assert_eq!(
            g.apply(&GraphEvent::UpdateVertex {
                id: VertexId(9),
                state: State::empty(),
            }),
            Err(ApplyError::MissingVertex(VertexId(9)))
        );
        assert_eq!(
            g.apply(&GraphEvent::UpdateEdge {
                id: EdgeId::from((2, 1)),
                state: State::empty(),
            }),
            Err(ApplyError::MissingEdge(EdgeId::from((2, 1))))
        );
    }

    #[test]
    fn remove_edge() {
        let mut g = EvolvingGraph::new();
        add_v(&mut g, 1);
        add_v(&mut g, 2);
        add_e(&mut g, 1, 2);
        g.apply(&GraphEvent::RemoveEdge {
            id: EdgeId::from((1, 2)),
        })
        .unwrap();
        assert_eq!(g.edge_count(), 0);
        assert_eq!(
            g.apply(&GraphEvent::RemoveEdge {
                id: EdgeId::from((1, 2)),
            }),
            Err(ApplyError::MissingEdge(EdgeId::from((1, 2))))
        );
        g.check_invariants().unwrap();
    }

    #[test]
    fn from_stream_builds_graph() {
        let stream = GraphStream::from_entries(vec![
            StreamEntry::graph(GraphEvent::AddVertex {
                id: VertexId(1),
                state: State::empty(),
            }),
            StreamEntry::marker("mid"),
            StreamEntry::graph(GraphEvent::AddVertex {
                id: VertexId(2),
                state: State::empty(),
            }),
            StreamEntry::graph(GraphEvent::AddEdge {
                id: EdgeId::from((1, 2)),
                state: State::empty(),
            }),
        ]);
        let g = EvolvingGraph::from_stream(&stream).unwrap();
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.applied_events(), 3);
    }

    #[test]
    fn edges_iterator_is_deterministic() {
        let mut g = EvolvingGraph::new();
        for id in [5, 3, 1] {
            add_v(&mut g, id);
        }
        add_e(&mut g, 5, 1);
        add_e(&mut g, 3, 5);
        add_e(&mut g, 3, 1);
        let edges: Vec<_> = g.edges().map(|(e, _)| e).collect();
        assert_eq!(
            edges,
            [
                EdgeId::from((3, 1)),
                EdgeId::from((3, 5)),
                EdgeId::from((5, 1)),
            ]
        );
    }

    #[test]
    fn snapshot_is_independent() {
        let mut g = EvolvingGraph::new();
        add_v(&mut g, 1);
        let snap = g.snapshot();
        add_v(&mut g, 2);
        assert_eq!(snap.vertex_count(), 1);
        assert_eq!(g.vertex_count(), 2);
    }
}

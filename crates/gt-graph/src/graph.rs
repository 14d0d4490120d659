//! The evolving property graph.
//!
//! Storage is split by what each access needs (DESIGN.md §12,
//! "`EvolvingGraph`: slab, hash index, ordered ids"):
//!
//! * vertex payloads — state, out- and in-adjacency, ~430 bytes — live in
//!   a dense **slab** (`Vec` of slots plus a free list), so a payload is
//!   never moved by a neighbour's insert and growth is one `realloc`;
//! * point lookups (`apply_with`, `has_edge`, `degree`, …) go through a
//!   **hash index** `VertexId → slot` behind [`gt_core::VertexHasher`];
//! * iteration goes through an **ordered index** of the live ids, touched
//!   only when a vertex is added or removed. `vertices()`,
//!   `vertices_with_state()` and `edges()` therefore run in ascending id
//!   order exactly as before, and every downstream computation and
//!   simulated experiment stays deterministic for a given event sequence.
//!
//! Per-vertex adjacency is a degree-adaptive [`HybridAdjacency`] (inline
//! sorted array for the small-degree common case, map for hubs) that
//! iterates ascending in both representations.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use gt_core::prelude::*;
use gt_core::VertexMap;

use crate::apply::{Applied, ApplyError, ApplyPolicy};
use crate::hybrid::HybridAdjacency;

#[derive(Debug, Clone, PartialEq, Default)]
struct VertexData {
    state: State,
    /// Outgoing adjacency with per-edge state.
    out: HybridAdjacency<State>,
    /// Incoming adjacency (reverse index for O(deg) vertex removal and
    /// in-degree queries).
    inc: HybridAdjacency<()>,
}

/// Position of a vertex payload in the slab.
type Slot = u32;

/// A directed, stateful graph that evolves by applying stream events.
///
/// Equality is structural: two graphs holding the same vertices, states,
/// edges and counters are equal whatever slab slots their histories left
/// the payloads in.
#[derive(Debug, Clone, Default)]
pub struct EvolvingGraph {
    /// Vertex payloads; `None` marks a slot on the free list.
    slab: Vec<Option<VertexData>>,
    /// Vacated slots, reused (last out first) before the slab grows.
    free: Vec<Slot>,
    /// Point lookups: one hash, no order.
    index: VertexMap<Slot>,
    /// The live ids in ascending order with their slots, so iteration
    /// neither sorts nor hashes. Written on vertex add/remove only.
    ordered: BTreeMap<VertexId, Slot>,
    edge_count: usize,
    /// Total graph events successfully applied (mutating or not).
    applied_events: u64,
}

impl PartialEq for EvolvingGraph {
    fn eq(&self, other: &Self) -> bool {
        self.edge_count == other.edge_count
            && self.applied_events == other.applied_events
            && self.ordered.len() == other.ordered.len()
            && self
                .ordered
                .iter()
                .zip(&other.ordered)
                .all(|((a, &sa), (b, &sb))| a == b && self.at(sa) == other.at(sb))
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

    /// The payload in a slot an index handed out.
    fn at(&self, slot: Slot) -> &VertexData {
        self.slab[slot as usize]
            .as_ref()
            .expect("an indexed slot is live")
    }

    fn at_mut(&mut self, slot: Slot) -> &mut VertexData {
        self.slab[slot as usize]
            .as_mut()
            .expect("an indexed slot is live")
    }

    /// Point lookup: one hash, then the slab.
    fn vertex(&self, id: VertexId) -> Option<&VertexData> {
        self.index.get(&id).map(|&slot| self.at(slot))
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.index.len()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Total graph events applied so far.
    pub fn applied_events(&self) -> u64 {
        self.applied_events
    }

    /// Whether the vertex exists.
    pub fn has_vertex(&self, id: VertexId) -> bool {
        self.index.contains_key(&id)
    }

    /// Whether the directed edge exists.
    pub fn has_edge(&self, id: EdgeId) -> bool {
        self.vertex(id.src).is_some_and(|v| v.out.contains(id.dst))
    }

    /// The state of a vertex, if it exists.
    pub fn vertex_state(&self, id: VertexId) -> Option<&State> {
        self.vertex(id).map(|v| &v.state)
    }

    /// The state of an edge, if it exists.
    pub fn edge_state(&self, id: EdgeId) -> Option<&State> {
        self.vertex(id.src).and_then(|v| v.out.get(id.dst))
    }

    /// Out-degree of a vertex (`None` if it does not exist).
    pub fn out_degree(&self, id: VertexId) -> Option<usize> {
        self.vertex(id).map(|v| v.out.len())
    }

    /// In-degree of a vertex (`None` if it does not exist).
    pub fn in_degree(&self, id: VertexId) -> Option<usize> {
        self.vertex(id).map(|v| v.inc.len())
    }

    /// Total degree (in + out), `None` if the vertex does not exist.
    pub fn degree(&self, id: VertexId) -> Option<usize> {
        self.vertex(id).map(|v| v.out.len() + v.inc.len())
    }

    /// Iterates over all vertex ids in ascending order.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.ordered.keys().copied()
    }

    /// Iterates over `(id, state)` for all vertices in ascending id order.
    pub fn vertices_with_state(&self) -> impl Iterator<Item = (VertexId, &State)> {
        self.ordered
            .iter()
            .map(|(id, &slot)| (*id, &self.at(slot).state))
    }

    /// Iterates over all directed edges `(edge, state)` in deterministic
    /// (src, dst) order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &State)> {
        self.ordered.iter().flat_map(|(src, &slot)| {
            self.at(slot)
                .out
                .iter()
                .map(move |(dst, s)| (EdgeId::new(*src, dst), s))
        })
    }

    /// Out-neighbors of a vertex in ascending order (empty if missing).
    pub fn out_neighbors(&self, id: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.vertex(id).into_iter().flat_map(|v| v.out.keys())
    }

    /// Out-neighbors with edge state.
    pub fn out_edges(&self, id: VertexId) -> impl Iterator<Item = (VertexId, &State)> {
        self.vertex(id).into_iter().flat_map(|v| v.out.iter())
    }

    /// In-neighbors of a vertex in ascending order (empty if missing).
    pub fn in_neighbors(&self, id: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.vertex(id).into_iter().flat_map(|v| v.inc.keys())
    }

    /// All neighbors, ignoring direction, deduplicated, ascending.
    pub fn undirected_neighbors(&self, id: VertexId) -> Vec<VertexId> {
        let Some(v) = self.vertex(id) else {
            return Vec::new();
        };
        let mut all: BTreeSet<VertexId> = v.out.keys().collect();
        all.extend(v.inc.keys());
        all.into_iter().collect()
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
        let violated = |error: ApplyError| {
            if lenient {
                Ok(Applied::noop())
            } else {
                Err(error)
            }
        };
        let outcome = match event {
            GraphEvent::AddVertex { id, state } => match self.index.entry(*id) {
                Entry::Occupied(_) => violated(ApplyError::VertexExists(*id))?,
                Entry::Vacant(entry) => {
                    let data = Some(VertexData {
                        state: state.clone(),
                        ..VertexData::default()
                    });
                    let slot = match self.free.pop() {
                        Some(slot) => {
                            self.slab[slot as usize] = data;
                            slot
                        }
                        None => {
                            let slot = Slot::try_from(self.slab.len())
                                .expect("fewer than 2^32 vertices were ever live at once");
                            self.slab.push(data);
                            slot
                        }
                    };
                    entry.insert(slot);
                    self.ordered.insert(*id, slot);
                    Applied::mutated()
                }
            },
            GraphEvent::RemoveVertex { id } => match self.index.remove(id) {
                Some(slot) => Applied {
                    mutated: true,
                    cascaded_edge_removals: self.remove_vertex_cascading(*id, slot),
                },
                None => violated(ApplyError::MissingVertex(*id))?,
            },
            GraphEvent::UpdateVertex { id, state } => match self.index.get(id) {
                Some(&slot) => {
                    self.at_mut(slot).state = state.clone();
                    Applied::mutated()
                }
                None => violated(ApplyError::MissingVertex(*id))?,
            },
            GraphEvent::AddEdge { id, state } => {
                if id.is_self_loop() {
                    return Err(ApplyError::SelfLoop(id.src));
                }
                match (self.index.get(&id.src), self.index.get(&id.dst)) {
                    // An edge dropped for a missing endpoint is the one
                    // lenient no-op that is not counted as applied.
                    (None, _) => return violated(ApplyError::MissingVertex(id.src)),
                    (_, None) => return violated(ApplyError::MissingVertex(id.dst)),
                    (Some(&src), Some(&dst)) => {
                        let out = &mut self.at_mut(src).out;
                        if out.insert_if_absent(id.dst, || state.clone()) {
                            self.at_mut(dst).inc.insert(id.src, ());
                            self.edge_count += 1;
                            Applied::mutated()
                        } else {
                            violated(ApplyError::EdgeExists(*id))?
                        }
                    }
                }
            }
            GraphEvent::RemoveEdge { id } => {
                let removed = match self.index.get(&id.src) {
                    Some(&src) => self.at_mut(src).out.remove(id.dst),
                    None => None,
                };
                match removed {
                    Some(_) => {
                        let dst = self.index[&id.dst];
                        self.at_mut(dst).inc.remove(id.src);
                        self.edge_count -= 1;
                        Applied::mutated()
                    }
                    None => violated(ApplyError::MissingEdge(*id))?,
                }
            }
            GraphEvent::UpdateEdge { id, state } => {
                let edge_state = match self.index.get(&id.src) {
                    Some(&src) => self.at_mut(src).out.get_mut(id.dst),
                    None => None,
                };
                match edge_state {
                    Some(edge_state) => {
                        *edge_state = state.clone();
                        Applied::mutated()
                    }
                    None => violated(ApplyError::MissingEdge(*id))?,
                }
            }
        };
        self.applied_events += 1;
        Ok(outcome)
    }

    /// Vacates the slot of a vertex already taken out of the hash index,
    /// together with all incident edges; returns how many edges went.
    fn remove_vertex_cascading(&mut self, id: VertexId, slot: Slot) -> usize {
        let data = self.slab[slot as usize]
            .take()
            .expect("an indexed slot is live");
        self.free.push(slot);
        self.ordered.remove(&id);
        for dst in data.out.keys() {
            let dst = self.index[&dst];
            self.at_mut(dst).inc.remove(id);
        }
        for src in data.inc.keys() {
            let src = self.index[&src];
            self.at_mut(src).out.remove(id);
        }
        let removed = data.out.len() + data.inc.len();
        self.edge_count -= removed;
        removed
    }

    /// A deep copy of the current graph (an "epoch snapshot" in
    /// Kineograph terms — §4.4.2).
    pub fn snapshot(&self) -> EvolvingGraph {
        self.clone()
    }

    /// Checks internal consistency: hash index, ordered index, slab and
    /// free list describe the same vertex set, the reverse index mirrors
    /// the forward adjacency and the edge count matches. Intended for
    /// tests and debugging; O(V + E).
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.ordered.len() != self.index.len() {
            return Err(format!(
                "ordered index holds {} ids, hash index {}",
                self.ordered.len(),
                self.index.len()
            ));
        }
        // Every slot is claimed exactly once — a live payload by one id, a
        // vacant slot by one free-list entry.
        let mut claims = vec![0usize; self.slab.len()];
        for &slot in self.ordered.values().chain(&self.free) {
            match claims.get_mut(slot as usize) {
                Some(count) => *count += 1,
                None => return Err(format!("slot {slot} is past the slab's end")),
            }
        }
        if let Some(slot) = claims.iter().position(|&count| count != 1) {
            let count = claims[slot];
            return Err(format!(
                "slot {slot} is claimed {count} times by the ids and the free list"
            ));
        }
        for (id, &slot) in &self.ordered {
            if self.index.get(id) != Some(&slot) {
                return Err(format!("vertex {id}: ordered and hash index disagree"));
            }
            if self.slab[slot as usize].is_none() {
                return Err(format!("vertex {id} is indexed at vacant slot {slot}"));
            }
        }
        for &slot in &self.free {
            if self.slab[slot as usize].is_some() {
                return Err(format!("free slot {slot} still holds a payload"));
            }
        }

        let mut forward = 0usize;
        for (src, &slot) in &self.ordered {
            let v = self.at(slot);
            for dst in v.out.keys() {
                forward += 1;
                let Some(d) = self.vertex(dst) else {
                    return Err(format!("edge {src}-{dst} points at missing vertex"));
                };
                if !d.inc.contains(*src) {
                    return Err(format!("edge {src}-{dst} missing from reverse index"));
                }
            }
            for src2 in v.inc.keys() {
                let Some(s) = self.vertex(src2) else {
                    return Err(format!("reverse edge {src2}->{src} from missing vertex"));
                };
                if !s.out.contains(*src) {
                    return Err(format!("reverse edge {src2}->{src} has no forward edge"));
                }
            }
        }
        if forward != self.edge_count {
            return Err(format!(
                "edge count {} does not match adjacency ({forward})",
                self.edge_count
            ));
        }
        Ok(())
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
        assert_eq!(g.vertex_state(VertexId(1)).unwrap().as_str(), "");
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
        assert_eq!(
            g.undirected_neighbors(VertexId(1)),
            [VertexId(2), VertexId(3), VertexId(4)]
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
        assert_eq!(g.vertex_state(VertexId(1)).unwrap().as_str(), "v1");
        assert_eq!(
            g.edge_state(EdgeId::from((1, 2))).unwrap().as_weight(),
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

//! Exact incremental triangle counting over the undirected projection.
//!
//! Unlike the converging computations, triangle count "always yields a
//! definite result" (§4.4.2) — but computed online it may be based on a
//! stale view. This implementation is exact with respect to the events it
//! has ingested: each undirected edge insertion adds the number of common
//! neighbors, each removal subtracts it.

use std::collections::{HashMap, HashSet};

use gt_core::prelude::*;

use crate::OnlineComputation;

/// Exact, incrementally maintained triangle count.
#[derive(Debug, Clone, Default)]
pub struct StreamingTriangles {
    /// Undirected neighborhoods.
    adj: HashMap<VertexId, HashSet<VertexId>>,
    /// The directed edges ingested so far (the projection's ground truth:
    /// an undirected pair exists iff at least one direction does).
    directed: HashSet<EdgeId>,
    triangles: u64,
}

impl StreamingTriangles {
    /// An empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current triangle count.
    pub fn count(&self) -> u64 {
        self.triangles
    }

    fn common_neighbors(&self, a: VertexId, b: VertexId) -> u64 {
        let (Some(na), Some(nb)) = (self.adj.get(&a), self.adj.get(&b)) else {
            return 0;
        };
        let (small, large) = if na.len() <= nb.len() {
            (na, nb)
        } else {
            (nb, na)
        };
        small.iter().filter(|v| large.contains(v)).count() as u64
    }

    fn add_directed(&mut self, e: EdgeId) {
        if e.is_self_loop()
            || !self.adj.contains_key(&e.src)
            || !self.adj.contains_key(&e.dst)
            || self.directed.contains(&e)
        {
            return;
        }
        self.directed.insert(e);
        if !self.directed.contains(&e.reversed()) {
            // New undirected edge: count triangles it closes.
            self.triangles += self.common_neighbors(e.src, e.dst);
            self.adj.get_mut(&e.src).expect("checked").insert(e.dst);
            self.adj.get_mut(&e.dst).expect("checked").insert(e.src);
        }
    }

    fn remove_directed(&mut self, e: EdgeId) {
        if !self.directed.remove(&e) {
            return; // lenient: edge was never ingested
        }
        if !self.directed.contains(&e.reversed()) {
            // Undirected edge disappears: subtract the triangles it closed.
            self.adj
                .get_mut(&e.src)
                .expect("edge existed")
                .remove(&e.dst);
            self.adj
                .get_mut(&e.dst)
                .expect("edge existed")
                .remove(&e.src);
            self.triangles -= self.common_neighbors(e.src, e.dst);
        }
    }
}

impl OnlineComputation for StreamingTriangles {
    type Result = u64;

    fn apply_event(&mut self, event: &GraphEvent) {
        match event {
            GraphEvent::AddVertex { id, .. } => {
                self.adj.entry(*id).or_default();
            }
            GraphEvent::RemoveVertex { id } => {
                let Some(neighbors) = self.adj.get(id) else {
                    return;
                };
                let neighbors: Vec<VertexId> = neighbors.iter().copied().collect();
                for n in neighbors {
                    // Remove the undirected pair and both directed edges.
                    self.directed.remove(&EdgeId::new(*id, n));
                    self.directed.remove(&EdgeId::new(n, *id));
                    self.adj.get_mut(id).expect("exists").remove(&n);
                    self.adj.get_mut(&n).expect("exists").remove(id);
                    self.triangles -= self.common_neighbors(*id, n);
                }
                self.adj.remove(id);
            }
            GraphEvent::AddEdge { id, .. } => self.add_directed(*id),
            GraphEvent::RemoveEdge { id } => self.remove_directed(*id),
            GraphEvent::UpdateVertex { .. } | GraphEvent::UpdateEdge { .. } => {}
        }
    }

    fn result(&self) -> u64 {
        self.triangles
    }

    fn name(&self) -> &'static str {
        "streaming-triangles"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triangles::triangle_count;
    use gt_graph::{ApplyPolicy, CsrSnapshot, EvolvingGraph};

    fn ev_add_v(id: u64) -> GraphEvent {
        GraphEvent::AddVertex {
            id: VertexId(id),
            state: State::empty(),
        }
    }

    fn ev_add_e(s: u64, d: u64) -> GraphEvent {
        GraphEvent::AddEdge {
            id: EdgeId::from((s, d)),
            state: State::empty(),
        }
    }

    fn check_against_batch(events: &[GraphEvent]) {
        let mut online = StreamingTriangles::new();
        let mut graph = EvolvingGraph::new();
        for e in events {
            online.apply_event(e);
            let _ = graph.apply_with(e, ApplyPolicy::Lenient);
        }
        let batch = triangle_count(&CsrSnapshot::from_graph(&graph));
        assert_eq!(online.count(), batch, "events: {events:?}");
    }

    #[test]
    fn single_triangle_incremental() {
        let mut events: Vec<GraphEvent> = (0..3).map(ev_add_v).collect();
        events.extend([ev_add_e(0, 1), ev_add_e(1, 2)]);
        let mut online = StreamingTriangles::new();
        for e in &events {
            online.apply_event(e);
        }
        assert_eq!(online.count(), 0);
        online.apply_event(&ev_add_e(2, 0));
        assert_eq!(online.count(), 1);
    }

    #[test]
    fn reciprocal_edges_counted_once() {
        let mut events: Vec<GraphEvent> = (0..3).map(ev_add_v).collect();
        events.extend([
            ev_add_e(0, 1),
            ev_add_e(1, 0),
            ev_add_e(1, 2),
            ev_add_e(2, 0),
        ]);
        check_against_batch(&events);
    }

    #[test]
    fn removing_one_direction_keeps_triangle() {
        let mut online = StreamingTriangles::new();
        for e in (0..3).map(ev_add_v) {
            online.apply_event(&e);
        }
        for e in [
            ev_add_e(0, 1),
            ev_add_e(1, 0),
            ev_add_e(1, 2),
            ev_add_e(2, 0),
        ] {
            online.apply_event(&e);
        }
        assert_eq!(online.count(), 1);
        online.apply_event(&GraphEvent::RemoveEdge {
            id: EdgeId::from((0, 1)),
        });
        // 1 -> 0 still exists, so the undirected triangle survives.
        assert_eq!(online.count(), 1);
        online.apply_event(&GraphEvent::RemoveEdge {
            id: EdgeId::from((1, 0)),
        });
        assert_eq!(online.count(), 0);
    }

    #[test]
    fn vertex_removal_destroys_incident_triangles() {
        let mut events: Vec<GraphEvent> = (0..4).map(ev_add_v).collect();
        // Two triangles sharing edge 1-2: (0,1,2) and (1,2,3).
        events.extend([
            ev_add_e(0, 1),
            ev_add_e(1, 2),
            ev_add_e(2, 0),
            ev_add_e(1, 3),
            ev_add_e(3, 2),
        ]);
        let mut online = StreamingTriangles::new();
        for e in &events {
            online.apply_event(e);
        }
        assert_eq!(online.count(), 2);
        online.apply_event(&GraphEvent::RemoveVertex { id: VertexId(0) });
        assert_eq!(online.count(), 1);
        online.apply_event(&GraphEvent::RemoveVertex { id: VertexId(1) });
        assert_eq!(online.count(), 0);
        events.push(GraphEvent::RemoveVertex { id: VertexId(0) });
        events.push(GraphEvent::RemoveVertex { id: VertexId(1) });
        check_against_batch(&events);
    }

    #[test]
    fn hostile_events_are_ignored() {
        let events = vec![
            ev_add_e(0, 1),
            GraphEvent::RemoveEdge {
                id: EdgeId::from((3, 4)),
            },
            GraphEvent::RemoveVertex { id: VertexId(9) },
            ev_add_v(0),
            ev_add_e(0, 0),
        ];
        check_against_batch(&events);
    }

    #[test]
    fn matches_batch_on_dense_graph() {
        let mut events: Vec<GraphEvent> = (0..8).map(ev_add_v).collect();
        for s in 0..8u64 {
            for d in 0..8u64 {
                if s != d && (s + d) % 3 != 0 {
                    events.push(ev_add_e(s, d));
                }
            }
        }
        check_against_batch(&events);
    }
}

//! Incremental weakly connected components.
//!
//! Additions are handled exactly and in near-constant time via union–find.
//! Removals cannot be expressed in a union–find, so the computation keeps
//! its own adjacency and marks the result *stale*; the next [`refresh`]
//! (or any query through [`component_count`]) rebuilds from the stored
//! adjacency. This is the classic online trade-off: cheap and exact while
//! the graph only grows, periodic catch-up cost under churn.
//!
//! [`refresh`]: IncrementalWcc::refresh
//! [`component_count`]: IncrementalWcc::component_count

use std::collections::{BTreeMap, BTreeSet};

use gt_core::prelude::*;

use crate::components::UnionFind;
use crate::OnlineComputation;

/// Incrementally maintained weakly connected components.
#[derive(Debug, Clone, Default)]
pub struct IncrementalWcc {
    /// Undirected adjacency (the ground truth this structure can always
    /// rebuild from).
    adj: BTreeMap<VertexId, BTreeSet<VertexId>>,
    /// The directed edges ingested so far; an undirected pair exists iff at
    /// least one direction does.
    directed: BTreeSet<EdgeId>,
    /// Union–find over dense slots.
    uf: UnionFind,
    /// VertexId -> dense slot.
    slots: BTreeMap<VertexId, u32>,
    /// Slots of removed vertices are abandoned; they would distort the
    /// component count, so we track how many live in the forest.
    abandoned: usize,
    stale: bool,
    rebuilds: u64,
}

impl IncrementalWcc {
    /// An empty computation.
    pub fn new() -> Self {
        IncrementalWcc {
            uf: UnionFind::new(0),
            ..Default::default()
        }
    }

    /// The current component count, rebuilding first if stale.
    pub fn component_count(&mut self) -> usize {
        if self.stale {
            self.refresh();
        }
        self.uf.component_count().saturating_sub(self.abandoned)
    }

    /// The component count without rebuilding (may be inaccurate after
    /// removals — this is the "fast, possibly stale" query). Saturating:
    /// removing several vertices of one merged component can push the
    /// abandoned-slot correction past the forest's count.
    pub(crate) fn component_count_stale(&self) -> usize {
        self.uf.component_count().saturating_sub(self.abandoned)
    }

    /// Whether two vertices are weakly connected, rebuilding if stale.
    /// `None` if either vertex is unknown.
    pub fn connected(&mut self, a: VertexId, b: VertexId) -> Option<bool> {
        if self.stale {
            self.refresh();
        }
        let (sa, sb) = (*self.slots.get(&a)?, *self.slots.get(&b)?);
        Some(self.uf.find(sa) == self.uf.find(sb))
    }

    /// Rebuilds the union–find from the stored adjacency.
    pub(crate) fn refresh(&mut self) {
        self.slots.clear();
        self.uf = UnionFind::new(self.adj.len());
        for (i, v) in self.adj.keys().enumerate() {
            self.slots.insert(*v, i as u32);
        }
        for (v, neighbors) in &self.adj {
            let sv = self.slots[v];
            for n in neighbors {
                self.uf.union(sv, self.slots[n]);
            }
        }
        self.abandoned = 0;
        self.stale = false;
        self.rebuilds += 1;
    }
}

impl OnlineComputation for IncrementalWcc {
    /// `(component_count, is_exact)`: the stale-tolerant fast result.
    type Result = (usize, bool);

    fn apply_event(&mut self, event: &GraphEvent) {
        match event {
            GraphEvent::AddVertex { id, .. } => {
                if !self.adj.contains_key(id) {
                    self.adj.insert(*id, BTreeSet::new());
                    let slot = self.uf.push();
                    self.slots.insert(*id, slot);
                }
            }
            GraphEvent::RemoveVertex { id } => {
                let Some(neighbors) = self.adj.remove(id) else {
                    return;
                };
                for n in &neighbors {
                    self.adj.get_mut(n).expect("symmetric adjacency").remove(id);
                    self.directed.remove(&EdgeId::new(*id, *n));
                    self.directed.remove(&EdgeId::new(*n, *id));
                }
                self.slots.remove(id);
                self.abandoned += 1;
                if !neighbors.is_empty() {
                    self.stale = true;
                }
            }
            GraphEvent::AddEdge { id, .. } => {
                if id.is_self_loop()
                    || !self.adj.contains_key(&id.src)
                    || !self.adj.contains_key(&id.dst)
                    || self.directed.contains(id)
                {
                    return;
                }
                self.directed.insert(*id);
                if !self.directed.contains(&id.reversed()) {
                    self.adj.get_mut(&id.src).expect("checked").insert(id.dst);
                    self.adj.get_mut(&id.dst).expect("checked").insert(id.src);
                    if !self.stale {
                        let (sa, sb) = (self.slots[&id.src], self.slots[&id.dst]);
                        self.uf.union(sa, sb);
                    }
                }
            }
            GraphEvent::RemoveEdge { id } => {
                if !self.directed.remove(id) {
                    return; // lenient: edge was never ingested
                }
                if !self.directed.contains(&id.reversed()) {
                    self.adj
                        .get_mut(&id.src)
                        .expect("edge existed")
                        .remove(&id.dst);
                    self.adj
                        .get_mut(&id.dst)
                        .expect("edge existed")
                        .remove(&id.src);
                    self.stale = true;
                }
            }
            GraphEvent::UpdateVertex { .. } | GraphEvent::UpdateEdge { .. } => {}
        }
    }

    fn result(&self) -> (usize, bool) {
        (self.component_count_stale(), !self.stale)
    }

    fn name(&self) -> &'static str {
        "incremental-wcc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::weakly_connected_components;
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
        let mut online = IncrementalWcc::new();
        let mut graph = EvolvingGraph::new();
        for e in events {
            online.apply_event(e);
            let _ = graph.apply_with(e, ApplyPolicy::Lenient);
        }
        let batch = weakly_connected_components(&CsrSnapshot::from_graph(&graph));
        assert_eq!(online.component_count(), batch.count, "events: {events:?}");
    }

    #[test]
    fn additions_stay_exact_without_rebuilds() {
        let mut online = IncrementalWcc::new();
        for e in (0..6).map(ev_add_v) {
            online.apply_event(&e);
        }
        assert_eq!(online.component_count(), 6);
        online.apply_event(&ev_add_e(0, 1));
        online.apply_event(&ev_add_e(2, 3));
        assert_eq!(online.component_count(), 4);
        online.apply_event(&ev_add_e(1, 2));
        assert_eq!(online.component_count(), 3);
        assert!(!online.stale);
        assert_eq!(online.rebuilds, 0);
        assert_eq!(online.connected(VertexId(0), VertexId(3)), Some(true));
        assert_eq!(online.connected(VertexId(0), VertexId(5)), Some(false));
    }

    #[test]
    fn edge_removal_marks_stale_and_rebuild_corrects() {
        let mut online = IncrementalWcc::new();
        for e in (0..3).map(ev_add_v) {
            online.apply_event(&e);
        }
        online.apply_event(&ev_add_e(0, 1));
        online.apply_event(&ev_add_e(1, 2));
        assert_eq!(online.component_count(), 1);
        online.apply_event(&GraphEvent::RemoveEdge {
            id: EdgeId::from((0, 1)),
        });
        assert!(online.stale);
        // Stale fast-path still reports the old merge.
        assert_eq!(online.result(), (1, false));
        // Exact query rebuilds.
        assert_eq!(online.component_count(), 2);
        assert_eq!(online.rebuilds, 1);
        assert!(!online.stale);
    }

    #[test]
    fn vertex_removal() {
        let events: Vec<GraphEvent> = (0..4)
            .map(ev_add_v)
            .chain([ev_add_e(0, 1), ev_add_e(1, 2), ev_add_e(2, 3)])
            .chain([GraphEvent::RemoveVertex { id: VertexId(1) }])
            .collect();
        check_against_batch(&events);
    }

    #[test]
    fn isolated_vertex_removal_does_not_stale() {
        let mut online = IncrementalWcc::new();
        for e in (0..3).map(ev_add_v) {
            online.apply_event(&e);
        }
        online.apply_event(&GraphEvent::RemoveVertex { id: VertexId(2) });
        assert!(!online.stale);
        assert_eq!(online.component_count(), 2);
    }

    #[test]
    fn reciprocal_edge_removal_only_stales_when_projection_changes() {
        let mut online = IncrementalWcc::new();
        for e in (0..2).map(ev_add_v) {
            online.apply_event(&e);
        }
        online.apply_event(&ev_add_e(0, 1));
        online.apply_event(&ev_add_e(1, 0));
        online.apply_event(&GraphEvent::RemoveEdge {
            id: EdgeId::from((0, 1)),
        });
        // 1 -> 0 remains; the undirected pair survives.
        assert!(!online.stale);
        assert_eq!(online.component_count(), 1);
    }

    #[test]
    fn hostile_events_ignored() {
        let events = vec![
            ev_add_e(0, 1),
            GraphEvent::RemoveVertex { id: VertexId(5) },
            GraphEvent::RemoveEdge {
                id: EdgeId::from((1, 2)),
            },
            ev_add_v(0),
            ev_add_v(0),
        ];
        check_against_batch(&events);
    }

    #[test]
    fn long_mixed_sequence_matches_batch() {
        let mut events: Vec<GraphEvent> = (0..20).map(ev_add_v).collect();
        for i in 0..19u64 {
            events.push(ev_add_e(i, i + 1));
        }
        events.push(GraphEvent::RemoveEdge {
            id: EdgeId::from((5, 6)),
        });
        events.push(GraphEvent::RemoveVertex { id: VertexId(10) });
        events.push(ev_add_e(0, 19));
        check_against_batch(&events);
    }
}

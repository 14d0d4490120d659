//! Spanning tree / forest construction (Table 1, "Routing & traversals").
//!
//! Provides a minimum spanning forest on the undirected projection
//! (Kruskal over union–find).

use crate::components::UnionFind;
use gt_graph::CsrSnapshot;

/// An edge of the spanning forest, as dense indices with its weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestEdge {
    /// One endpoint.
    pub a: u32,
    /// The other endpoint.
    pub b: u32,
    /// The weight used for selection.
    pub weight: f64,
}

/// The minimum spanning forest of the undirected projection.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanningForest {
    /// Selected edges; `vertex_count - component_count` of them.
    pub edges: Vec<ForestEdge>,
    /// Total weight of the forest.
    pub total_weight: f64,
    /// Number of connected components spanned.
    pub components: usize,
}

/// Kruskal's algorithm on the undirected projection. Where both directions
/// of an edge exist with different weights, the lighter one wins.
pub fn minimum_spanning_forest(csr: &CsrSnapshot) -> SpanningForest {
    let n = csr.vertex_count();
    // Collect undirected edges with minimal weight per unordered pair.
    use std::collections::HashMap;
    let mut best: HashMap<(u32, u32), f64> = HashMap::new();
    for u in csr.indices() {
        for (&v, &w) in csr.out_neighbors(u).iter().zip(csr.out_weights(u)) {
            if u == v {
                continue;
            }
            let key = (u.min(v), u.max(v));
            best.entry(key)
                .and_modify(|cur| {
                    if w < *cur {
                        *cur = w;
                    }
                })
                .or_insert(w);
        }
    }
    let mut candidates: Vec<ForestEdge> = best
        .into_iter()
        .map(|((a, b), weight)| ForestEdge { a, b, weight })
        .collect();
    candidates.sort_by(|x, y| {
        x.weight
            .partial_cmp(&y.weight)
            .expect("weights are finite")
            .then(x.a.cmp(&y.a))
            .then(x.b.cmp(&y.b))
    });

    let mut uf = UnionFind::new(n);
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    let mut total_weight = 0.0;
    for e in candidates {
        if uf.union(e.a, e.b) {
            total_weight += e.weight;
            edges.push(e);
        }
    }
    SpanningForest {
        edges,
        total_weight,
        components: uf.component_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_core::prelude::*;
    use gt_graph::{builders, EvolvingGraph};

    fn weighted(edges: &[(u64, u64, f64)], n: u64) -> CsrSnapshot {
        let mut g = EvolvingGraph::new();
        for id in 0..n {
            g.apply(&GraphEvent::AddVertex {
                id: VertexId(id),
                state: State::empty(),
            })
            .unwrap();
        }
        for &(s, d, w) in edges {
            g.apply(&GraphEvent::AddEdge {
                id: EdgeId::from((s, d)),
                state: State::weight(w),
            })
            .unwrap();
        }
        CsrSnapshot::from_graph(&g)
    }

    #[test]
    fn mst_of_weighted_square() {
        // Square 0-1-2-3 with one heavy diagonal; MST picks the 3 lightest.
        let csr = weighted(
            &[
                (0, 1, 1.0),
                (1, 2, 2.0),
                (2, 3, 3.0),
                (3, 0, 4.0),
                (0, 2, 10.0),
            ],
            4,
        );
        let forest = minimum_spanning_forest(&csr);
        assert_eq!(forest.edges.len(), 3);
        assert_eq!(forest.total_weight, 6.0);
        assert_eq!(forest.components, 1);
    }

    #[test]
    fn forest_spans_each_component() {
        let csr = weighted(&[(0, 1, 1.0), (2, 3, 1.0)], 5);
        let forest = minimum_spanning_forest(&csr);
        assert_eq!(forest.edges.len(), 2);
        // Components: {0,1}, {2,3}, {4}.
        assert_eq!(forest.components, 3);
    }

    #[test]
    fn parallel_directions_use_lighter_weight() {
        let csr = weighted(&[(0, 1, 5.0), (1, 0, 1.0)], 2);
        let forest = minimum_spanning_forest(&csr);
        assert_eq!(forest.edges.len(), 1);
        assert_eq!(forest.total_weight, 1.0);
    }

    #[test]
    fn tree_has_no_cycles_by_construction() {
        let csr = CsrSnapshot::from_graph(&builders::materialize(&builders::complete(8)));
        let forest = minimum_spanning_forest(&csr);
        assert_eq!(forest.edges.len(), 7);
        // All weights default to 1.0.
        assert_eq!(forest.total_weight, 7.0);
    }

    #[test]
    fn empty_graph() {
        let forest = minimum_spanning_forest(&CsrSnapshot::from_graph(&EvolvingGraph::new()));
        assert!(forest.edges.is_empty());
        assert_eq!(forest.components, 0);
    }
}

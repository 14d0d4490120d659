//! Triangle counting (Table 1, "Graph theory").
//!
//! Triangles are counted on the *undirected projection* of the graph
//! (an edge in either direction connects two vertices), the standard
//! convention for social-graph clustering metrics.

use gt_graph::CsrSnapshot;

use crate::traversal::undirected_adjacency;

/// Counts triangles on the undirected projection.
///
/// Uses the degree-ordered neighbor-intersection method: each triangle is
/// counted exactly once at its lowest-(degree, index) corner.
pub fn triangle_count(csr: &CsrSnapshot) -> u64 {
    let n = csr.vertex_count();
    if n < 3 {
        return 0;
    }

    let adj = undirected_adjacency(csr);

    // Rank by (degree, index): orient each undirected edge from lower to
    // higher rank and intersect forward neighborhoods.
    let rank = |v: u32| (adj[v as usize].len(), v);
    let mut forward: Vec<Vec<u32>> = vec![Vec::new(); n];
    for u in 0..n as u32 {
        for &v in &adj[u as usize] {
            if rank(u) < rank(v) {
                forward[u as usize].push(v);
            }
        }
    }

    let mut count = 0u64;
    let mut marker: Vec<u64> = vec![0; n];
    let mut stamp = 0u64;
    for u in 0..n as u32 {
        stamp += 1;
        for &v in &forward[u as usize] {
            marker[v as usize] = stamp;
        }
        for &v in &forward[u as usize] {
            for &w in &forward[v as usize] {
                if marker[w as usize] == stamp {
                    count += 1;
                }
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_core::prelude::*;
    use gt_graph::{builders, EvolvingGraph};

    fn graph_of(edges: &[(u64, u64)], n: u64) -> CsrSnapshot {
        let mut g = EvolvingGraph::new();
        for id in 0..n {
            g.apply(&GraphEvent::AddVertex {
                id: VertexId(id),
                state: State::empty(),
            })
            .unwrap();
        }
        for &(s, d) in edges {
            g.apply(&GraphEvent::AddEdge {
                id: EdgeId::from((s, d)),
                state: State::empty(),
            })
            .unwrap();
        }
        CsrSnapshot::from_graph(&g)
    }

    #[test]
    fn single_triangle() {
        let csr = graph_of(&[(0, 1), (1, 2), (2, 0)], 3);
        assert_eq!(triangle_count(&csr), 1);
    }

    #[test]
    fn direction_and_reciprocals_do_not_double_count() {
        // Both directions of each edge present: still one triangle.
        let csr = graph_of(&[(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)], 3);
        assert_eq!(triangle_count(&csr), 1);
    }

    #[test]
    fn path_has_no_triangles() {
        let csr = CsrSnapshot::from_graph(&builders::materialize(&builders::path(10)));
        assert_eq!(triangle_count(&csr), 0);
    }

    #[test]
    fn complete_graph_count() {
        // K5 has C(5,3) = 10 triangles.
        let csr = CsrSnapshot::from_graph(&builders::materialize(&builders::complete(5)));
        assert_eq!(triangle_count(&csr), 10);
    }

    #[test]
    fn two_triangles_sharing_an_edge() {
        let csr = graph_of(&[(0, 1), (1, 2), (2, 0), (1, 3), (3, 2)], 4);
        assert_eq!(triangle_count(&csr), 2);
    }

    #[test]
    fn small_graphs() {
        assert_eq!(triangle_count(&graph_of(&[], 0)), 0);
        assert_eq!(triangle_count(&graph_of(&[], 2)), 0);
        assert_eq!(triangle_count(&graph_of(&[(0, 1)], 2)), 0);
    }
}

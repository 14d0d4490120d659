//! Greedy vertex coloring (Table 1, "Graph theory") on the undirected
//! projection.

use gt_graph::CsrSnapshot;

use crate::traversal::undirected_adjacency;

/// The coloring produced by [`greedy_coloring`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coloring {
    /// Color per dense vertex index (0-based).
    pub colors: Vec<u32>,
    /// Number of distinct colors used.
    pub color_count: u32,
}

impl Coloring {
    /// Verifies that no undirected edge connects same-colored endpoints.
    pub fn is_proper(&self, csr: &CsrSnapshot) -> bool {
        csr.indices().all(|u| {
            csr.out_neighbors(u)
                .iter()
                .all(|&v| u == v || self.colors[u as usize] != self.colors[v as usize])
        })
    }
}

/// Greedy coloring in largest-degree-first order — the classic Welsh–Powell
/// heuristic, which uses at most `max_degree + 1` colors.
pub fn greedy_coloring(csr: &CsrSnapshot) -> Coloring {
    let n = csr.vertex_count();
    let adj = undirected_adjacency(csr);

    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(adj[v as usize].len()), v));

    const UNCOLORED: u32 = u32::MAX;
    let mut colors = vec![UNCOLORED; n];
    let mut used = Vec::new();
    let mut max_color = 0u32;
    for &v in &order {
        used.clear();
        for &w in &adj[v as usize] {
            let c = colors[w as usize];
            if c != UNCOLORED {
                used.push(c);
            }
        }
        used.sort_unstable();
        used.dedup();
        let mut color = 0u32;
        for &c in &used {
            if c == color {
                color += 1;
            } else if c > color {
                break;
            }
        }
        colors[v as usize] = color;
        max_color = max_color.max(color);
    }

    Coloring {
        color_count: if n == 0 { 0 } else { max_color + 1 },
        colors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_graph::builders;

    fn csr_of(stream: &gt_core::GraphStream) -> CsrSnapshot {
        CsrSnapshot::from_graph(&builders::materialize(stream))
    }

    #[test]
    fn path_is_two_colorable() {
        let csr = csr_of(&builders::path(10));
        let coloring = greedy_coloring(&csr);
        assert!(coloring.is_proper(&csr));
        assert_eq!(coloring.color_count, 2);
    }

    #[test]
    fn complete_graph_needs_n_colors() {
        let csr = csr_of(&builders::complete(6));
        let coloring = greedy_coloring(&csr);
        assert!(coloring.is_proper(&csr));
        assert_eq!(coloring.color_count, 6);
    }

    #[test]
    fn star_is_two_colorable() {
        let csr = csr_of(&builders::star(20));
        let coloring = greedy_coloring(&csr);
        assert!(coloring.is_proper(&csr));
        assert_eq!(coloring.color_count, 2);
    }

    #[test]
    fn odd_ring_needs_three() {
        let csr = csr_of(&builders::ring(5));
        let coloring = greedy_coloring(&csr);
        assert!(coloring.is_proper(&csr));
        assert!(coloring.color_count >= 3);
    }

    #[test]
    fn bound_respected_on_random_graph() {
        let csr = csr_of(
            &builders::ErdosRenyi {
                n: 100,
                p: 0.05,
                seed: 5,
            }
            .generate(),
        );
        let coloring = greedy_coloring(&csr);
        assert!(coloring.is_proper(&csr));
        let max_deg = csr
            .indices()
            .map(|u| csr.out_degree(u) + csr.in_degree(u))
            .max()
            .unwrap_or(0) as u32;
        assert!(coloring.color_count <= max_deg + 1);
    }

    #[test]
    fn empty_graph() {
        let csr = CsrSnapshot::from_graph(&gt_graph::EvolvingGraph::new());
        let coloring = greedy_coloring(&csr);
        assert_eq!(coloring.color_count, 0);
        assert!(coloring.colors.is_empty());
    }
}

//! Weighted single-source shortest paths: Bellman–Ford (Table 1,
//! "Routing & traversals"). Edge weights come from edge state payloads
//! (non-numeric payloads default to weight 1.0 — see
//! [`gt_graph::CsrSnapshot`]).

use gt_graph::CsrSnapshot;

/// Result of a single-source shortest path computation.
#[derive(Debug, Clone, PartialEq)]
pub struct ShortestPaths {
    /// Distance per dense vertex index; `f64::INFINITY` if unreachable.
    pub dist: Vec<f64>,
    /// Predecessor per dense vertex index on a shortest path.
    pub pred: Vec<Option<u32>>,
}

impl ShortestPaths {
    /// Reconstructs the path `source -> ... -> target` as dense indices, or
    /// `None` if unreachable.
    pub fn path_to(&self, target: u32) -> Option<Vec<u32>> {
        if !self.dist[target as usize].is_finite() {
            return None;
        }
        let mut path = vec![target];
        let mut cur = target;
        while let Some(p) = self.pred[cur as usize] {
            path.push(p);
            cur = p;
            if path.len() > self.dist.len() {
                // Defensive: a predecessor cycle would mean a negative
                // cycle slipped through.
                return None;
            }
        }
        path.reverse();
        Some(path)
    }
}

/// Bellman–Ford from `source`. Returns `Err(())`-like `None` if a negative
/// cycle is reachable from the source.
pub fn bellman_ford(csr: &CsrSnapshot, source: u32) -> Option<ShortestPaths> {
    let n = csr.vertex_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut pred: Vec<Option<u32>> = vec![None; n];
    if (source as usize) >= n {
        return Some(ShortestPaths { dist, pred });
    }
    dist[source as usize] = 0.0;

    for _ in 0..n.saturating_sub(1) {
        let mut changed = false;
        for u in csr.indices() {
            let du = dist[u as usize];
            if !du.is_finite() {
                continue;
            }
            for (&v, &w) in csr.out_neighbors(u).iter().zip(csr.out_weights(u)) {
                if du + w < dist[v as usize] {
                    dist[v as usize] = du + w;
                    pred[v as usize] = Some(u);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // One more pass: any improvement means a reachable negative cycle.
    for u in csr.indices() {
        let du = dist[u as usize];
        if !du.is_finite() {
            continue;
        }
        for (&v, &w) in csr.out_neighbors(u).iter().zip(csr.out_weights(u)) {
            if du + w < dist[v as usize] - 1e-12 {
                return None;
            }
        }
    }

    Some(ShortestPaths { dist, pred })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_core::prelude::*;
    use gt_graph::EvolvingGraph;

    fn weighted_graph(edges: &[(u64, u64, f64)]) -> CsrSnapshot {
        let mut g = EvolvingGraph::new();
        let mut vertices: Vec<u64> = edges.iter().flat_map(|&(s, d, _)| [s, d]).collect();
        vertices.sort_unstable();
        vertices.dedup();
        for v in vertices {
            g.apply(&GraphEvent::AddVertex {
                id: VertexId(v),
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
    fn bellman_ford_simple() {
        // 0 -> 1 (4), 0 -> 2 (1), 2 -> 1 (2): best 0->1 is via 2, cost 3.
        let csr = weighted_graph(&[(0, 1, 4.0), (0, 2, 1.0), (2, 1, 2.0)]);
        let sp = bellman_ford(&csr, 0).unwrap();
        assert_eq!(sp.dist, [0.0, 3.0, 1.0]);
        assert_eq!(sp.path_to(1), Some(vec![0, 2, 1]));
    }

    #[test]
    fn bellman_ford_handles_negative_edges() {
        let csr = weighted_graph(&[(0, 1, 5.0), (0, 2, 2.0), (2, 1, -4.0)]);
        let sp = bellman_ford(&csr, 0).unwrap();
        assert_eq!(sp.dist[1], -2.0);
    }

    #[test]
    fn bellman_ford_detects_negative_cycle() {
        let csr = weighted_graph(&[(0, 1, 1.0), (1, 2, -3.0), (2, 1, 1.0)]);
        assert!(bellman_ford(&csr, 0).is_none());
    }

    #[test]
    fn bellman_ford_unreachable() {
        let csr = weighted_graph(&[(0, 1, 1.0), (2, 3, 1.0)]);
        let sp = bellman_ford(&csr, 0).unwrap();
        assert!(sp.dist[2].is_infinite());
        assert_eq!(sp.path_to(3), None);
    }

    #[test]
    fn bellman_ford_from_every_source() {
        let csr = weighted_graph(&[
            (0, 1, 3.0),
            (0, 2, 8.0),
            (1, 3, 1.0),
            (3, 2, 2.0),
            (2, 0, 4.0),
            (1, 2, 4.0),
        ]);
        let want = [
            [0.0, 3.0, 6.0, 4.0],
            [7.0, 0.0, 3.0, 1.0],
            [4.0, 7.0, 0.0, 8.0],
            [6.0, 9.0, 2.0, 0.0],
        ];
        for src in csr.indices() {
            assert_eq!(bellman_ford(&csr, src).unwrap().dist, want[src as usize]);
        }
    }

    #[test]
    fn unweighted_edges_default_to_one() {
        let csr = CsrSnapshot::from_graph(&gt_graph::builders::materialize(
            &gt_graph::builders::path(4),
        ));
        let sp = bellman_ford(&csr, 0).unwrap();
        assert_eq!(sp.dist, [0.0, 1.0, 2.0, 3.0]);
    }
}

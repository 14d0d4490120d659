//! Centrality measures (§3.2 lists centrality among the structural graph
//! properties an evolving graph's stream changes over time).
//!
//! * [`betweenness_centrality`] — Brandes' algorithm over unweighted
//!   shortest paths; exact, O(V·E).
//! * [`approx_betweenness`] — the same accumulation from a deterministic
//!   subset of pivots; the estimator used when the computation must fit a
//!   streaming cadence (scale by `n / pivots` to compare with exact).

use std::collections::VecDeque;

use gt_graph::CsrSnapshot;

/// Exact betweenness centrality over out-edge shortest paths.
pub fn betweenness_centrality(csr: &CsrSnapshot) -> Vec<f64> {
    let n = csr.vertex_count();
    let mut centrality = vec![0.0; n];
    for s in 0..n as u32 {
        accumulate_from(csr, s, &mut centrality);
    }
    centrality
}

/// Pivot-sampled betweenness: accumulates from `pivots` evenly spaced
/// sources. Multiply by `n / pivots` for an unbiased magnitude estimate.
pub fn approx_betweenness(csr: &CsrSnapshot, pivots: usize) -> Vec<f64> {
    let n = csr.vertex_count();
    let mut centrality = vec![0.0; n];
    if n == 0 || pivots == 0 {
        return centrality;
    }
    let stride = (n / pivots.min(n)).max(1);
    for s in (0..n).step_by(stride) {
        accumulate_from(csr, s as u32, &mut centrality);
    }
    centrality
}

/// One Brandes source iteration: BFS + dependency accumulation.
fn accumulate_from(csr: &CsrSnapshot, s: u32, centrality: &mut [f64]) {
    let n = csr.vertex_count();
    let mut sigma = vec![0.0f64; n]; // shortest-path counts
    let mut dist = vec![i64::MAX; n];
    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut queue = VecDeque::new();

    sigma[s as usize] = 1.0;
    dist[s as usize] = 0;
    queue.push_back(s);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for &w in csr.out_neighbors(v) {
            if dist[w as usize] == i64::MAX {
                dist[w as usize] = dist[v as usize] + 1;
                queue.push_back(w);
            }
            if dist[w as usize] == dist[v as usize] + 1 {
                sigma[w as usize] += sigma[v as usize];
                preds[w as usize].push(v);
            }
        }
    }

    let mut delta = vec![0.0f64; n];
    for &w in order.iter().rev() {
        for &v in &preds[w as usize] {
            delta[v as usize] += sigma[v as usize] / sigma[w as usize] * (1.0 + delta[w as usize]);
        }
        if w != s {
            centrality[w as usize] += delta[w as usize];
        }
    }
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
    fn path_betweenness() {
        // Directed path 0 -> 1 -> 2 -> 3 -> 4: middle vertices carry the
        // through-traffic. For vertex k on an n-path: k * (n-1-k).
        let csr = CsrSnapshot::from_graph(&builders::materialize(&builders::path(5)));
        let bc = betweenness_centrality(&csr);
        assert_eq!(bc, [0.0, 3.0, 4.0, 3.0, 0.0]);
    }

    #[test]
    fn star_center_dominates() {
        // Bidirectional star so paths between spokes exist via the center.
        let mut edges = Vec::new();
        for i in 1..8u64 {
            edges.push((0, i));
            edges.push((i, 0));
        }
        let csr = graph_of(&edges, 8);
        let bc = betweenness_centrality(&csr);
        let center = csr.index_of(VertexId(0)).unwrap() as usize;
        // Center sits on all 7*6 = 42 spoke-to-spoke shortest paths.
        assert_eq!(bc[center], 42.0);
        for (i, &v) in bc.iter().enumerate() {
            if i != center {
                assert_eq!(v, 0.0, "spoke {i}");
            }
        }
    }

    #[test]
    fn parallel_paths_split_credit() {
        // Diamond: 0 -> {1, 2} -> 3: each middle vertex carries half of
        // the single 0->3 pair.
        let csr = graph_of(&[(0, 1), (0, 2), (1, 3), (2, 3)], 4);
        let bc = betweenness_centrality(&csr);
        let i = |v: u64| csr.index_of(VertexId(v)).unwrap() as usize;
        assert_eq!(bc[i(1)], 0.5);
        assert_eq!(bc[i(2)], 0.5);
        assert_eq!(bc[i(0)], 0.0);
        assert_eq!(bc[i(3)], 0.0);
    }

    #[test]
    fn approx_with_all_pivots_is_exact() {
        let csr = CsrSnapshot::from_graph(&builders::materialize(
            &builders::ErdosRenyi {
                n: 60,
                p: 0.08,
                seed: 4,
            }
            .generate(),
        ));
        let exact = betweenness_centrality(&csr);
        let approx = approx_betweenness(&csr, 60);
        for (e, a) in exact.iter().zip(&approx) {
            assert!((e - a).abs() < 1e-9);
        }
    }

    #[test]
    fn approx_ranks_correlate_with_exact() {
        let csr = CsrSnapshot::from_graph(&builders::materialize(
            &builders::BarabasiAlbert {
                n: 150,
                m0: 6,
                m: 3,
                seed: 2,
            }
            .generate(),
        ));
        let exact = betweenness_centrality(&csr);
        let approx = approx_betweenness(&csr, 30);
        // The top-exact vertex should be near the top of the approximation.
        let top_exact = exact
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let mut order: Vec<usize> = (0..approx.len()).collect();
        order.sort_by(|&a, &b| approx[b].partial_cmp(&approx[a]).unwrap());
        let rank = order.iter().position(|&v| v == top_exact).unwrap();
        assert!(rank < 15, "exact top vertex ranked {rank} in approximation");
    }

    #[test]
    fn empty_graph() {
        let csr = CsrSnapshot::from_graph(&EvolvingGraph::new());
        assert!(betweenness_centrality(&csr).is_empty());
        assert!(approx_betweenness(&csr, 5).is_empty());
    }
}

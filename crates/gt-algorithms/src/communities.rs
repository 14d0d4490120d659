//! Community detection (Table 1, "Communities"): synchronous label
//! propagation, and k-means over degree features as the paper's "k-means"
//! entry (evolving graphs rarely carry coordinates, so the canonical
//! feature space is structural).

use gt_graph::CsrSnapshot;

use crate::traversal::undirected_adjacency;

/// Result of label propagation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Communities {
    /// Community label per dense index.
    pub labels: Vec<u32>,
    /// Number of distinct communities.
    pub count: usize,
    /// Sweeps executed until convergence or cap.
    pub iterations: usize,
}

/// Synchronous label propagation on the undirected projection with
/// deterministic tie-breaking (smallest label wins), capped at
/// `max_iterations` sweeps.
pub fn label_propagation(csr: &CsrSnapshot, max_iterations: usize) -> Communities {
    let n = csr.vertex_count();
    let adj = undirected_adjacency(csr);

    let mut labels: Vec<u32> = (0..n as u32).collect();
    let mut iterations = 0;
    let mut counts: std::collections::BTreeMap<u32, usize> = std::collections::BTreeMap::new();
    for _ in 0..max_iterations {
        iterations += 1;
        let mut changed = false;
        let mut next = labels.clone();
        for v in 0..n {
            if adj[v].is_empty() {
                continue;
            }
            counts.clear();
            for &w in &adj[v] {
                *counts.entry(labels[w as usize]).or_insert(0) += 1;
            }
            // Most frequent neighbor label; ties -> smallest label
            // (BTreeMap iterates ascending, so `>` keeps the first max).
            let mut best_label = labels[v];
            let mut best_count = 0usize;
            for (&label, &count) in &counts {
                if count > best_count {
                    best_count = count;
                    best_label = label;
                }
            }
            if best_label != labels[v] {
                next[v] = best_label;
                changed = true;
            }
        }
        labels = next;
        if !changed {
            break;
        }
    }

    let distinct: std::collections::BTreeSet<u32> = labels.iter().copied().collect();
    Communities {
        count: distinct.len(),
        labels,
        iterations,
    }
}

/// k-means over per-vertex structural features `(in_degree, out_degree)`,
/// deterministic via farthest-point ("k-means++ without randomness")
/// seeding. Returns cluster assignment per dense index.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansResult {
    /// Cluster id per dense index.
    pub assignment: Vec<u32>,
    /// Final centroids `(in_degree, out_degree)`.
    pub centroids: Vec<(f64, f64)>,
    /// Lloyd iterations executed.
    pub iterations: usize,
}

/// Runs Lloyd's algorithm on degree features.
///
/// # Panics
/// If `k == 0`.
pub fn kmeans_degree_features(csr: &CsrSnapshot, k: usize, max_iterations: usize) -> KMeansResult {
    assert!(k > 0, "k must be positive");
    let n = csr.vertex_count();
    let points: Vec<(f64, f64)> = csr
        .indices()
        .map(|v| (csr.in_degree(v) as f64, csr.out_degree(v) as f64))
        .collect();
    if n == 0 {
        return KMeansResult {
            assignment: Vec::new(),
            centroids: Vec::new(),
            iterations: 0,
        };
    }
    let k = k.min(n);

    // Farthest-point seeding from the first point.
    let mut centroids: Vec<(f64, f64)> = vec![points[0]];
    while centroids.len() < k {
        let far = points
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                let da = nearest_dist2(a, &centroids);
                let db = nearest_dist2(b, &centroids);
                da.partial_cmp(&db).expect("finite")
            })
            .map(|(i, _)| points[i])
            .expect("non-empty");
        centroids.push(far);
    }

    let mut assignment = vec![0u32; n];
    let mut iterations = 0;
    for _ in 0..max_iterations {
        iterations += 1;
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let best = centroids
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| dist2(p, a).partial_cmp(&dist2(p, b)).expect("finite"))
                .map(|(ci, _)| ci as u32)
                .expect("k >= 1");
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        // Recompute centroids.
        let mut sums = vec![(0.0f64, 0.0f64, 0usize); centroids.len()];
        for (i, p) in points.iter().enumerate() {
            let s = &mut sums[assignment[i] as usize];
            s.0 += p.0;
            s.1 += p.1;
            s.2 += 1;
        }
        for (c, s) in centroids.iter_mut().zip(&sums) {
            if s.2 > 0 {
                *c = (s.0 / s.2 as f64, s.1 / s.2 as f64);
            }
        }
        if !changed {
            break;
        }
    }

    KMeansResult {
        assignment,
        centroids,
        iterations,
    }
}

fn dist2(a: &(f64, f64), b: &(f64, f64)) -> f64 {
    let dx = a.0 - b.0;
    let dy = a.1 - b.1;
    dx * dx + dy * dy
}

fn nearest_dist2(p: &(f64, f64), centroids: &[(f64, f64)]) -> f64 {
    centroids
        .iter()
        .map(|c| dist2(p, c))
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_core::prelude::*;
    use gt_graph::{builders, EvolvingGraph};

    /// Two dense cliques joined by a single bridge edge.
    fn two_cliques() -> CsrSnapshot {
        let mut g = EvolvingGraph::new();
        for id in 0..10u64 {
            g.apply(&GraphEvent::AddVertex {
                id: VertexId(id),
                state: State::empty(),
            })
            .unwrap();
        }
        for group in [0u64..5, 5..10] {
            for s in group.clone() {
                for d in group.clone() {
                    if s != d {
                        g.apply(&GraphEvent::AddEdge {
                            id: EdgeId::from((s, d)),
                            state: State::empty(),
                        })
                        .unwrap();
                    }
                }
            }
        }
        g.apply(&GraphEvent::AddEdge {
            id: EdgeId::from((4, 5)),
            state: State::empty(),
        })
        .unwrap();
        CsrSnapshot::from_graph(&g)
    }

    #[test]
    fn label_propagation_separates_cliques() {
        let csr = two_cliques();
        let result = label_propagation(&csr, 50);
        // Each clique converges to a uniform internal label.
        let first: Vec<u32> = (0..5).map(|i| result.labels[i]).collect();
        let second: Vec<u32> = (5..10).map(|i| result.labels[i]).collect();
        assert!(first.windows(2).all(|w| w[0] == w[1]), "{first:?}");
        assert!(second.windows(2).all(|w| w[0] == w[1]), "{second:?}");
        assert!(result.count <= 2);
    }

    #[test]
    fn label_propagation_is_deterministic() {
        let csr = two_cliques();
        assert_eq!(label_propagation(&csr, 50), label_propagation(&csr, 50));
    }

    #[test]
    fn isolated_vertices_keep_their_labels() {
        use gt_core::prelude::*;
        let stream: gt_core::GraphStream = (0..3u64)
            .map(|i| {
                StreamEntry::graph(GraphEvent::AddVertex {
                    id: VertexId(i),
                    state: State::empty(),
                })
            })
            .collect();
        let csr = CsrSnapshot::from_graph(&builders::materialize(&stream));
        let result = label_propagation(&csr, 10);
        assert_eq!(result.labels, [0, 1, 2]);
        assert_eq!(result.count, 3);
    }

    #[test]
    fn kmeans_splits_hub_from_leaves() {
        // Star: center has out-degree n-1, leaves have in-degree 1.
        let csr = CsrSnapshot::from_graph(&builders::materialize(&builders::star(30)));
        let result = kmeans_degree_features(&csr, 2, 50);
        let center = csr.index_of(VertexId(0)).unwrap() as usize;
        let center_cluster = result.assignment[center];
        let leaves_in_center_cluster = result
            .assignment
            .iter()
            .enumerate()
            .filter(|&(i, &c)| i != center && c == center_cluster)
            .count();
        assert_eq!(leaves_in_center_cluster, 0);
    }

    #[test]
    fn kmeans_k_capped_at_n() {
        let csr = CsrSnapshot::from_graph(&builders::materialize(&builders::path(3)));
        let result = kmeans_degree_features(&csr, 10, 10);
        assert!(result.centroids.len() <= 3);
        assert_eq!(result.assignment.len(), 3);
    }

    #[test]
    fn kmeans_empty_graph() {
        let csr = CsrSnapshot::from_graph(&EvolvingGraph::new());
        let result = kmeans_degree_features(&csr, 3, 10);
        assert!(result.assignment.is_empty());
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn kmeans_zero_k_panics() {
        let csr = CsrSnapshot::from_graph(&EvolvingGraph::new());
        kmeans_degree_features(&csr, 0, 10);
    }
}

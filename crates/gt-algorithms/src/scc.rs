//! Strongly connected components (Tarjan's algorithm, iterative).
//!
//! Directed connectivity complements the weakly-connected view: §3.2
//! names connectivity among the structural graph properties whose
//! evolution the framework tracks, and SCC condensation distinguishes
//! e.g. mutual-follow cores in social graphs from one-way periphery.

use gt_graph::CsrSnapshot;

/// The SCC labeling of a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SccResult {
    /// Component label per dense index; labels are ordered by completion
    /// (reverse topological order of the condensation).
    pub labels: Vec<u32>,
    /// Number of strongly connected components.
    pub count: usize,
}

impl SccResult {
    /// Size of the largest component (0 for an empty graph).
    pub fn largest(&self) -> usize {
        let mut sizes = std::collections::HashMap::new();
        for &l in &self.labels {
            *sizes.entry(l).or_insert(0usize) += 1;
        }
        sizes.values().copied().max().unwrap_or(0)
    }
}

/// Iterative Tarjan SCC (explicit stack; safe on deep graphs).
pub fn strongly_connected_components(csr: &CsrSnapshot) -> SccResult {
    let n = csr.vertex_count();
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n]; // discovery index
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut labels = vec![0u32; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut component = 0u32;

    // Call stack frames: (vertex, next out-edge offset).
    let mut frames: Vec<(u32, usize)> = Vec::new();

    for root in 0..n as u32 {
        if index[root as usize] != UNVISITED {
            continue;
        }
        frames.push((root, 0));
        index[root as usize] = next_index;
        lowlink[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;

        while let Some(frame) = frames.last_mut() {
            let v = frame.0;
            let out = csr.out_neighbors(v);
            if frame.1 < out.len() {
                let w = out[frame.1];
                frame.1 += 1;
                if index[w as usize] == UNVISITED {
                    index[w as usize] = next_index;
                    lowlink[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    frames.push((w, 0));
                } else if on_stack[w as usize] {
                    lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                }
            } else {
                frames.pop();
                if let Some(parent) = frames.last() {
                    let p = parent.0 as usize;
                    lowlink[p] = lowlink[p].min(lowlink[v as usize]);
                }
                if lowlink[v as usize] == index[v as usize] {
                    // v is the root of an SCC: pop it off the stack.
                    loop {
                        let w = stack.pop().expect("stack holds the component");
                        on_stack[w as usize] = false;
                        labels[w as usize] = component;
                        if w == v {
                            break;
                        }
                    }
                    component += 1;
                }
            }
        }
    }

    SccResult {
        labels,
        count: component as usize,
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
    fn path_is_all_singletons() {
        let csr = CsrSnapshot::from_graph(&builders::materialize(&builders::path(5)));
        let scc = strongly_connected_components(&csr);
        assert_eq!(scc.count, 5);
        assert_eq!(scc.largest(), 1);
    }

    #[test]
    fn ring_is_one_component() {
        let csr = CsrSnapshot::from_graph(&builders::materialize(&builders::ring(6)));
        let scc = strongly_connected_components(&csr);
        assert_eq!(scc.count, 1);
        assert_eq!(scc.largest(), 6);
    }

    #[test]
    fn two_cycles_with_bridge() {
        // Cycle {0,1,2}, cycle {3,4}, bridge 2 -> 3 (one-way).
        let csr = graph_of(&[(0, 1), (1, 2), (2, 0), (3, 4), (4, 3), (2, 3)], 5);
        let scc = strongly_connected_components(&csr);
        assert_eq!(scc.count, 2);
        let i = |v: u64| csr.index_of(VertexId(v)).unwrap();
        assert_eq!(scc.labels[i(0) as usize], scc.labels[i(2) as usize]);
        assert_eq!(scc.labels[i(3) as usize], scc.labels[i(4) as usize]);
        assert_ne!(scc.labels[i(0) as usize], scc.labels[i(3) as usize]);
    }

    #[test]
    fn mutual_edges_merge() {
        let csr = graph_of(&[(0, 1), (1, 0), (1, 2)], 3);
        let scc = strongly_connected_components(&csr);
        assert_eq!(scc.count, 2);
        assert_eq!(scc.largest(), 2);
    }

    #[test]
    fn scc_count_at_least_wcc_count() {
        let csr = CsrSnapshot::from_graph(&builders::materialize(
            &builders::ErdosRenyi {
                n: 120,
                p: 0.02,
                seed: 8,
            }
            .generate(),
        ));
        let scc = strongly_connected_components(&csr);
        let wcc = crate::components::weakly_connected_components(&csr);
        assert!(
            scc.count >= wcc.count,
            "scc {} < wcc {}",
            scc.count,
            wcc.count
        );
        // Strongly connected pairs must be weakly connected.
        for a in csr.indices() {
            for b in csr.indices() {
                if scc.labels[a as usize] == scc.labels[b as usize] {
                    assert!(wcc.same_component(a, b));
                }
            }
        }
    }

    #[test]
    fn deep_path_does_not_overflow_stack() {
        // 50k-vertex path: a recursive Tarjan would blow the stack.
        let csr = CsrSnapshot::from_graph(&builders::materialize(&builders::path(50_000)));
        let scc = strongly_connected_components(&csr);
        assert_eq!(scc.count, 50_000);
    }

    #[test]
    fn empty_graph() {
        let csr = CsrSnapshot::from_graph(&EvolvingGraph::new());
        let scc = strongly_connected_components(&csr);
        assert_eq!(scc.count, 0);
    }
}

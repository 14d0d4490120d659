//! Directed cycle detection (Table 1, "Graph properties") via iterative
//! three-color DFS.

use gt_graph::CsrSnapshot;

/// Whether the directed graph contains at least one cycle.
pub fn has_cycle(csr: &CsrSnapshot) -> bool {
    find_cycle(csr).is_some()
}

/// Finds one directed cycle as a sequence of dense indices
/// `[v0, v1, ..., v0]`, or `None` if the graph is acyclic.
pub(crate) fn find_cycle(csr: &CsrSnapshot) -> Option<Vec<u32>> {
    let n = csr.vertex_count();
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color = vec![Color::White; n];
    let mut parent: Vec<Option<u32>> = vec![None; n];

    for start in 0..n as u32 {
        if color[start as usize] != Color::White {
            continue;
        }
        // Iterative DFS: stack of (vertex, next-edge-offset).
        let mut stack: Vec<(u32, usize)> = vec![(start, 0)];
        color[start as usize] = Color::Gray;
        while let Some(frame) = stack.last_mut() {
            let u = frame.0;
            let out = csr.out_neighbors(u);
            if frame.1 < out.len() {
                let v = out[frame.1];
                frame.1 += 1;
                match color[v as usize] {
                    Color::White => {
                        color[v as usize] = Color::Gray;
                        parent[v as usize] = Some(u);
                        stack.push((v, 0));
                    }
                    Color::Gray => {
                        // Back edge u -> v closes a cycle v -> ... -> u -> v.
                        let mut cycle = vec![v];
                        let mut cur = u;
                        while cur != v {
                            cycle.push(cur);
                            cur = parent[cur as usize].expect("gray vertices have parents");
                        }
                        cycle.push(v);
                        // Collected back-to-front from u; reverse into
                        // forward order v -> ... -> u -> v.
                        cycle.reverse();
                        return Some(cycle);
                    }
                    Color::Black => {}
                }
            } else {
                color[u as usize] = Color::Black;
                stack.pop();
            }
        }
    }
    None
}

/// Whether every consecutive pair in `cycle` is an edge (for verification).
pub fn is_valid_cycle(csr: &CsrSnapshot, cycle: &[u32]) -> bool {
    cycle.len() >= 3
        && cycle.first() == cycle.last()
        && cycle
            .windows(2)
            .all(|w| csr.out_neighbors(w[0]).contains(&w[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_graph::builders;

    fn csr_of(stream: &gt_core::GraphStream) -> CsrSnapshot {
        CsrSnapshot::from_graph(&builders::materialize(stream))
    }

    #[test]
    fn path_is_acyclic() {
        assert!(!has_cycle(&csr_of(&builders::path(10))));
        assert_eq!(find_cycle(&csr_of(&builders::path(10))), None);
    }

    #[test]
    fn ring_has_cycle() {
        let csr = csr_of(&builders::ring(5));
        let cycle = find_cycle(&csr).expect("ring has a cycle");
        assert!(is_valid_cycle(&csr, &cycle), "{cycle:?}");
        assert_eq!(cycle.len(), 6); // 5 vertices + closing repeat
    }

    #[test]
    fn grid_is_acyclic() {
        assert!(!has_cycle(&csr_of(&builders::grid(4, 4))));
    }

    #[test]
    fn two_cycle() {
        use gt_core::prelude::*;
        let mut g = gt_graph::EvolvingGraph::new();
        for id in 0..2u64 {
            g.apply(&GraphEvent::AddVertex {
                id: VertexId(id),
                state: State::empty(),
            })
            .unwrap();
        }
        for (s, d) in [(0u64, 1u64), (1, 0)] {
            g.apply(&GraphEvent::AddEdge {
                id: EdgeId::from((s, d)),
                state: State::empty(),
            })
            .unwrap();
        }
        let csr = CsrSnapshot::from_graph(&g);
        let cycle = find_cycle(&csr).unwrap();
        assert!(is_valid_cycle(&csr, &cycle));
        assert_eq!(cycle.len(), 3);
    }

    #[test]
    fn cycle_in_later_component_is_found() {
        use gt_core::prelude::*;
        // Acyclic component first (vertices 0-2), cycle in 10-12.
        let mut stream = builders::path(3);
        for id in 10..13u64 {
            stream.push(StreamEntry::graph(GraphEvent::AddVertex {
                id: VertexId(id),
                state: State::empty(),
            }));
        }
        for (s, d) in [(10u64, 11u64), (11, 12), (12, 10)] {
            stream.push(StreamEntry::graph(GraphEvent::AddEdge {
                id: EdgeId::from((s, d)),
                state: State::empty(),
            }));
        }
        let csr = csr_of(&stream);
        let cycle = find_cycle(&csr).unwrap();
        assert!(is_valid_cycle(&csr, &cycle));
    }

    #[test]
    fn empty_graph_is_acyclic() {
        let csr = CsrSnapshot::from_graph(&gt_graph::EvolvingGraph::new());
        assert!(!has_cycle(&csr));
    }
}

//! Breadth-first traversals over snapshots.

use std::collections::VecDeque;

use gt_graph::CsrSnapshot;

/// Distance value for unreachable vertices.
pub const UNREACHABLE: u32 = u32::MAX;

/// BFS distances (in hops) from `source` over out-edges.
///
/// Returns one entry per dense index; unreachable vertices hold
/// [`UNREACHABLE`].
pub fn bfs_distances(csr: &CsrSnapshot, source: u32) -> Vec<u32> {
    bfs_distances_impl(csr, source, false)
}

/// The undirected projection: each vertex's neighbors over edges of
/// either direction, sorted, without self-loops or repeats.
pub(crate) fn undirected_adjacency(csr: &CsrSnapshot) -> Vec<Vec<u32>> {
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); csr.vertex_count()];
    for u in csr.indices() {
        for &v in csr.out_neighbors(u) {
            if u != v {
                adj[u as usize].push(v);
                adj[v as usize].push(u);
            }
        }
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    adj
}

/// BFS distances ignoring edge direction (treats the graph as undirected).
pub(crate) fn bfs_distances_undirected(csr: &CsrSnapshot, source: u32) -> Vec<u32> {
    bfs_distances_impl(csr, source, true)
}

fn bfs_distances_impl(csr: &CsrSnapshot, source: u32, undirected: bool) -> Vec<u32> {
    let n = csr.vertex_count();
    let mut dist = vec![UNREACHABLE; n];
    if (source as usize) >= n {
        return dist;
    }
    let mut queue = VecDeque::with_capacity(n.min(1024));
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let d = dist[u as usize];
        let mut visit = |v: u32| {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = d + 1;
                queue.push_back(v);
            }
        };
        for &v in csr.out_neighbors(u) {
            visit(v);
        }
        if undirected {
            for &v in csr.in_neighbors(u) {
                visit(v);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_graph::builders;

    fn csr_of(stream: &gt_core::GraphStream) -> CsrSnapshot {
        CsrSnapshot::from_graph(&builders::materialize(stream))
    }

    #[test]
    fn path_distances() {
        let csr = csr_of(&builders::path(5));
        let dist = bfs_distances(&csr, 0);
        assert_eq!(dist, [0, 1, 2, 3, 4]);
        // Directed: nothing reaches backwards.
        let back = bfs_distances(&csr, 4);
        assert_eq!(
            back,
            [UNREACHABLE, UNREACHABLE, UNREACHABLE, UNREACHABLE, 0]
        );
        // Undirected traversal reaches everything.
        assert_eq!(bfs_distances_undirected(&csr, 4), [4, 3, 2, 1, 0]);
    }

    #[test]
    fn star_distances() {
        let csr = csr_of(&builders::star(6));
        let dist = bfs_distances(&csr, 0);
        assert_eq!(dist[0], 0);
        assert!(dist[1..].iter().all(|&d| d == 1));
    }

    #[test]
    fn out_of_range_source() {
        let csr = csr_of(&builders::path(3));
        assert!(bfs_distances(&csr, 99).iter().all(|&d| d == UNREACHABLE));
    }

    #[test]
    fn empty_graph() {
        let csr = CsrSnapshot::from_graph(&gt_graph::EvolvingGraph::new());
        assert!(bfs_distances(&csr, 0).is_empty());
    }
}

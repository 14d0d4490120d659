//! Weakly connected components (Table 1, "Communities") via union–find.

use gt_graph::CsrSnapshot;

/// A disjoint-set forest over dense indices with path halving and union by
/// size. Shared by the batch WCC and the incremental online variant.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
}

impl UnionFind {
    /// `n` singleton sets.
    pub(crate) fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            components: n,
        }
    }

    /// Adds a new singleton, returning its index.
    pub(crate) fn push(&mut self) -> u32 {
        let id = self.parent.len() as u32;
        self.parent.push(id);
        self.size.push(1);
        self.components += 1;
        id
    }

    /// Representative of `x`, with path halving.
    pub(crate) fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    /// Unions the sets of `a` and `b`; returns true if they were distinct.
    pub(crate) fn union(&mut self, a: u32, b: u32) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
        self.components -= 1;
        true
    }

    /// Number of disjoint sets.
    pub(crate) fn component_count(&self) -> usize {
        self.components
    }
}

/// The weakly-connected-components labeling of a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WccResult {
    /// Component label per dense index (the smallest dense index of the
    /// component, for determinism).
    pub labels: Vec<u32>,
    /// Number of components.
    pub count: usize,
}

impl WccResult {
    /// Size of the largest component (0 for an empty graph).
    pub fn largest(&self) -> usize {
        use std::collections::HashMap;
        let mut sizes: HashMap<u32, usize> = HashMap::new();
        for &l in &self.labels {
            *sizes.entry(l).or_insert(0) += 1;
        }
        sizes.values().copied().max().unwrap_or(0)
    }

    /// Whether two dense indices share a component.
    pub fn same_component(&self, a: u32, b: u32) -> bool {
        self.labels[a as usize] == self.labels[b as usize]
    }
}

/// Computes weakly connected components (edge direction ignored).
pub fn weakly_connected_components(csr: &CsrSnapshot) -> WccResult {
    let n = csr.vertex_count();
    let mut uf = UnionFind::new(n);
    for u in csr.indices() {
        for &v in csr.out_neighbors(u) {
            uf.union(u, v);
        }
    }
    // Canonical labels: smallest member index per component.
    let mut canonical = vec![u32::MAX; n];
    let mut labels = vec![0u32; n];
    for v in 0..n as u32 {
        let r = uf.find(v) as usize;
        if canonical[r] == u32::MAX {
            canonical[r] = v;
        }
        labels[v as usize] = canonical[r];
    }
    WccResult {
        labels,
        count: uf.component_count(),
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
    fn single_path_is_one_component() {
        let wcc = weakly_connected_components(&csr_of(&builders::path(10)));
        assert_eq!(wcc.count, 1);
        assert_eq!(wcc.largest(), 10);
        assert!(wcc.labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn disjoint_paths_are_separate() {
        use gt_core::prelude::*;
        let mut stream = builders::path(5);
        // Second component: vertices 10..15 in a path.
        for id in 10..15u64 {
            stream.push(StreamEntry::graph(GraphEvent::AddVertex {
                id: VertexId(id),
                state: State::empty(),
            }));
        }
        for id in 11..15u64 {
            stream.push(StreamEntry::graph(GraphEvent::AddEdge {
                id: EdgeId::from((id - 1, id)),
                state: State::empty(),
            }));
        }
        let csr = csr_of(&stream);
        let wcc = weakly_connected_components(&csr);
        assert_eq!(wcc.count, 2);
        let a = csr.index_of(VertexId(0)).unwrap();
        let b = csr.index_of(VertexId(4)).unwrap();
        let c = csr.index_of(VertexId(10)).unwrap();
        assert!(wcc.same_component(a, b));
        assert!(!wcc.same_component(a, c));
    }

    #[test]
    fn direction_is_ignored() {
        // 0 -> 1 and 2 -> 1: weakly one component despite no directed path
        // between 0 and 2.
        use gt_core::prelude::*;
        let mut g = gt_graph::EvolvingGraph::new();
        for id in 0..3u64 {
            g.apply(&GraphEvent::AddVertex {
                id: VertexId(id),
                state: State::empty(),
            })
            .unwrap();
        }
        for (s, d) in [(0u64, 1u64), (2, 1)] {
            g.apply(&GraphEvent::AddEdge {
                id: EdgeId::from((s, d)),
                state: State::empty(),
            })
            .unwrap();
        }
        let wcc = weakly_connected_components(&CsrSnapshot::from_graph(&g));
        assert_eq!(wcc.count, 1);
    }

    #[test]
    fn isolated_vertices_are_singletons() {
        use gt_core::prelude::*;
        let stream: gt_core::GraphStream = (0..4u64)
            .map(|i| {
                StreamEntry::graph(GraphEvent::AddVertex {
                    id: VertexId(i),
                    state: State::empty(),
                })
            })
            .collect();
        let wcc = weakly_connected_components(&csr_of(&stream));
        assert_eq!(wcc.count, 4);
        assert_eq!(wcc.largest(), 1);
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.component_count(), 5);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.union(2, 3));
        assert_eq!(uf.component_count(), 3);
        assert!(uf.union(0, 3));
        let id = uf.push();
        assert_eq!(id, 5);
        assert_eq!(uf.component_count(), 3);
        assert_eq!(uf.parent.len(), 6);
    }

    #[test]
    fn empty_graph() {
        let wcc =
            weakly_connected_components(&CsrSnapshot::from_graph(&gt_graph::EvolvingGraph::new()));
        assert_eq!(wcc.count, 0);
        assert_eq!(wcc.largest(), 0);
    }
}

//! Compact read-only snapshots in compressed-sparse-row (CSR) form.
//!
//! Offline computations in the paper's model run on snapshots reconstructed
//! from the stream (§4.4.2). [`CsrSnapshot`] freezes an [`EvolvingGraph`]
//! into dense index space so the reference algorithms in `gt-algorithms` can
//! iterate adjacency without hashing or tree walks.

use std::collections::BTreeMap;

use gt_core::prelude::*;

use crate::graph::EvolvingGraph;

/// A frozen snapshot: vertices renumbered `0..n`, adjacency in CSR layout,
/// with both forward (out) and reverse (in) edges, plus edge weights parsed
/// from edge state (defaulting to `1.0` where the state is not numeric).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrSnapshot {
    /// Dense index → original vertex id, ascending.
    ids: Vec<VertexId>,
    /// Original vertex id → dense index.
    index: BTreeMap<VertexId, u32>,
    /// CSR row offsets into `out_targets`, length `n + 1`.
    out_offsets: Vec<u32>,
    /// Flattened out-neighbor indices.
    out_targets: Vec<u32>,
    /// Weight per out-edge, parallel to `out_targets`.
    out_weights: Vec<f64>,
    /// CSR row offsets into `in_targets`, length `n + 1`.
    in_offsets: Vec<u32>,
    /// Flattened in-neighbor indices.
    in_targets: Vec<u32>,
}

impl CsrSnapshot {
    /// Freezes the given graph.
    pub fn from_graph(graph: &EvolvingGraph) -> Self {
        let ids: Vec<VertexId> = graph.vertices().collect();
        let index: BTreeMap<VertexId, u32> = ids
            .iter()
            .enumerate()
            .map(|(i, id)| (*id, i as u32))
            .collect();

        let n = ids.len();
        let mut out_offsets = Vec::with_capacity(n + 1);
        let mut out_targets = Vec::with_capacity(graph.edge_count());
        let mut out_weights = Vec::with_capacity(graph.edge_count());
        out_offsets.push(0u32);
        for &id in &ids {
            for (dst, state) in graph.out_edges(id) {
                out_targets.push(index[&dst]);
                out_weights.push(state.as_weight().unwrap_or(1.0));
            }
            out_offsets.push(out_targets.len() as u32);
        }

        let mut in_offsets = Vec::with_capacity(n + 1);
        let mut in_targets = Vec::with_capacity(graph.edge_count());
        in_offsets.push(0u32);
        for &id in &ids {
            for src in graph.in_neighbors(id) {
                in_targets.push(index[&src]);
            }
            in_offsets.push(in_targets.len() as u32);
        }

        CsrSnapshot {
            ids,
            index,
            out_offsets,
            out_targets,
            out_weights,
            in_offsets,
            in_targets,
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.ids.len()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.out_targets.len()
    }

    /// Original vertex id for a dense index.
    ///
    /// # Panics
    /// If `idx >= vertex_count()`.
    pub fn id_of(&self, idx: u32) -> VertexId {
        self.ids[idx as usize]
    }

    /// Dense index for an original vertex id, if present in the snapshot.
    pub fn index_of(&self, id: VertexId) -> Option<u32> {
        self.index.get(&id).copied()
    }

    /// Out-neighbors (dense indices) of a dense vertex index.
    pub fn out_neighbors(&self, idx: u32) -> &[u32] {
        let lo = self.out_offsets[idx as usize] as usize;
        let hi = self.out_offsets[idx as usize + 1] as usize;
        &self.out_targets[lo..hi]
    }

    /// Weights parallel to [`Self::out_neighbors`].
    pub fn out_weights(&self, idx: u32) -> &[f64] {
        let lo = self.out_offsets[idx as usize] as usize;
        let hi = self.out_offsets[idx as usize + 1] as usize;
        &self.out_weights[lo..hi]
    }

    /// In-neighbors (dense indices) of a dense vertex index.
    pub fn in_neighbors(&self, idx: u32) -> &[u32] {
        let lo = self.in_offsets[idx as usize] as usize;
        let hi = self.in_offsets[idx as usize + 1] as usize;
        &self.in_targets[lo..hi]
    }

    /// Out-degree of a dense vertex index.
    pub fn out_degree(&self, idx: u32) -> usize {
        self.out_neighbors(idx).len()
    }

    /// In-degree of a dense vertex index.
    pub fn in_degree(&self, idx: u32) -> usize {
        self.in_neighbors(idx).len()
    }

    /// Iterates over all dense indices.
    pub fn indices(&self) -> impl Iterator<Item = u32> {
        0..self.vertex_count() as u32
    }
}

impl From<&EvolvingGraph> for CsrSnapshot {
    fn from(g: &EvolvingGraph) -> Self {
        CsrSnapshot::from_graph(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> EvolvingGraph {
        // 1 -> 2 -> 4, 1 -> 3 -> 4, weights = dst as f64
        let mut g = EvolvingGraph::new();
        for id in 1..=4 {
            g.apply(&GraphEvent::AddVertex {
                id: VertexId(id),
                state: State::empty(),
            })
            .unwrap();
        }
        for (s, d) in [(1u64, 2u64), (1, 3), (2, 4), (3, 4)] {
            g.apply(&GraphEvent::AddEdge {
                id: EdgeId::from((s, d)),
                state: State::weight(d as f64),
            })
            .unwrap();
        }
        g
    }

    #[test]
    fn csr_mirrors_graph() {
        let g = diamond();
        let csr = CsrSnapshot::from_graph(&g);
        assert_eq!(csr.vertex_count(), 4);
        assert_eq!(csr.edge_count(), 4);
        let i1 = csr.index_of(VertexId(1)).unwrap();
        let i4 = csr.index_of(VertexId(4)).unwrap();
        assert_eq!(csr.out_degree(i1), 2);
        assert_eq!(csr.in_degree(i1), 0);
        assert_eq!(csr.out_degree(i4), 0);
        assert_eq!(csr.in_degree(i4), 2);
        let out1: Vec<VertexId> = csr
            .out_neighbors(i1)
            .iter()
            .map(|&i| csr.id_of(i))
            .collect();
        assert_eq!(out1, [VertexId(2), VertexId(3)]);
        assert_eq!(csr.out_weights(i1), [2.0, 3.0]);
    }

    #[test]
    fn ids_are_ascending_and_indexable() {
        let g = diamond();
        let csr = CsrSnapshot::from_graph(&g);
        for (i, id) in csr.ids.iter().enumerate() {
            assert_eq!(csr.index_of(*id), Some(i as u32));
            assert_eq!(csr.id_of(i as u32), *id);
        }
        assert_eq!(csr.index_of(VertexId(99)), None);
    }

    #[test]
    fn empty_graph() {
        let csr = CsrSnapshot::from_graph(&EvolvingGraph::new());
        assert_eq!(csr.vertex_count(), 0);
        assert_eq!(csr.edge_count(), 0);
        assert_eq!(csr.indices().count(), 0);
    }

    #[test]
    fn non_numeric_weights_default_to_one() {
        let mut g = EvolvingGraph::new();
        for id in [1u64, 2] {
            g.apply(&GraphEvent::AddVertex {
                id: VertexId(id),
                state: State::empty(),
            })
            .unwrap();
        }
        g.apply(&GraphEvent::AddEdge {
            id: EdgeId::from((1, 2)),
            state: State::new("friend"),
        })
        .unwrap();
        let csr = CsrSnapshot::from_graph(&g);
        let i1 = csr.index_of(VertexId(1)).unwrap();
        assert_eq!(csr.out_weights(i1), [1.0]);
    }

    #[test]
    fn edge_counts_sum_over_rows() {
        let g = diamond();
        let csr = CsrSnapshot::from_graph(&g);
        let out_sum: usize = csr.indices().map(|i| csr.out_degree(i)).sum();
        let in_sum: usize = csr.indices().map(|i| csr.in_degree(i)).sum();
        assert_eq!(out_sum, csr.edge_count());
        assert_eq!(in_sum, csr.edge_count());
    }
}

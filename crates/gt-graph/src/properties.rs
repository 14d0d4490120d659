//! Structural graph property measurements (§3.2 "Graph Evolution
//! Properties"): vertex/edge counts, degree distributions, and density.
//! Temporal property tracking over a stream lives in `gt-analysis`; these
//! are the per-snapshot structural measures.

use std::collections::BTreeMap;

use gt_core::prelude::*;

use crate::graph::EvolvingGraph;

/// A degree histogram: `degree -> number of vertices`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DegreeDistribution {
    counts: BTreeMap<usize, usize>,
    total_vertices: usize,
}

impl DegreeDistribution {
    /// Builds the total-degree (in + out) distribution.
    pub fn total(graph: &EvolvingGraph) -> Self {
        Self::build(graph, |g, v| g.degree(v).unwrap_or(0))
    }

    /// Builds the out-degree distribution.
    pub fn out(graph: &EvolvingGraph) -> Self {
        Self::build(graph, |g, v| g.out_degree(v).unwrap_or(0))
    }

    fn build(graph: &EvolvingGraph, f: impl Fn(&EvolvingGraph, VertexId) -> usize) -> Self {
        let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
        for v in graph.vertices() {
            *counts.entry(f(graph, v)).or_insert(0) += 1;
        }
        DegreeDistribution {
            counts,
            total_vertices: graph.vertex_count(),
        }
    }

    /// Vertices with exactly this degree.
    pub fn count(&self, degree: usize) -> usize {
        self.counts.get(&degree).copied().unwrap_or(0)
    }

    /// The largest observed degree (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.counts.keys().next_back().copied().unwrap_or(0)
    }

    /// Mean degree over all vertices.
    pub fn mean(&self) -> f64 {
        if self.total_vertices == 0 {
            return 0.0;
        }
        let sum: usize = self.counts.iter().map(|(d, c)| d * c).sum();
        sum as f64 / self.total_vertices as f64
    }

    /// Iterates over `(degree, count)` in ascending degree order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.counts.iter().map(|(&d, &c)| (d, c))
    }

    /// Complementary cumulative distribution: fraction of vertices with
    /// degree ≥ `d`.
    pub fn ccdf(&self, d: usize) -> f64 {
        if self.total_vertices == 0 {
            return 0.0;
        }
        let at_least: usize = self.counts.range(d..).map(|(_, &c)| c).sum();
        at_least as f64 / self.total_vertices as f64
    }
}

/// A bundle of global structural properties of a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphProperties {
    /// Vertex count.
    pub vertices: usize,
    /// Directed edge count.
    pub edges: usize,
    /// Edge density relative to `n * (n - 1)` possible directed edges.
    pub density: f64,
    /// Mean total degree.
    pub mean_degree: f64,
    /// Maximum total degree.
    pub max_degree: usize,
}

impl GraphProperties {
    /// Measures the given graph.
    pub fn measure(graph: &EvolvingGraph) -> Self {
        let n = graph.vertex_count();
        let m = graph.edge_count();
        let possible = if n > 1 { (n * (n - 1)) as f64 } else { 0.0 };
        let dist = DegreeDistribution::total(graph);
        GraphProperties {
            vertices: n,
            edges: m,
            density: if possible > 0.0 {
                m as f64 / possible
            } else {
                0.0
            },
            mean_degree: dist.mean(),
            max_degree: dist.max_degree(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn star_distribution() {
        let g = builders::materialize(&builders::star(5));
        let dist = DegreeDistribution::total(&g);
        // Center has degree 4, spokes degree 1.
        assert_eq!(dist.count(4), 1);
        assert_eq!(dist.count(1), 4);
        assert_eq!(dist.max_degree(), 4);
        assert!((dist.mean() - 8.0 / 5.0).abs() < 1e-12);

        let out = DegreeDistribution::out(&g);
        assert_eq!(out.count(4), 1);
        assert_eq!(out.count(0), 4);
    }

    #[test]
    fn ccdf_is_monotone() {
        let g = builders::materialize(&builders::star(10));
        let dist = DegreeDistribution::total(&g);
        assert_eq!(dist.ccdf(0), 1.0);
        assert!(dist.ccdf(1) >= dist.ccdf(2));
        assert_eq!(dist.ccdf(dist.max_degree() + 1), 0.0);
    }

    #[test]
    fn properties_of_complete_graph() {
        let g = builders::materialize(&builders::complete(6));
        let p = GraphProperties::measure(&g);
        assert_eq!(p.vertices, 6);
        assert_eq!(p.edges, 30);
        assert!((p.density - 1.0).abs() < 1e-12);
        assert_eq!(p.max_degree, 10);
        assert!((p.mean_degree - 10.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_properties() {
        let p = GraphProperties::measure(&EvolvingGraph::new());
        assert_eq!(p.vertices, 0);
        assert_eq!(p.edges, 0);
        assert_eq!(p.density, 0.0);
        assert_eq!(p.mean_degree, 0.0);
        let dist = DegreeDistribution::total(&EvolvingGraph::new());
        assert_eq!(dist.mean(), 0.0);
        assert_eq!(dist.ccdf(0), 0.0);
    }
}

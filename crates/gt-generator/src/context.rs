//! Generation context: the shadow graph, entity indexes for O(1) random
//! selection, the id allocator, and the selection strategies of Table 3.

use std::collections::HashMap;

use gt_core::prelude::*;
use gt_core::{VertexBuildHasher, VertexMap};
use gt_graph::{ApplyError, EvolvingGraph};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::zipf::ZipfSampler;

/// How a target vertex is selected for an operation (Table 3 "Vertex/Edge
/// Selection Functions").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VertexSelector {
    /// Uniform over existing vertices.
    Uniform,
    /// Probability proportional to current total degree ("Zipf based on
    /// degree, bias towards strongly connected vertices"). Implemented
    /// exactly by drawing a uniform edge and one of its endpoints; falls
    /// back to uniform when the graph has no edges.
    DegreeProportional,
    /// Bias toward weakly connected vertices ("bias towards less connected
    /// vertices"): a tournament of `k` uniform candidates, keeping the one
    /// with the smallest total degree.
    LowDegreeTournament {
        /// Tournament size (≥ 1); larger means stronger bias.
        k: usize,
    },
    /// Zipf over vertex recency rank: rank 1 is the *most recently added*
    /// vertex. Models sustained attention on fresh entities.
    ZipfRecency {
        /// Zipf exponent.
        exponent: f64,
    },
}

impl VertexSelector {
    fn select(&self, ctx: &mut GenContext) -> Option<VertexId> {
        if ctx.vertices.is_empty() {
            return None;
        }
        match *self {
            VertexSelector::Uniform => Some(ctx.uniform_vertex()),
            VertexSelector::DegreeProportional => Some(ctx.degree_proportional_vertex()),
            VertexSelector::LowDegreeTournament { k } => Some(ctx.low_degree_vertex(k.max(1))),
            VertexSelector::ZipfRecency { exponent } => {
                let sampler = ZipfSampler::new(exponent);
                let rank = sampler.sample(ctx.vertices.len(), &mut ctx.rng);
                // Rank 1 = newest = last element of the insertion-ordered list.
                Some(ctx.vertices[ctx.vertices.len() - rank])
            }
        }
    }
}

/// Mutable generation state shared with [`crate::EvolutionModel`]
/// implementations — the Rust analogue of Listing 1's `globalContext`, plus
/// the shadow graph the generator uses to keep streams valid.
pub struct GenContext {
    /// The shadow graph: the exact graph a strict consumer would hold after
    /// the events emitted so far.
    pub graph: EvolvingGraph,
    /// Deterministic RNG for all selection randomness.
    pub rng: StdRng,
    vertices: Vec<VertexId>,
    /// Position maps: point lookups only, never iterated — their hash
    /// order cannot reach the stream.
    vertex_pos: VertexMap<usize>,
    edges: Vec<EdgeId>,
    edge_pos: HashMap<EdgeId, usize, VertexBuildHasher>,
    next_id: u64,
    /// Free-form numeric registers for custom models (Listing 1 lets the
    /// user thread arbitrary context; custom [`crate::EvolutionModel`]s own
    /// their state, this map is for quick prototyping).
    pub registers: HashMap<String, f64>,
}

impl GenContext {
    /// Creates an empty context with a deterministic RNG.
    pub fn new(seed: u64) -> Self {
        GenContext {
            graph: EvolvingGraph::new(),
            rng: StdRng::seed_from_u64(seed),
            vertices: Vec::new(),
            vertex_pos: VertexMap::default(),
            edges: Vec::new(),
            edge_pos: HashMap::default(),
            next_id: 0,
            registers: HashMap::new(),
        }
    }

    /// Number of live vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of live edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Allocates a fresh, never-used vertex id.
    pub fn allocate_vertex_id(&mut self) -> VertexId {
        let id = VertexId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Selects with the given strategy.
    pub fn select_vertex(&mut self, selector: VertexSelector) -> Option<VertexId> {
        selector.select(self)
    }

    /// A uniformly random live vertex.
    ///
    /// # Panics
    /// If the graph has no vertices.
    pub fn uniform_vertex(&mut self) -> VertexId {
        let i = self.rng.random_range(0..self.vertices.len());
        self.vertices[i]
    }

    /// A vertex drawn with probability proportional to total degree
    /// (uniform edge, then a uniformly chosen endpoint). Falls back to
    /// uniform if the graph has no edges.
    pub fn degree_proportional_vertex(&mut self) -> VertexId {
        if self.edges.is_empty() {
            return self.uniform_vertex();
        }
        let e = self.edges[self.rng.random_range(0..self.edges.len())];
        if self.rng.random_bool(0.5) {
            e.src
        } else {
            e.dst
        }
    }

    /// The lowest-total-degree vertex among `k` uniform candidates.
    pub(crate) fn low_degree_vertex(&mut self, k: usize) -> VertexId {
        let mut best = self.uniform_vertex();
        let mut best_deg = self.graph.degree(best).unwrap_or(0);
        for _ in 1..k {
            let cand = self.uniform_vertex();
            let deg = self.graph.degree(cand).unwrap_or(0);
            if deg < best_deg {
                best = cand;
                best_deg = deg;
            }
        }
        best
    }

    /// A uniformly random live edge, if any exist.
    pub fn uniform_edge(&mut self) -> Option<EdgeId> {
        if self.edges.is_empty() {
            return None;
        }
        let i = self.rng.random_range(0..self.edges.len());
        Some(self.edges[i])
    }

    /// Applies an event to the shadow graph, keeping the entity indexes in
    /// sync. Strict semantics: precondition violations are returned.
    pub fn apply(&mut self, event: &GraphEvent) -> Result<(), ApplyError> {
        // For vertex removal, capture incident edges *before* the cascade.
        let cascaded: Vec<EdgeId> = match event {
            GraphEvent::RemoveVertex { id } => {
                let out = self
                    .graph
                    .out_neighbors(*id)
                    .map(|dst| EdgeId::new(*id, dst));
                let inc = self
                    .graph
                    .in_neighbors(*id)
                    .map(|src| EdgeId::new(src, *id));
                out.chain(inc).collect()
            }
            _ => Vec::new(),
        };

        self.graph.apply(event)?;

        match event {
            GraphEvent::AddVertex { id, .. } => {
                self.vertex_pos.insert(*id, self.vertices.len());
                self.vertices.push(*id);
                self.next_id = self.next_id.max(id.0 + 1);
            }
            GraphEvent::RemoveVertex { id } => {
                self.remove_vertex_from_index(*id);
                for e in cascaded {
                    self.remove_edge_from_index(e);
                }
            }
            GraphEvent::AddEdge { id, .. } => {
                self.edge_pos.insert(*id, self.edges.len());
                self.edges.push(*id);
            }
            GraphEvent::RemoveEdge { id } => {
                self.remove_edge_from_index(*id);
            }
            GraphEvent::UpdateVertex { .. } | GraphEvent::UpdateEdge { .. } => {}
        }
        Ok(())
    }

    fn remove_vertex_from_index(&mut self, id: VertexId) {
        if let Some(pos) = self.vertex_pos.remove(&id) {
            self.vertices.swap_remove(pos);
            if pos < self.vertices.len() {
                self.vertex_pos.insert(self.vertices[pos], pos);
            }
        }
    }

    fn remove_edge_from_index(&mut self, id: EdgeId) {
        if let Some(pos) = self.edge_pos.remove(&id) {
            self.edges.swap_remove(pos);
            if pos < self.edges.len() {
                self.edge_pos.insert(self.edges[pos], pos);
            }
        }
    }

    /// Checks that the entity indexes mirror the shadow graph exactly.
    /// O(V + E); for tests.
    pub fn check_index_invariants(&self) -> Result<(), String> {
        if self.vertices.len() != self.graph.vertex_count() {
            return Err(format!(
                "vertex index has {} entries, graph has {}",
                self.vertices.len(),
                self.graph.vertex_count()
            ));
        }
        if self.edges.len() != self.graph.edge_count() {
            return Err(format!(
                "edge index has {} entries, graph has {}",
                self.edges.len(),
                self.graph.edge_count()
            ));
        }
        for (i, v) in self.vertices.iter().enumerate() {
            if !self.graph.has_vertex(*v) {
                return Err(format!("index holds missing vertex {v}"));
            }
            if self.vertex_pos.get(v) != Some(&i) {
                return Err(format!("vertex {v} position map out of sync"));
            }
        }
        for (i, e) in self.edges.iter().enumerate() {
            if !self.graph.has_edge(*e) {
                return Err(format!("index holds missing edge {e}"));
            }
            if self.edge_pos.get(e) != Some(&i) {
                return Err(format!("edge {e} position map out of sync"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_with_path(n: u64) -> GenContext {
        let mut ctx = GenContext::new(5);
        for event in gt_graph::builders::path(n).graph_events() {
            ctx.apply(event).unwrap();
        }
        ctx
    }

    #[test]
    fn allocation_is_fresh_after_bootstrap() {
        let mut ctx = ctx_with_path(5);
        let id = ctx.allocate_vertex_id();
        assert_eq!(id, VertexId(5));
        assert!(!ctx.graph.has_vertex(id));
    }

    #[test]
    fn indexes_track_applies() {
        let mut ctx = ctx_with_path(4);
        assert_eq!(ctx.vertex_count(), 4);
        assert_eq!(ctx.edge_count(), 3);
        ctx.apply(&GraphEvent::RemoveVertex { id: VertexId(1) })
            .unwrap();
        assert_eq!(ctx.vertex_count(), 3);
        // Vertex 1 had edges 0->1 and 1->2.
        assert_eq!(ctx.edge_count(), 1);
        ctx.check_index_invariants().unwrap();
    }

    #[test]
    fn uniform_edge_on_empty_graph_is_none() {
        let mut ctx = GenContext::new(0);
        assert_eq!(ctx.uniform_edge(), None);
        assert_eq!(ctx.select_vertex(VertexSelector::Uniform), None);
    }

    #[test]
    fn degree_proportional_prefers_hub() {
        // Star with center 0: center holds half of all endpoint slots.
        let mut ctx = GenContext::new(11);
        for event in gt_graph::builders::star(50).graph_events() {
            ctx.apply(event).unwrap();
        }
        let mut center_hits = 0;
        for _ in 0..2_000 {
            if ctx.degree_proportional_vertex() == VertexId(0) {
                center_hits += 1;
            }
        }
        // Expected ~50%; uniform would give 2%.
        assert!(center_hits > 600, "center hit {center_hits}/2000");
    }

    #[test]
    fn low_degree_tournament_avoids_hub() {
        let mut ctx = GenContext::new(12);
        for event in gt_graph::builders::star(50).graph_events() {
            ctx.apply(event).unwrap();
        }
        let mut center_hits = 0;
        for _ in 0..2_000 {
            if ctx.low_degree_vertex(8) == VertexId(0) {
                center_hits += 1;
            }
        }
        // Center has max degree; it should almost never win a min-degree
        // tournament of size 8.
        assert!(center_hits < 20, "center hit {center_hits}/2000");
    }

    #[test]
    fn zipf_recency_prefers_new_vertices() {
        let mut ctx = ctx_with_path(100);
        let mut newest_hits = 0;
        for _ in 0..2_000 {
            let v = ctx
                .select_vertex(VertexSelector::ZipfRecency { exponent: 1.2 })
                .unwrap();
            if v.0 >= 90 {
                newest_hits += 1;
            }
        }
        // Strong bias toward the newest decile (uniform would give ~200).
        assert!(newest_hits > 700, "newest hits {newest_hits}/2000");
    }

    #[test]
    fn apply_rejects_invalid_events_and_keeps_indexes() {
        let mut ctx = ctx_with_path(3);
        let err = ctx.apply(&GraphEvent::AddVertex {
            id: VertexId(0),
            state: State::empty(),
        });
        assert!(err.is_err());
        ctx.check_index_invariants().unwrap();
    }
}

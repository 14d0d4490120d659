//! Evolution models — the Rust analogue of the generator's user API
//! (paper Listing 1).
//!
//! An [`EvolutionModel`] decides, round by round, which event type comes
//! next (`nextEventType`), which entity it targets (`vertexSelect` /
//! `edgeSelect`), what state payloads look like (`insertVertex`,
//! `updateEdge`, …), and whether a candidate event is acceptable
//! (`constraint`). The built-in [`MixModel`] implements the whole API from
//! an [`EventMix`] ratio table plus selection strategies, which is exactly
//! how the paper's Weaver workload (Table 3) is specified.

use gt_core::prelude::*;
use rand::RngExt;

use crate::context::{GenContext, VertexSelector};

/// Ratios of the six event kinds in the evolution phase.
///
/// Values are weights; they need not sum to 1. Drawing normalizes on the
/// fly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventMix {
    /// Weight of `ADD_VERTEX`.
    pub add_vertex: f64,
    /// Weight of `REMOVE_VERTEX`.
    pub remove_vertex: f64,
    /// Weight of `UPDATE_VERTEX`.
    pub update_vertex: f64,
    /// Weight of `ADD_EDGE`.
    pub add_edge: f64,
    /// Weight of `REMOVE_EDGE`.
    pub remove_edge: f64,
    /// Weight of `UPDATE_EDGE`.
    pub update_edge: f64,
}

impl EventMix {
    /// The event mix of the paper's Table 3 (Weaver experiment):
    /// 10% create vertex, 5% remove vertex, 35% update vertex,
    /// 35% create edge, 15% remove edge, 0% update edge.
    pub fn table3() -> Self {
        EventMix {
            add_vertex: 0.10,
            remove_vertex: 0.05,
            update_vertex: 0.35,
            add_edge: 0.35,
            remove_edge: 0.15,
            update_edge: 0.0,
        }
    }

    /// The weight of a kind.
    pub(crate) fn weight(&self, kind: EventKind) -> f64 {
        match kind {
            EventKind::AddVertex => self.add_vertex,
            EventKind::RemoveVertex => self.remove_vertex,
            EventKind::UpdateVertex => self.update_vertex,
            EventKind::AddEdge => self.add_edge,
            EventKind::RemoveEdge => self.remove_edge,
            EventKind::UpdateEdge => self.update_edge,
        }
    }

    /// Sum of all weights.
    pub fn total(&self) -> f64 {
        EventKind::ALL.into_iter().map(|k| self.weight(k)).sum()
    }

    /// Draws an event kind proportional to the weights.
    ///
    /// # Panics
    /// If all weights are zero or any weight is negative.
    pub(crate) fn draw(&self, ctx: &mut GenContext) -> EventKind {
        let total = self.total();
        assert!(total > 0.0, "event mix must have positive total weight");
        for kind in EventKind::ALL {
            assert!(self.weight(kind) >= 0.0, "negative weight for {kind:?}");
        }
        let mut x = ctx.rng.random::<f64>() * total;
        for kind in EventKind::ALL {
            x -= self.weight(kind);
            if x < 0.0 {
                return kind;
            }
        }
        EventKind::UpdateEdge
    }
}

/// The user-extensible evolution rule set (Listing 1).
///
/// All methods have workable defaults except [`next_event_kind`]; custom
/// models override exactly the hooks they need.
///
/// [`next_event_kind`]: EvolutionModel::next_event_kind
pub trait EvolutionModel {
    /// `nextEventType`: which event kind the next round emits.
    fn next_event_kind(&mut self, ctx: &mut GenContext) -> EventKind;

    /// `vertexSelect`: the target for `REMOVE_VERTEX`/`UPDATE_VERTEX`.
    /// Default: uniform over live vertices.
    fn select_vertex(&mut self, kind: EventKind, ctx: &mut GenContext) -> Option<VertexId> {
        let _ = kind;
        ctx.select_vertex(VertexSelector::Uniform)
    }

    /// `edgeSelect` for `ADD_EDGE`: the new endpoints (must be existing
    /// vertices). Default: uniform source, uniform target.
    fn select_new_edge(&mut self, ctx: &mut GenContext) -> Option<EdgeId> {
        if ctx.vertex_count() < 2 {
            return None;
        }
        let src = ctx.select_vertex(VertexSelector::Uniform)?;
        let dst = ctx.select_vertex(VertexSelector::Uniform)?;
        Some(EdgeId::new(src, dst))
    }

    /// `edgeSelect` for `REMOVE_EDGE`/`UPDATE_EDGE`: an existing edge.
    /// Default: uniform over live edges.
    fn select_existing_edge(&mut self, kind: EventKind, ctx: &mut GenContext) -> Option<EdgeId> {
        let _ = kind;
        ctx.uniform_edge()
    }

    /// `insertVertex`: initial state for a new vertex.
    fn vertex_insert_state(&mut self, id: VertexId, ctx: &mut GenContext) -> State {
        let _ = (id, ctx);
        State::empty()
    }

    /// `updateVertex`: new state for a vertex update.
    fn vertex_update_state(&mut self, id: VertexId, ctx: &mut GenContext) -> State {
        let _ = (id, ctx);
        State::empty()
    }

    /// `insertEdge`: initial state for a new edge.
    fn edge_insert_state(&mut self, id: EdgeId, ctx: &mut GenContext) -> State {
        let _ = (id, ctx);
        State::empty()
    }

    /// `updateEdge`: new state for an edge update.
    fn edge_update_state(&mut self, id: EdgeId, ctx: &mut GenContext) -> State {
        let _ = (id, ctx);
        State::empty()
    }

    /// `constraint`: veto a candidate event. Default: accept everything.
    fn constraint(&mut self, event: &GraphEvent, ctx: &GenContext) -> bool {
        let _ = (event, ctx);
        true
    }
}

/// The built-in model: an [`EventMix`] plus per-operation selection
/// strategies, with optional weight payloads on edges.
#[derive(Debug, Clone)]
pub struct MixModel {
    /// Event-kind ratio table.
    pub mix: EventMix,
    /// Selector for `REMOVE_VERTEX` targets. Table 3: bias toward less
    /// connected vertices.
    pub remove_vertex_selector: VertexSelector,
    /// Selector for `UPDATE_VERTEX` targets. Table 3: uniform-random.
    pub update_vertex_selector: VertexSelector,
    /// Selector for new-edge sources. Table 3: uniform-random.
    pub edge_src_selector: VertexSelector,
    /// Selector for new-edge targets. Table 3: Zipf based on degree, bias
    /// towards strongly connected vertices.
    pub edge_dst_selector: VertexSelector,
    /// When set, new and updated edges carry a numeric weight drawn
    /// uniformly from this range.
    pub edge_weight_range: Option<(f64, f64)>,
    /// Monotone version counter embedded in vertex update payloads, so
    /// update streams are distinguishable.
    version: u64,
}

impl MixModel {
    /// Builds a model with Table 3 selection strategies.
    pub fn new(mix: EventMix) -> Self {
        MixModel {
            mix,
            remove_vertex_selector: VertexSelector::LowDegreeTournament { k: 8 },
            update_vertex_selector: VertexSelector::Uniform,
            edge_src_selector: VertexSelector::Uniform,
            edge_dst_selector: VertexSelector::DegreeProportional,
            edge_weight_range: None,
            version: 0,
        }
    }

    /// Exactly the paper's Table 3 workload model.
    pub fn table3() -> Self {
        MixModel::new(EventMix::table3())
    }
}

impl EvolutionModel for MixModel {
    fn next_event_kind(&mut self, ctx: &mut GenContext) -> EventKind {
        self.mix.draw(ctx)
    }

    fn select_vertex(&mut self, kind: EventKind, ctx: &mut GenContext) -> Option<VertexId> {
        let selector = match kind {
            EventKind::RemoveVertex => self.remove_vertex_selector,
            _ => self.update_vertex_selector,
        };
        ctx.select_vertex(selector)
    }

    fn select_new_edge(&mut self, ctx: &mut GenContext) -> Option<EdgeId> {
        if ctx.vertex_count() < 2 {
            return None;
        }
        let src = ctx.select_vertex(self.edge_src_selector)?;
        let dst = ctx.select_vertex(self.edge_dst_selector)?;
        Some(EdgeId::new(src, dst))
    }

    fn vertex_update_state(&mut self, _id: VertexId, _ctx: &mut GenContext) -> State {
        self.version += 1;
        State::from_fields([("v", self.version.to_string())])
    }

    fn edge_insert_state(&mut self, _id: EdgeId, ctx: &mut GenContext) -> State {
        match self.edge_weight_range {
            Some((lo, hi)) => State::weight(ctx.rng.random_range(lo..=hi)),
            None => State::empty(),
        }
    }

    fn edge_update_state(&mut self, id: EdgeId, ctx: &mut GenContext) -> State {
        self.edge_insert_state(id, ctx)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Pure growth: additions only (insert-only workloads such as the
    /// paper's write-throughput test with a growing graph).
    pub(crate) fn growth_only() -> EventMix {
        EventMix {
            add_vertex: 0.2,
            remove_vertex: 0.0,
            update_vertex: 0.0,
            add_edge: 0.8,
            remove_edge: 0.0,
            update_edge: 0.0,
        }
    }
    use std::collections::BTreeMap;

    #[test]
    fn table3_mix_sums_to_one() {
        assert!((EventMix::table3().total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn draw_respects_ratios() {
        let mix = EventMix::table3();
        let mut ctx = GenContext::new(77);
        let mut counts: BTreeMap<EventKind, usize> = BTreeMap::new();
        let draws = 100_000;
        for _ in 0..draws {
            *counts.entry(mix.draw(&mut ctx)).or_insert(0) += 1;
        }
        for kind in EventKind::ALL {
            let expected = mix.weight(kind) / mix.total();
            let actual = *counts.get(&kind).unwrap_or(&0) as f64 / draws as f64;
            assert!(
                (actual - expected).abs() < 0.01,
                "{kind:?}: expected {expected}, got {actual}"
            );
        }
        // update_edge has weight zero and must never be drawn.
        assert_eq!(counts.get(&EventKind::UpdateEdge), None);
    }

    #[test]
    #[should_panic(expected = "positive total weight")]
    fn zero_mix_panics() {
        let mix = EventMix {
            add_vertex: 0.0,
            remove_vertex: 0.0,
            update_vertex: 0.0,
            add_edge: 0.0,
            remove_edge: 0.0,
            update_edge: 0.0,
        };
        let mut ctx = GenContext::new(0);
        mix.draw(&mut ctx);
    }

    #[test]
    fn mix_model_emits_weighted_edges_when_configured() {
        let mut model = MixModel::new(growth_only());
        model.edge_weight_range = Some((1.0, 2.0));
        let mut ctx = GenContext::new(3);
        for event in gt_graph::builders::path(3).graph_events() {
            ctx.apply(event).unwrap();
        }
        let state = model.edge_insert_state(EdgeId::from((0, 2)), &mut ctx);
        let w = state.as_weight().unwrap();
        assert!((1.0..=2.0).contains(&w));
    }

    #[test]
    fn mix_model_versioned_vertex_updates() {
        let mut model = MixModel::table3();
        let mut ctx = GenContext::new(3);
        let s1 = model.vertex_update_state(VertexId(0), &mut ctx);
        let s2 = model.vertex_update_state(VertexId(0), &mut ctx);
        assert_ne!(s1, s2);
        assert_eq!(s1.get_field("v"), Some("1"));
        assert_eq!(s2.get_field("v"), Some("2"));
    }
}

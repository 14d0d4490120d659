//! The round-based stream generator.
//!
//! Each round asks the [`EvolutionModel`] for an event kind and a target,
//! validates the candidate against the shadow graph (strict semantics plus
//! the model's `constraint` hook), and retries with fresh selections when a
//! candidate is infeasible — e.g. `ADD_EDGE` drew an existing pair, or
//! `REMOVE_VERTEX` on an empty graph. Rounds whose kind cannot produce any
//! valid event are re-drawn, so the emitted stream always applies cleanly
//! onto the bootstrap graph under strict semantics.

use gt_core::prelude::*;
use gt_graph::ApplyError;

use crate::context::GenContext;
use crate::model::EvolutionModel;

/// Outcome of an evolution phase.
#[derive(Debug, Clone, PartialEq)]
pub struct EvolutionResult {
    /// The generated event stream (graph events only).
    pub stream: GraphStream,
    /// Generation statistics.
    pub report: GenReport,
}

/// Statistics of a generation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GenReport {
    /// Events emitted.
    pub emitted: usize,
    /// Candidate events re-drawn because selection was infeasible or the
    /// constraint hook vetoed them.
    pub retries: usize,
    /// Rounds abandoned entirely after exhausting the retry budget.
    pub skipped_rounds: usize,
}

/// Drives an [`EvolutionModel`] over a shadow graph.
pub struct StreamGenerator<M> {
    model: M,
    pub(crate) ctx: GenContext,
    /// Fresh selections attempted per round before the round is skipped.
    pub max_retries_per_round: usize,
}

impl<M: EvolutionModel> StreamGenerator<M> {
    /// Creates a generator with the given model and RNG seed.
    pub fn new(model: M, seed: u64) -> Self {
        StreamGenerator {
            model,
            ctx: GenContext::new(seed),
            max_retries_per_round: 64,
        }
    }

    /// Applies a bootstrap stream to the shadow graph. Typically the output
    /// of [`gt_graph::builders`]; call before [`evolve`](Self::evolve).
    pub fn bootstrap(&mut self, stream: &GraphStream) -> Result<(), ApplyError> {
        for event in stream.graph_events() {
            self.ctx.apply(event)?;
        }
        Ok(())
    }

    /// Runs `rounds` evolution rounds, emitting at most one event each.
    pub fn evolve(&mut self, rounds: usize) -> EvolutionResult {
        let mut stream = GraphStream::new();
        let mut report = GenReport::default();

        for _ in 0..rounds {
            match self.generate_one(&mut report) {
                Some(event) => {
                    self.ctx
                        .apply(&event)
                        .expect("validated candidates must apply");
                    stream.push(StreamEntry::Graph(event));
                    report.emitted += 1;
                }
                None => report.skipped_rounds += 1,
            }
        }

        EvolutionResult { stream, report }
    }

    /// Produces one validated event, or `None` if the retry budget is
    /// exhausted.
    fn generate_one(&mut self, report: &mut GenReport) -> Option<GraphEvent> {
        for _ in 0..self.max_retries_per_round.max(1) {
            let kind = self.model.next_event_kind(&mut self.ctx);
            let candidate = self.candidate_for(kind);
            match candidate {
                Some(event)
                    if self.is_feasible(&event) && self.model.constraint(&event, &self.ctx) =>
                {
                    return Some(event);
                }
                _ => report.retries += 1,
            }
        }
        None
    }

    /// Builds a candidate event of the requested kind, or `None` if the
    /// graph cannot currently support one.
    fn candidate_for(&mut self, kind: EventKind) -> Option<GraphEvent> {
        match kind {
            EventKind::AddVertex => {
                let id = self.ctx.allocate_vertex_id();
                let state = self.model.vertex_insert_state(id, &mut self.ctx);
                Some(GraphEvent::AddVertex { id, state })
            }
            EventKind::RemoveVertex => {
                let id = self.model.select_vertex(kind, &mut self.ctx)?;
                Some(GraphEvent::RemoveVertex { id })
            }
            EventKind::UpdateVertex => {
                let id = self.model.select_vertex(kind, &mut self.ctx)?;
                let state = self.model.vertex_update_state(id, &mut self.ctx);
                Some(GraphEvent::UpdateVertex { id, state })
            }
            EventKind::AddEdge => {
                let id = self.model.select_new_edge(&mut self.ctx)?;
                let state = self.model.edge_insert_state(id, &mut self.ctx);
                Some(GraphEvent::AddEdge { id, state })
            }
            EventKind::RemoveEdge => {
                let id = self.model.select_existing_edge(kind, &mut self.ctx)?;
                Some(GraphEvent::RemoveEdge { id })
            }
            EventKind::UpdateEdge => {
                let id = self.model.select_existing_edge(kind, &mut self.ctx)?;
                let state = self.model.edge_update_state(id, &mut self.ctx);
                Some(GraphEvent::UpdateEdge { id, state })
            }
        }
    }

    /// Strict-semantics feasibility of a candidate on the shadow graph.
    fn is_feasible(&self, event: &GraphEvent) -> bool {
        let g = &self.ctx.graph;
        match event {
            GraphEvent::AddVertex { id, .. } => !g.has_vertex(*id),
            GraphEvent::RemoveVertex { id } | GraphEvent::UpdateVertex { id, .. } => {
                g.has_vertex(*id)
            }
            GraphEvent::AddEdge { id, .. } => {
                !id.is_self_loop()
                    && g.has_vertex(id.src)
                    && g.has_vertex(id.dst)
                    && !g.has_edge(*id)
            }
            GraphEvent::RemoveEdge { id } | GraphEvent::UpdateEdge { id, .. } => g.has_edge(*id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MixModel;
    use gt_graph::builders::BarabasiAlbert;
    use gt_graph::EvolvingGraph;

    fn generator_with_ba() -> StreamGenerator<MixModel> {
        let bootstrap = BarabasiAlbert {
            n: 200,
            m0: 8,
            m: 3,
            seed: 4,
        }
        .generate();
        let mut generator = StreamGenerator::new(MixModel::table3(), 99);
        generator.bootstrap(&bootstrap).unwrap();
        generator
    }

    #[test]
    fn evolution_stream_applies_cleanly_after_bootstrap() {
        let bootstrap = BarabasiAlbert {
            n: 200,
            m0: 8,
            m: 3,
            seed: 4,
        }
        .generate();
        let mut generator = generator_with_ba();
        let result = generator.evolve(2_000);
        assert_eq!(result.report.emitted, 2_000);
        assert_eq!(result.report.skipped_rounds, 0);

        // Replay externally: bootstrap + evolution applies strictly.
        let mut g = EvolvingGraph::from_stream(&bootstrap).unwrap();
        for event in result.stream.graph_events() {
            g.apply(event).unwrap();
        }
        g.check_invariants().unwrap();
        assert_eq!(g.vertex_count(), generator.ctx.graph.vertex_count());
        assert_eq!(g.edge_count(), generator.ctx.graph.edge_count());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generator_with_ba().evolve(500);
        let b = generator_with_ba().evolve(500);
        assert_eq!(a.stream, b.stream);
    }

    #[test]
    fn different_seeds_differ() {
        let bootstrap = gt_graph::builders::path(50);
        let mut g1 = StreamGenerator::new(MixModel::table3(), 1);
        let mut g2 = StreamGenerator::new(MixModel::table3(), 2);
        g1.bootstrap(&bootstrap).unwrap();
        g2.bootstrap(&bootstrap).unwrap();
        assert_ne!(g1.evolve(200).stream, g2.evolve(200).stream);
    }

    #[test]
    fn event_mix_is_respected_in_output() {
        let mut generator = generator_with_ba();
        let result = generator.evolve(20_000);
        let stats = result.stream.stats();
        let total = stats.graph_events as f64;
        // The realized mix deviates from nominal because infeasible
        // candidates retry, but it must stay in the neighborhood.
        let add_edge_frac = stats.count(EventKind::AddEdge) as f64 / total;
        assert!((0.25..=0.45).contains(&add_edge_frac), "{add_edge_frac}");
        let upd_vertex_frac = stats.count(EventKind::UpdateVertex) as f64 / total;
        assert!(
            (0.25..=0.45).contains(&upd_vertex_frac),
            "{upd_vertex_frac}"
        );
        assert_eq!(stats.count(EventKind::UpdateEdge), 0);
    }

    #[test]
    fn growth_only_never_shrinks() {
        let mut generator =
            StreamGenerator::new(MixModel::new(crate::model::tests::growth_only()), 5);
        generator.bootstrap(&gt_graph::builders::path(10)).unwrap();
        let before_v = generator.ctx.graph.vertex_count();
        let result = generator.evolve(1_000);
        let stats = result.stream.stats();
        assert_eq!(stats.count(EventKind::RemoveVertex), 0);
        assert_eq!(stats.count(EventKind::RemoveEdge), 0);
        assert!(generator.ctx.graph.vertex_count() >= before_v);
    }

    #[test]
    fn empty_bootstrap_still_generates_via_add_vertex() {
        // With no vertices, only ADD_VERTEX is feasible; the generator must
        // re-draw until the mix produces one.
        let mut generator = StreamGenerator::new(MixModel::table3(), 8);
        let result = generator.evolve(50);
        assert_eq!(result.report.emitted, 50);
        assert!(generator.ctx.graph.vertex_count() > 0);
    }

    /// A constraint hook that forbids removing vertex 0.
    struct ProtectZero(MixModel);

    impl EvolutionModel for ProtectZero {
        fn next_event_kind(&mut self, ctx: &mut GenContext) -> EventKind {
            self.0.next_event_kind(ctx)
        }
        fn select_vertex(&mut self, kind: EventKind, ctx: &mut GenContext) -> Option<VertexId> {
            self.0.select_vertex(kind, ctx)
        }
        fn select_new_edge(&mut self, ctx: &mut GenContext) -> Option<EdgeId> {
            self.0.select_new_edge(ctx)
        }
        fn constraint(&mut self, event: &GraphEvent, _ctx: &GenContext) -> bool {
            !matches!(event, GraphEvent::RemoveVertex { id } if id.0 == 0)
        }
    }

    #[test]
    fn constraint_hook_vetoes_events() {
        let mut generator = StreamGenerator::new(ProtectZero(MixModel::table3()), 21);
        generator.bootstrap(&gt_graph::builders::ring(30)).unwrap();
        generator.evolve(3_000);
        assert!(generator.ctx.graph.has_vertex(VertexId(0)));
    }

    #[test]
    fn context_index_invariants_hold_after_long_run() {
        let mut generator = generator_with_ba();
        generator.evolve(5_000);
        generator.ctx.check_index_invariants().unwrap();
    }
}

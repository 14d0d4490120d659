//! Property-based tests of the evolving graph: arbitrary *valid* event
//! sequences keep the invariants (reverse index consistent, no dangling
//! edges, counts accurate), arbitrary *hostile* event sequences applied
//! leniently never corrupt the graph, and under both policies the graph
//! answers event for event like [`model::ModelGraph`] — the ordered-map
//! representation `EvolvingGraph` had before it moved onto a hashed slab.

use gt_core::prelude::*;
use gt_graph::{ApplyPolicy, EvolvingGraph};
use proptest::prelude::*;

/// The reference: `EvolvingGraph` as one `BTreeMap` of vertices, each with
/// its own ordered out-map and in-set. Slow, obviously ordered, and with
/// no slots to reuse — what the slab must be indistinguishable from.
mod model {
    use std::collections::{BTreeMap, BTreeSet};

    use gt_core::prelude::*;
    use gt_graph::{Applied, ApplyError, ApplyPolicy};

    #[derive(Default)]
    pub struct ModelVertex {
        pub state: State,
        pub out: BTreeMap<VertexId, State>,
        pub inc: BTreeSet<VertexId>,
    }

    #[derive(Default)]
    pub struct ModelGraph {
        pub vertices: BTreeMap<VertexId, ModelVertex>,
        pub applied_events: u64,
    }

    impl ModelGraph {
        pub fn edges(&self) -> Vec<(EdgeId, State)> {
            let mut edges = Vec::new();
            for (src, v) in &self.vertices {
                for (dst, state) in &v.out {
                    edges.push((EdgeId::new(*src, *dst), state.clone()));
                }
            }
            edges
        }

        fn has_edge(&self, id: EdgeId) -> bool {
            let src = self.vertices.get(&id.src);
            src.is_some_and(|v| v.out.contains_key(&id.dst))
        }

        pub fn apply_with(
            &mut self,
            event: &GraphEvent,
            policy: ApplyPolicy,
        ) -> Result<Applied, ApplyError> {
            let lenient = policy == ApplyPolicy::Lenient;
            let violated = |e: ApplyError| if lenient { Ok(Applied::noop()) } else { Err(e) };
            let outcome = match event {
                GraphEvent::AddVertex { id, .. } if self.vertices.contains_key(id) => {
                    violated(ApplyError::VertexExists(*id))?
                }
                GraphEvent::AddVertex { id, state } => {
                    let state = state.clone();
                    let fresh = ModelVertex {
                        state,
                        ..ModelVertex::default()
                    };
                    self.vertices.insert(*id, fresh);
                    Applied::mutated()
                }
                GraphEvent::RemoveVertex { id } => match self.vertices.remove(id) {
                    None => violated(ApplyError::MissingVertex(*id))?,
                    Some(gone) => {
                        for dst in gone.out.keys() {
                            self.vertices.get_mut(dst).unwrap().inc.remove(id);
                        }
                        for src in &gone.inc {
                            self.vertices.get_mut(src).unwrap().out.remove(id);
                        }
                        let cascaded_edge_removals = gone.out.len() + gone.inc.len();
                        Applied {
                            mutated: true,
                            cascaded_edge_removals,
                        }
                    }
                },
                GraphEvent::UpdateVertex { id, state } => match self.vertices.get_mut(id) {
                    None => violated(ApplyError::MissingVertex(*id))?,
                    Some(v) => {
                        v.state = state.clone();
                        Applied::mutated()
                    }
                },
                GraphEvent::AddEdge { id, .. } if id.is_self_loop() => {
                    return Err(ApplyError::SelfLoop(id.src));
                }
                // Dropped for a missing endpoint: not counted as applied.
                GraphEvent::AddEdge { id, .. } if !self.vertices.contains_key(&id.src) => {
                    return violated(ApplyError::MissingVertex(id.src));
                }
                GraphEvent::AddEdge { id, .. } if !self.vertices.contains_key(&id.dst) => {
                    return violated(ApplyError::MissingVertex(id.dst));
                }
                GraphEvent::AddEdge { id, .. } if self.has_edge(*id) => {
                    violated(ApplyError::EdgeExists(*id))?
                }
                GraphEvent::AddEdge { id, state } => {
                    let src = self.vertices.get_mut(&id.src).unwrap();
                    src.out.insert(id.dst, state.clone());
                    self.vertices.get_mut(&id.dst).unwrap().inc.insert(id.src);
                    Applied::mutated()
                }
                GraphEvent::RemoveEdge { id } | GraphEvent::UpdateEdge { id, .. }
                    if !self.has_edge(*id) =>
                {
                    violated(ApplyError::MissingEdge(*id))?
                }
                GraphEvent::RemoveEdge { id } => {
                    self.vertices.get_mut(&id.src).unwrap().out.remove(&id.dst);
                    self.vertices.get_mut(&id.dst).unwrap().inc.remove(&id.src);
                    Applied::mutated()
                }
                GraphEvent::UpdateEdge { id, state } => {
                    let src = self.vertices.get_mut(&id.src).unwrap();
                    src.out.insert(id.dst, state.clone());
                    Applied::mutated()
                }
            };
            self.applied_events += 1;
            Ok(outcome)
        }
    }
}

/// Ids the differential properties draw from: few enough that removals,
/// re-adds and duplicate edges hit, enough that a vertex can pass the
/// inline adjacency's eight neighbours and turn into a hub.
const UNIVERSE: u64 = 14;

/// Events weighted towards a populated graph (adds before removes), so
/// sequences reach hubs, cascades and slot reuse instead of bouncing off
/// an empty graph.
fn weighted_event() -> impl Strategy<Value = GraphEvent> {
    let vid = (0..UNIVERSE).prop_map(VertexId);
    let eid = ((0..UNIVERSE), (0..UNIVERSE)).prop_map(EdgeId::from);
    let state = || "[a-z]{0,3}".prop_map(State::new);
    prop_oneof![
        4 => (vid.clone(), state()).prop_map(|(id, state)| GraphEvent::AddVertex { id, state }),
        2 => vid.clone().prop_map(|id| GraphEvent::RemoveVertex { id }),
        1 => (vid, state()).prop_map(|(id, state)| GraphEvent::UpdateVertex { id, state }),
        12 => (eid.clone(), state()).prop_map(|(id, state)| GraphEvent::AddEdge { id, state }),
        3 => eid.clone().prop_map(|id| GraphEvent::RemoveEdge { id }),
        1 => (eid, state()).prop_map(|(id, state)| GraphEvent::UpdateEdge { id, state }),
    ]
}

/// Everything observable about `g`, checked against the model.
fn assert_matches_model(g: &EvolvingGraph, m: &model::ModelGraph) -> Result<(), TestCaseError> {
    prop_assert_eq!(g.check_invariants(), Ok(()));
    prop_assert_eq!(g.vertex_count(), m.vertices.len());
    prop_assert_eq!(g.applied_events(), m.applied_events);
    let ids: Vec<VertexId> = m.vertices.keys().copied().collect();
    prop_assert_eq!(g.vertices().collect::<Vec<_>>(), ids);
    let states: Vec<_> = g
        .vertices_with_state()
        .map(|(v, s)| (v, s.clone()))
        .collect();
    let model_states: Vec<_> = m
        .vertices
        .iter()
        .map(|(v, d)| (*v, d.state.clone()))
        .collect();
    prop_assert_eq!(states, model_states);
    let edges: Vec<_> = g.edges().map(|(e, s)| (e, s.clone())).collect();
    prop_assert_eq!(g.edge_count(), edges.len());
    prop_assert_eq!(edges, m.edges());
    for id in (0..UNIVERSE).map(VertexId) {
        let (out, inc): (Vec<_>, Vec<_>) = match m.vertices.get(&id) {
            Some(v) => (
                v.out.keys().copied().collect(),
                v.inc.iter().copied().collect(),
            ),
            None => Default::default(),
        };
        prop_assert_eq!(g.has_vertex(id), m.vertices.contains_key(&id));
        prop_assert_eq!(g.out_neighbors(id).collect::<Vec<_>>(), out);
        prop_assert_eq!(g.in_neighbors(id).collect::<Vec<_>>(), inc);
    }
    Ok(())
}

/// An arbitrary event over a small id universe — most will violate
/// preconditions, which is the point for the lenient test.
fn arbitrary_event() -> impl Strategy<Value = GraphEvent> {
    let vid = (0u64..20).prop_map(VertexId);
    let eid = ((0u64..20), (0u64..20)).prop_map(EdgeId::from);
    prop_oneof![
        (vid.clone(), "[a-z]{0,6}").prop_map(|(id, s)| GraphEvent::AddVertex {
            id,
            state: State::new(s)
        }),
        vid.clone().prop_map(|id| GraphEvent::RemoveVertex { id }),
        (vid, "[a-z]{0,6}").prop_map(|(id, s)| GraphEvent::UpdateVertex {
            id,
            state: State::new(s)
        }),
        (eid.clone(), "[a-z]{0,6}").prop_map(|(id, s)| GraphEvent::AddEdge {
            id,
            state: State::new(s)
        }),
        eid.clone().prop_map(|id| GraphEvent::RemoveEdge { id }),
        (eid, "[a-z]{0,6}").prop_map(|(id, s)| GraphEvent::UpdateEdge {
            id,
            state: State::new(s)
        }),
    ]
}

proptest! {
    /// Lenient application of any event sequence keeps internal
    /// invariants — the store's and the ordered index's — after every event.
    #[test]
    fn lenient_application_never_corrupts(events in proptest::collection::vec(arbitrary_event(), 0..200)) {
        let mut g = EvolvingGraph::new();
        for event in &events {
            match g.apply_with(event, ApplyPolicy::Lenient) {
                Ok(_) => {}
                // Self loops are the only error lenient mode reports.
                Err(e) => prop_assert!(matches!(e, gt_graph::ApplyError::SelfLoop(_))),
            }
            prop_assert_eq!(g.check_invariants(), Ok(()), "{:?}", event);
        }
    }

    /// Replaying the accepted prefix of events strictly gives the same graph.
    #[test]
    fn lenient_equals_strict_on_accepted_events(events in proptest::collection::vec(arbitrary_event(), 0..150)) {
        let mut lenient = EvolvingGraph::new();
        let mut accepted = Vec::new();
        for event in &events {
            if let Ok(applied) = lenient.apply_with(event, ApplyPolicy::Lenient) {
                if applied.mutated {
                    accepted.push(event.clone());
                }
            }
        }
        let mut strict = EvolvingGraph::new();
        for event in &accepted {
            strict.apply(event).expect("accepted events must replay strictly");
        }
        prop_assert_eq!(strict.vertex_count(), lenient.vertex_count());
        prop_assert_eq!(strict.edge_count(), lenient.edge_count());
        // Full state equivalence, not only counts.
        let sv: Vec<_> = strict.vertices_with_state().map(|(v, s)| (v, s.clone())).collect();
        let lv: Vec<_> = lenient.vertices_with_state().map(|(v, s)| (v, s.clone())).collect();
        prop_assert_eq!(sv, lv);
        let se: Vec<_> = strict.edges().map(|(e, s)| (e, s.clone())).collect();
        let le: Vec<_> = lenient.edges().map(|(e, s)| (e, s.clone())).collect();
        prop_assert_eq!(se, le);
    }

    /// Degree sums always equal edge counts.
    #[test]
    fn degree_sums_match_edges(events in proptest::collection::vec(arbitrary_event(), 0..200)) {
        let mut g = EvolvingGraph::new();
        for event in &events {
            let _ = g.apply_with(event, ApplyPolicy::Lenient);
        }
        let out_sum: usize = g.vertices().map(|v| g.out_degree(v).unwrap()).sum();
        let in_sum: usize = g.vertices().map(|v| g.in_degree(v).unwrap()).sum();
        prop_assert_eq!(out_sum, g.edge_count());
        prop_assert_eq!(in_sum, g.edge_count());
    }

    /// CSR snapshots mirror the graph they were taken from.
    #[test]
    fn csr_matches_graph(events in proptest::collection::vec(arbitrary_event(), 0..150)) {
        let mut g = EvolvingGraph::new();
        for event in &events {
            let _ = g.apply_with(event, ApplyPolicy::Lenient);
        }
        let csr = gt_graph::CsrSnapshot::from_graph(&g);
        prop_assert_eq!(csr.vertex_count(), g.vertex_count());
        prop_assert_eq!(csr.edge_count(), g.edge_count());
        for idx in csr.indices() {
            let id = csr.id_of(idx);
            prop_assert_eq!(csr.out_degree(idx), g.out_degree(id).unwrap());
            prop_assert_eq!(csr.in_degree(idx), g.in_degree(id).unwrap());
            let csr_out: Vec<VertexId> =
                csr.out_neighbors(idx).iter().map(|&i| csr.id_of(i)).collect();
            let g_out: Vec<VertexId> = g.out_neighbors(id).collect();
            prop_assert_eq!(csr_out, g_out);
        }
    }

    /// Event for event, under either policy, the slab-backed graph is the
    /// ordered-map model: same result, same iteration sequences, same
    /// counts, coherent indexes — through cascades, hubs and id reuse.
    #[test]
    fn behaves_like_the_ordered_map_model(
        events in proptest::collection::vec(weighted_event(), 0..400),
        lenient in any::<bool>(),
    ) {
        let policy = if lenient { ApplyPolicy::Lenient } else { ApplyPolicy::Strict };
        let mut g = EvolvingGraph::new();
        let mut m = model::ModelGraph::default();
        for event in &events {
            prop_assert_eq!(g.apply_with(event, policy), m.apply_with(event, policy), "{:?}", event);
            assert_matches_model(&g, &m)?;
        }
    }

    /// Equality is about the graph, not about which slots its history left
    /// the payloads in: a graph that went through removals and re-adds
    /// equals one built straight from its final state, and its snapshot.
    #[test]
    fn equality_ignores_history(events in proptest::collection::vec(weighted_event(), 0..300)) {
        let mut churned = EvolvingGraph::new();
        for event in &events {
            let _ = churned.apply_with(event, ApplyPolicy::Lenient);
        }
        // The same state by the shortest route, highest id first.
        let vertices: Vec<_> = churned.vertices_with_state().map(|(v, s)| (v, s.clone())).collect();
        let mut direct = EvolvingGraph::new();
        for (id, state) in vertices.into_iter().rev() {
            direct.apply(&GraphEvent::AddVertex { id, state }).unwrap();
        }
        for (id, state) in churned.edges().map(|(e, s)| (e, s.clone())) {
            direct.apply(&GraphEvent::AddEdge { id, state }).unwrap();
        }
        // `applied_events` is part of a graph's value; level it with
        // no-ops (lenient duplicate adds count as applied).
        prop_assume!(churned.vertex_count() > 0);
        let noop = GraphEvent::AddVertex { id: direct.vertices().next().unwrap(), state: State::empty() };
        prop_assume!(direct.applied_events() <= churned.applied_events());
        while direct.applied_events() < churned.applied_events() {
            direct.apply_with(&noop, ApplyPolicy::Lenient).unwrap();
        }
        prop_assert_eq!(&churned, &direct);
        prop_assert_eq!(&churned.snapshot(), &churned);
        prop_assert_eq!(direct.check_invariants(), Ok(()));

        // And it notices a difference a reused slot could hide.
        let mut other = direct.snapshot();
        let first = other.vertices().next().unwrap();
        other.apply(&GraphEvent::UpdateVertex { id: first, state: State::new("changed!") }).unwrap();
        direct.apply_with(&noop, ApplyPolicy::Lenient).unwrap();
        prop_assert_ne!(&other, &direct);
    }
}

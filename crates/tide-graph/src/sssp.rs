//! Online single-source shortest distances — Table 1's "distributed
//! routing algorithms" as a second vertex program for the engine.
//!
//! The program is distributed Bellman–Ford: the source holds distance 0;
//! whenever a vertex's distance improves or its out-edges change, it
//! *offers* `distance + weight` to each out-neighbor as a computational
//! message; a vertex accepts an offer that beats its current distance.
//! On a static graph this converges to exact shortest distances; on an
//! evolving graph the current distances are the approximation whose
//! freshness depends on backlog, exactly like the rank program.
//!
//! **Monotonicity caveat** (the KickStarter problem the paper's
//! introduction cites): relaxation only ever *lowers* distances, so edge
//! removals and weight increases can leave stale, over-optimistic
//! distances behind. The partition counts such hazards
//! ([`DistancePartition::stale_hazards`]); an analyst triggers a restart
//! (re-relaxation from the source) when the count matters. This is the
//! documented trade-off, not an oversight — trimming-based repair is the
//! subject of dedicated systems (KickStarter).

use gt_core::prelude::*;
use gt_graph::HybridAdjacency;

use crate::program::{Outbox, Partition, VertexMap};

/// A distance offer: the proposing path length.
pub(crate) type DistanceOffer = f64;

#[derive(Debug, Clone, Default)]
struct VState {
    dist: Option<f64>,
    out: HybridAdjacency<f64>,
}

/// One worker's share of the online SSSP computation.
#[derive(Debug, Clone)]
pub struct DistancePartition {
    source: VertexId,
    vertices: VertexMap<VState>,
    stale_hazards: u64,
    /// Scratch of [`Partition::flush_dirty`], empty between calls: the
    /// dirty vertices that have built their offers in this call.
    offered: VertexMap<()>,
}

impl DistancePartition {
    /// A partition computing distances from `source`.
    pub fn new(source: VertexId) -> Self {
        DistancePartition {
            source,
            vertices: VertexMap::default(),
            stale_hazards: 0,
            offered: VertexMap::default(),
        }
    }

    /// Edge removals / weight increases seen so far — each may have left
    /// over-optimistic distances behind (restart to repair).
    pub fn stale_hazards(&self) -> u64 {
        self.stale_hazards
    }

    fn edge_weight(state: &State) -> f64 {
        state.as_weight().unwrap_or(1.0)
    }

    /// Hands `send` the offer of each of `id`'s out-edges.
    fn offer_from(&self, id: VertexId, send: &mut impl FnMut(VertexId, DistanceOffer)) {
        let Some(state) = self.vertices.get(&id) else {
            return;
        };
        let Some(dist) = state.dist else {
            return;
        };
        for (target, &weight) in state.out.iter() {
            send(target, dist + weight);
        }
    }

    /// Each dirty vertex offers once, however often it is listed, in
    /// the order of its first listing, handing each offer to `send`
    /// before any fold.
    fn offer_dirty(&mut self, dirty: &[VertexId], mut send: impl FnMut(VertexId, DistanceOffer)) {
        for &id in dirty {
            if self.offered.insert(id, ()).is_none() {
                self.offer_from(id, &mut send);
            }
        }
        self.offered.clear();
    }
}

impl Partition for DistancePartition {
    type Msg = DistanceOffer;

    /// Of two offers to one target only the shorter can be accepted.
    fn combine(into: &mut DistanceOffer, offer: DistanceOffer) {
        *into = into.min(offer);
    }

    fn apply_event_deferred(&mut self, event: &GraphEvent, dirty: &mut Vec<VertexId>) -> bool {
        match event {
            GraphEvent::AddVertex { id, .. } => {
                let source = self.source;
                let entry = self.vertices.entry(*id).or_default();
                if *id == source {
                    entry.dist = Some(0.0);
                }
                dirty.push(*id);
            }
            GraphEvent::RemoveVertex { id } => {
                if self.vertices.remove(id).is_some() {
                    self.stale_hazards += 1;
                }
            }
            GraphEvent::AddEdge { id, state } => {
                // A self-loop never shortens a path: skipped, not dropped.
                if id.is_self_loop() {
                    return true;
                }
                let weight = Self::edge_weight(state);
                let Some(vstate) = self.vertices.get_mut(&id.src) else {
                    return false;
                };
                if vstate.out.insert_if_absent(id.dst, || weight) {
                    dirty.push(id.src);
                }
            }
            GraphEvent::UpdateEdge { id, state } => {
                let weight = Self::edge_weight(state);
                let Some(vstate) = self.vertices.get_mut(&id.src) else {
                    return true;
                };
                let mut hazard = false;
                if let Some(slot) = vstate.out.get_mut(id.dst) {
                    if weight > *slot {
                        hazard = true;
                    }
                    *slot = weight;
                    dirty.push(id.src);
                }
                if hazard {
                    self.stale_hazards += 1;
                }
            }
            GraphEvent::RemoveEdge { id } => {
                let Some(vstate) = self.vertices.get_mut(&id.src) else {
                    return true;
                };
                if vstate.out.remove(id.dst).is_some() {
                    self.stale_hazards += 1;
                }
            }
            GraphEvent::UpdateVertex { .. } => {}
        }
        true
    }

    fn receive_deferred(
        &mut self,
        target: VertexId,
        offer: DistanceOffer,
        dirty: &mut Vec<VertexId>,
    ) -> bool {
        let Some(state) = self.vertices.get_mut(&target) else {
            return false; // vertex vanished; drop the offer
        };
        if state.dist.is_none_or(|d| offer < d) {
            state.dist = Some(offer);
            dirty.push(target);
        }
        true
    }

    /// Each dirty vertex offers once, however often it is listed.
    fn flush_dirty(&mut self, dirty: &[VertexId], out: &mut Outbox<DistanceOffer>) {
        self.offer_dirty(dirty, |target, offer| out.push::<Self>(target, offer));
    }

    fn purge(&mut self, removed: VertexId, out: &mut Outbox<DistanceOffer>) {
        let _ = out;
        for state in self.vertices.values_mut() {
            if state.out.remove(removed).is_some() {
                self.stale_hazards += 1;
            }
        }
    }

    /// Distances as the board values; unreached vertices report infinity.
    fn summary_into(&self, out: &mut Vec<(VertexId, f64)>) {
        let states = self.vertices.iter();
        out.extend(states.map(|(id, s)| (*id, s.dist.unwrap_or(f64::INFINITY))));
    }

    fn structure(&self) -> Vec<(u64, Vec<(u64, u64)>)> {
        self.vertices
            .iter()
            .map(|(id, s)| {
                (
                    id.0,
                    s.out.iter().map(|(t, w)| (t.0, w.to_bits())).collect(),
                )
            })
            .collect()
    }
}

/// An engine running the online SSSP program on every worker.
pub(crate) type SsspEngine = crate::engine::Engine<DistancePartition>;

/// Starts an online SSSP engine from `source`.
pub fn start_sssp(
    config: crate::engine::EngineConfig,
    hub: &gt_metrics::MetricsHub,
    source: VertexId,
) -> SsspEngine {
    crate::engine::Engine::start_with(config, hub, move |_| DistancePartition::new(source))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Current distance of a local vertex, if known and reached.
    fn distance(p: &DistancePartition, id: VertexId) -> Option<f64> {
        p.vertices.get(&id).and_then(|s| s.dist)
    }
    use crate::engine::EngineConfig;
    use gt_core::hash::shard_of;
    use gt_metrics::MetricsHub;
    use std::time::Duration;

    fn add_v(id: u64) -> GraphEvent {
        GraphEvent::AddVertex {
            id: VertexId(id),
            state: State::empty(),
        }
    }

    fn add_we(s: u64, d: u64, w: f64) -> GraphEvent {
        GraphEvent::AddEdge {
            id: EdgeId::from((s, d)),
            state: State::weight(w),
        }
    }

    /// Single-partition harness mirroring the engine loop.
    fn run_events(partition: &mut DistancePartition, events: &[GraphEvent]) {
        let mut out = Outbox::default();
        let mut dirty = Vec::new();
        for e in events {
            partition.apply_event_deferred(e, &mut dirty);
            partition.flush_dirty(&dirty, &mut out);
            dirty.clear();
        }
        let mut pending = out.take();
        let mut budget = 1_000_000;
        while let Some((target, offer)) = pending.pop() {
            partition.receive_deferred(target, offer, &mut dirty);
            partition.flush_dirty(&dirty, &mut out);
            pending.extend(out.take());
            dirty.clear();
            budget -= 1;
            assert!(budget > 0, "relaxation did not terminate");
        }
    }

    #[test]
    fn converges_to_exact_distances_on_weighted_dag() {
        let mut p = DistancePartition::new(VertexId(0));
        run_events(
            &mut p,
            &[
                add_v(0),
                add_v(1),
                add_v(2),
                add_v(3),
                add_we(0, 1, 4.0),
                add_we(0, 2, 1.0),
                add_we(2, 1, 2.0),
                add_we(1, 3, 1.0),
            ],
        );
        assert_eq!(distance(&p, VertexId(0)), Some(0.0));
        assert_eq!(distance(&p, VertexId(1)), Some(3.0)); // via 2
        assert_eq!(distance(&p, VertexId(2)), Some(1.0));
        assert_eq!(distance(&p, VertexId(3)), Some(4.0));
        assert_eq!(p.stale_hazards(), 0);
    }

    #[test]
    fn unreached_vertices_have_no_distance() {
        let mut p = DistancePartition::new(VertexId(0));
        run_events(&mut p, &[add_v(0), add_v(9)]);
        assert_eq!(distance(&p, VertexId(9)), None);
        // Summary reports them as infinity.
        let mut summary = Vec::new();
        p.summary_into(&mut summary);
        let nine = summary.iter().find(|(id, _)| *id == VertexId(9)).unwrap();
        assert!(nine.1.is_infinite());
    }

    #[test]
    fn weight_decrease_improves_distance_online() {
        let mut p = DistancePartition::new(VertexId(0));
        run_events(&mut p, &[add_v(0), add_v(1), add_we(0, 1, 10.0)]);
        assert_eq!(distance(&p, VertexId(1)), Some(10.0));
        run_events(
            &mut p,
            &[GraphEvent::UpdateEdge {
                id: EdgeId::from((0, 1)),
                state: State::weight(2.0),
            }],
        );
        assert_eq!(distance(&p, VertexId(1)), Some(2.0));
        assert_eq!(p.stale_hazards(), 0);
    }

    #[test]
    fn hazards_counted_on_removal_and_increase() {
        let mut p = DistancePartition::new(VertexId(0));
        run_events(&mut p, &[add_v(0), add_v(1), add_we(0, 1, 1.0)]);
        run_events(
            &mut p,
            &[GraphEvent::UpdateEdge {
                id: EdgeId::from((0, 1)),
                state: State::weight(5.0),
            }],
        );
        assert_eq!(p.stale_hazards(), 1);
        // Stale: still reports the old, now-optimistic distance.
        assert_eq!(distance(&p, VertexId(1)), Some(1.0));
        run_events(
            &mut p,
            &[GraphEvent::RemoveEdge {
                id: EdgeId::from((0, 1)),
            }],
        );
        assert_eq!(p.stale_hazards(), 2);
    }

    /// Two vertices worker 1 relaxes in one round both offer to one
    /// target: one offer leaves, the shorter.
    #[test]
    fn a_round_sends_one_offer_per_target_the_shorter() {
        let owned = |worker| (0u64..).filter(move |&id| shard_of(VertexId(id), 2) == worker);
        let source = owned(0).next().unwrap();
        let on_1: Vec<u64> = owned(1).take(3).collect();
        let (a, b, target) = (on_1[0], on_1[1], on_1[2]);
        let source_events = [
            add_v(source),
            add_we(source, a, 1.0),
            add_we(source, b, 4.0),
        ];
        // In one round the source is dirty three times and builds its two
        // offers once: counted as built, before the outbox folds them.
        let mut partition = DistancePartition::new(VertexId(source));
        let mut dirty = Vec::new();
        for event in &source_events {
            partition.apply_event_deferred(event, &mut dirty);
        }
        let mut offers = Vec::new();
        partition.offer_dirty(&dirty, |target, offer| offers.push((target, offer)));
        assert_eq!(dirty.len(), 3);
        assert_eq!(offers, [(VertexId(a), 1.0), (VertexId(b), 4.0)]);

        let config = EngineConfig {
            workers: 2,
            supervised: true,
            ..Default::default()
        };
        let hub = MetricsHub::new();
        let engine = start_sssp(config, &hub, VertexId(source));
        for event in [
            add_v(a),
            add_v(b),
            add_v(target),
            add_we(a, target, 5.0),
            add_we(b, target, 1.0),
        ] {
            engine.ingest(event);
        }
        assert!(engine.quiesce(Duration::from_secs(10)));

        // Ingested behind a crash, the source's events are replayed into
        // the fresh mailbox before the restarted worker starts: one round,
        // whose offers to a and b reach worker 1 as one block.
        let supervisor = engine.supervisor();
        assert!(supervisor.inject_crash(0));
        for event in source_events {
            engine.ingest(event);
        }
        assert!(supervisor.restart_worker(0));
        assert!(engine.quiesce(Duration::from_secs(10)));
        let stats = engine.shutdown();
        // The source is dirty three times in its round, and offers each
        // time: still one offer to a and one to b. Then a at 1 offers 6
        // and b at 4 offers 5.
        assert_eq!(stats.shares, 3, "one offer to a, to b and to the target");
        assert_eq!(stats.ranks[&VertexId(target)], 5.0);
    }

    #[test]
    fn engine_integration_matches_batch_bellman_ford() {
        use gt_algorithms::shortest::bellman_ford;
        use gt_graph::{CsrSnapshot, EvolvingGraph};

        // A weighted random-ish graph streamed into the distributed
        // program; compare against the batch oracle.
        let mut events: Vec<GraphEvent> = (0..40).map(add_v).collect();
        for i in 0..40u64 {
            for j in 1..=3u64 {
                let d = (i * 7 + j * 11) % 40;
                if d != i {
                    events.push(add_we(i, d, ((i + j) % 5 + 1) as f64));
                }
            }
        }

        let hub = MetricsHub::new();
        let engine = start_sssp(EngineConfig::default(), &hub, VertexId(0));
        let mut graph = EvolvingGraph::new();
        for e in &events {
            engine.ingest(e.clone());
            let _ = graph.apply_with(e, gt_graph::ApplyPolicy::Lenient);
        }
        assert!(engine.quiesce(Duration::from_secs(30)));
        let stats = engine.shutdown();

        let csr = CsrSnapshot::from_graph(&graph);
        let oracle = bellman_ford(&csr, csr.index_of(VertexId(0)).unwrap()).unwrap();
        for idx in csr.indices() {
            let id = csr.id_of(idx);
            let online = stats.ranks[&id];
            let exact = oracle.dist[idx as usize];
            if exact.is_finite() {
                assert!(
                    (online - exact).abs() < 1e-9,
                    "vertex {id}: online {online}, exact {exact}"
                );
            } else {
                assert!(online.is_infinite(), "vertex {id} should be unreached");
            }
        }
    }
}

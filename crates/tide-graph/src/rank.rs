//! The online influence rank: residual forward-push.
//!
//! Every vertex holds a rank estimate `p` and a residual `res` of mass not
//! yet propagated. New vertices are seeded with one unit of source mass.
//! Whenever `res` exceeds the push threshold ε, the vertex *pushes*:
//!
//! ```text
//! p   += α · res
//! for each out-neighbor w:  send share (1 − α) · res / outdeg  to  w
//! res  = 0
//! ```
//!
//! With uniform seeding this converges to the (unnormalized) PageRank
//! vector with damping `1 − α` on a static graph; on an evolving graph the
//! current `p` is the approximation whose accuracy depends on how far the
//! computation lags the mutations — the paper's latency/accuracy
//! trade-off. Topology changes *re-seed* part of the affected vertex's
//! settled mass back into its residual so it re-propagates through the new
//! topology.
//!
//! Dangling vertices absorb their own push mass (no out-neighbors to send
//! to). Comparisons against exact PageRank therefore normalize both
//! vectors first.

use gt_core::prelude::*;
use gt_graph::HybridAdjacency;

use crate::program::{Partition, VertexMap};

/// Per-vertex rank state plus local out-adjacency at the owning worker.
#[derive(Debug, Clone, Default)]
pub struct VertexState {
    /// Settled rank mass.
    pub p: f64,
    /// Unpropagated residual mass.
    pub res: f64,
    /// Out-neighbors (targets may live on other workers), stored in the
    /// degree-adaptive hybrid representation.
    pub out: HybridAdjacency<()>,
}

/// Tuning parameters of the push computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankParams {
    /// Teleport probability α (damping is `1 − α`).
    pub alpha: f64,
    /// Push threshold ε: residuals below it stay parked.
    pub epsilon: f64,
    /// Fraction of settled mass re-seeded into the residual when a
    /// vertex's out-topology changes.
    pub reseed: f64,
}

impl Default for RankParams {
    fn default() -> Self {
        RankParams {
            alpha: 0.15,
            // One vertex seeds 1.0 of mass, so 1e-3 parks residuals below
            // 0.1% of a single seed — ample for top-k rankings while
            // keeping push cascades short. Lower it for high-precision
            // convergence studies.
            epsilon: 1e-3,
            reseed: 0.5,
        }
    }
}

/// One worker's partition of the rank computation. The computational
/// message ([`Partition::Msg`]) is the transferred rank mass; a pending
/// share is a `(receiving vertex, mass)` pair in the engine's outbox.
#[derive(Debug, Default)]
pub struct RankPartition {
    /// Vertex states owned by this worker.
    pub vertices: VertexMap<VertexState>,
    params: RankParams,
}

impl RankPartition {
    /// A partition with the given parameters.
    pub fn new(params: RankParams) -> Self {
        RankPartition {
            vertices: VertexMap::default(),
            params,
        }
    }

    /// Moves a fraction of settled mass back into the residual so it
    /// re-propagates through changed topology.
    fn reseed(state: &mut VertexState, reseed: f64) {
        let moved = state.p * reseed;
        state.p -= moved;
        state.res += moved;
    }

    /// Pushes if the residual crosses ε; appends outbound shares.
    fn maybe_push(&mut self, id: VertexId, out: &mut Vec<(VertexId, f64)>) {
        let params = self.params;
        let Some(state) = self.vertices.get_mut(&id) else {
            return;
        };
        if state.res < params.epsilon {
            return;
        }
        let res = state.res;
        state.res = 0.0;
        if state.out.is_empty() {
            // Dangling: absorb everything.
            state.p += res;
            return;
        }
        state.p += params.alpha * res;
        let share = (1.0 - params.alpha) * res / state.out.len() as f64;
        out.extend(state.out.keys().map(|target| (target, share)));
    }
}

impl Partition for RankPartition {
    /// The transferred rank mass.
    type Msg = f64;

    /// Handles a locally-owned graph event, deferring the pushes: workers
    /// coalesce the pushes of a whole round — fan-in at hubs then
    /// triggers one push instead of one per message. Events referencing
    /// unknown local vertices are ignored (lenient).
    fn apply_event_deferred(&mut self, event: &GraphEvent, dirty: &mut Vec<VertexId>) -> bool {
        let reseed = self.params.reseed;
        match event {
            GraphEvent::AddVertex { id, .. } => {
                let state = self.vertices.entry(*id).or_default();
                // Seed one unit of source mass for a genuinely new vertex.
                if state.p == 0.0 && state.res == 0.0 {
                    state.res = 1.0;
                }
                dirty.push(*id);
            }
            GraphEvent::RemoveVertex { id } => {
                self.vertices.remove(id);
            }
            GraphEvent::AddEdge { id, .. } => {
                // A self-loop carries no influence: skipped, not dropped.
                if id.is_self_loop() {
                    return true;
                }
                let Some(state) = self.vertices.get_mut(&id.src) else {
                    return false;
                };
                if state.out.insert(id.dst, ()).is_none() {
                    Self::reseed(state, reseed);
                    dirty.push(id.src);
                }
            }
            GraphEvent::RemoveEdge { id } => {
                let Some(state) = self.vertices.get_mut(&id.src) else {
                    return true;
                };
                if state.out.remove(id.dst).is_some() {
                    Self::reseed(state, reseed);
                    dirty.push(id.src);
                }
            }
            GraphEvent::UpdateVertex { .. } | GraphEvent::UpdateEdge { .. } => {}
        }
        true
    }

    fn receive_deferred(&mut self, target: VertexId, mass: f64, dirty: &mut Vec<VertexId>) {
        let Some(state) = self.vertices.get_mut(&target) else {
            return; // target vanished; drop the mass
        };
        state.res += mass;
        dirty.push(target);
    }

    /// Pushes every dirty vertex whose residual crosses ε. Duplicates in
    /// `dirty` are harmless (the second push sees a zero residual).
    fn flush_dirty(&mut self, dirty: &[VertexId], out: &mut Vec<(VertexId, f64)>) {
        for id in dirty {
            self.maybe_push(*id, out);
        }
    }

    /// Strips a removed (possibly remote) vertex from local out-lists —
    /// the broadcast half of vertex removal.
    fn purge(&mut self, removed: VertexId, out: &mut Vec<(VertexId, f64)>) {
        let reseed = self.params.reseed;
        let mut affected = Vec::new();
        for (id, state) in &mut self.vertices {
            if state.out.remove(removed).is_some() {
                Self::reseed(state, reseed);
                affected.push(*id);
            }
        }
        self.flush_dirty(&affected, out);
    }

    /// The settled mass `p` of every vertex held here.
    fn summary_into(&self, out: &mut Vec<(VertexId, f64)>) {
        out.extend(self.vertices.iter().map(|(id, s)| (*id, s.p)));
    }

    fn structure(&self) -> Vec<(u64, Vec<(u64, u64)>)> {
        // The rank program is unweighted: edges digest as weight 1.0.
        self.vertices
            .iter()
            .map(|(id, s)| {
                (
                    id.0,
                    s.out.keys().map(|d| (d.0, 1.0f64.to_bits())).collect(),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Single-partition harness mirroring the engine loop: routes shares
    /// back into the same partition until quiescent.
    fn run_to_fixpoint(partition: &mut RankPartition, mut pending: Vec<(VertexId, f64)>) {
        let mut dirty = Vec::new();
        let mut budget = 1_000_000;
        while let Some((target, mass)) = pending.pop() {
            partition.receive_deferred(target, mass, &mut dirty);
            partition.flush_dirty(&dirty, &mut pending);
            dirty.clear();
            budget -= 1;
            assert!(budget > 0, "push cascade did not terminate");
        }
    }

    fn feed(partition: &mut RankPartition, events: &[GraphEvent]) {
        let mut pending = Vec::new();
        let mut dirty = Vec::new();
        for e in events {
            partition.apply_event_deferred(e, &mut dirty);
            partition.flush_dirty(&dirty, &mut pending);
            dirty.clear();
        }
        run_to_fixpoint(partition, pending);
    }

    fn add_v(id: u64) -> GraphEvent {
        GraphEvent::AddVertex {
            id: VertexId(id),
            state: State::empty(),
        }
    }

    fn add_e(s: u64, d: u64) -> GraphEvent {
        GraphEvent::AddEdge {
            id: EdgeId::from((s, d)),
            state: State::empty(),
        }
    }

    fn ranks(partition: &RankPartition) -> Vec<(VertexId, f64)> {
        let mut ranks = Vec::new();
        partition.summary_into(&mut ranks);
        ranks
    }

    fn normalized(partition: &RankPartition) -> std::collections::BTreeMap<VertexId, f64> {
        let ranks = ranks(partition);
        let total: f64 = ranks.iter().map(|(_, p)| p).sum();
        ranks.into_iter().map(|(id, p)| (id, p / total)).collect()
    }

    #[test]
    fn isolated_vertices_absorb_their_seed() {
        let mut partition = RankPartition::new(RankParams::default());
        feed(&mut partition, &[add_v(1), add_v(2)]);
        let n = normalized(&partition);
        assert!((n[&VertexId(1)] - 0.5).abs() < 1e-9);
        assert!(partition.vertices.values().map(|s| s.res).sum::<f64>() < 1e-9);
    }

    #[test]
    fn hub_collects_rank() {
        // Spokes 1..=10 all point at 0.
        let mut events: Vec<GraphEvent> = (0..=10).map(add_v).collect();
        events.extend((1..=10).map(|i| add_e(i, 0)));
        let mut partition = RankPartition::new(RankParams::default());
        feed(&mut partition, &events);
        let n = normalized(&partition);
        let hub = n[&VertexId(0)];
        let spoke = n[&VertexId(3)];
        assert!(hub > spoke * 5.0, "hub {hub} vs spoke {spoke}");
    }

    #[test]
    fn converges_close_to_pagerank_on_ring() {
        // Symmetric ring: normalized ranks must be ~uniform.
        let n = 10u64;
        let mut events: Vec<GraphEvent> = (0..n).map(add_v).collect();
        events.extend((0..n).map(|i| add_e(i, (i + 1) % n)));
        let mut partition = RankPartition::new(RankParams {
            epsilon: 1e-7,
            ..Default::default()
        });
        feed(&mut partition, &events);
        let norm = normalized(&partition);
        for (&id, &p) in &norm {
            assert!((p - 0.1).abs() < 0.01, "vertex {id}: {p}");
        }
    }

    #[test]
    fn reseed_repropagates_after_edge_change() {
        let mut partition = RankPartition::new(RankParams {
            epsilon: 1e-7,
            ..Default::default()
        });
        feed(&mut partition, &[add_v(0), add_v(1), add_v(2), add_e(0, 1)]);
        let p2_before = partition.vertices[&VertexId(2)].p;
        let p0_before = partition.vertices[&VertexId(0)].p;
        // New edge 0 -> 2: part of 0's settled mass re-seeds and now flows
        // to 2 as well.
        feed(&mut partition, &[add_e(0, 2)]);
        let p2_after = partition.vertices[&VertexId(2)].p;
        assert!(p2_after > p2_before, "2 gained no mass: {p2_after}");
        // 0 re-seeded half its mass and settled only α of it back.
        let p0_after = partition.vertices[&VertexId(0)].p;
        assert!(p0_after < p0_before, "0 kept its mass: {p0_after}");
        assert!(partition.vertices.values().map(|s| s.res).sum::<f64>() < 1e-6);
    }

    #[test]
    fn vertex_removal_drops_mass_and_purge_strips_edges() {
        let mut partition = RankPartition::new(RankParams::default());
        feed(&mut partition, &[add_v(0), add_v(1), add_e(0, 1)]);
        feed(
            &mut partition,
            &[GraphEvent::RemoveVertex { id: VertexId(1) }],
        );
        let mut out = Vec::new();
        partition.purge(VertexId(1), &mut out);
        run_to_fixpoint(&mut partition, out);
        assert!(!partition.vertices.contains_key(&VertexId(1)));
        assert!(partition
            .vertices
            .get(&VertexId(0))
            .is_some_and(|s| s.out.is_empty()));
    }

    #[test]
    fn shares_to_unknown_targets_are_dropped() {
        let mut partition = RankPartition::new(RankParams::default());
        let mut dirty = Vec::new();
        partition.receive_deferred(VertexId(99), 1.0, &mut dirty);
        assert!(dirty.is_empty());
        assert!(ranks(&partition).is_empty());
    }

    #[test]
    fn duplicate_edges_do_not_double_out_list() {
        let mut partition = RankPartition::new(RankParams::default());
        feed(
            &mut partition,
            &[add_v(0), add_v(1), add_e(0, 1), add_e(0, 1)],
        );
        assert_eq!(partition.vertices[&VertexId(0)].out.len(), 1);
    }

    #[test]
    fn self_loops_ignored() {
        let mut partition = RankPartition::new(RankParams::default());
        feed(&mut partition, &[add_v(0), add_e(0, 0)]);
        assert!(partition.vertices[&VertexId(0)].out.is_empty());
    }
}

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
//!
//! Shares combine per target per round: when vertices a worker pushes in
//! one round send to a common neighbour, the neighbour receives one share
//! carrying the summed mass ([`Partition::combine`]) — the same residual
//! for one receive instead of several.
//!
//! **The ε invariant.** When a round starts, every live vertex's residual
//! is below ε. Three rules keep it: [`Partition::flush_dirty`] pushes, and
//! so zeroes, every dirty vertex at or above ε; an event lists its vertex
//! as dirty unconditionally; and a purge pushes the vertices it reseeds
//! at once. A received share therefore lists its target as dirty only on
//! the receive that lifts the residual from below ε to ε or more: a
//! target it leaves below ε cannot push, and one already at ε or more was
//! listed by the receive or event that put it there. So a round pushes
//! the same vertices with the same shares as listing every receive would;
//! only the order `flush_dirty` visits them in is the order of crossing.

use gt_core::prelude::*;
use gt_graph::HybridAdjacency;

use crate::program::{Outbox, Partition, VertexMap};

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
    /// Push threshold ε: residuals below it stay parked. Positive: the
    /// ε invariant (module doc) needs a residual to fit below it.
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

    /// Pushes `state` if its residual is at or above ε, handing each share
    /// to `send`.
    fn push(state: &mut VertexState, params: RankParams, send: &mut impl FnMut(VertexId, f64)) {
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
        for target in state.out.keys() {
            send(target, share);
        }
    }

    /// Pushes every dirty vertex at or above ε, handing each share to
    /// `send` before any fold.
    fn push_dirty(&mut self, dirty: &[VertexId], mut send: impl FnMut(VertexId, f64)) {
        let params = self.params;
        for id in dirty {
            if let Some(state) = self.vertices.get_mut(id) {
                Self::push(state, params, &mut send);
            }
        }
    }

    /// Strips `removed` from every local out-list, reseeding and pushing
    /// at once each vertex that lost the edge.
    fn strip(&mut self, removed: VertexId, mut send: impl FnMut(VertexId, f64)) {
        let params = self.params;
        for state in self.vertices.values_mut() {
            if state.out.remove(removed).is_some() {
                Self::reseed(state, params.reseed);
                Self::push(state, params, &mut send);
            }
        }
    }
}

impl Partition for RankPartition {
    /// The transferred rank mass.
    type Msg = f64;

    /// Mass owed one target adds up.
    fn combine(into: &mut f64, mass: f64) {
        *into += mass;
    }

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

    /// Lists `target` as dirty only when this share lifts its residual
    /// from below ε to ε or more (the ε invariant, module doc).
    fn receive_deferred(&mut self, target: VertexId, mass: f64, dirty: &mut Vec<VertexId>) -> bool {
        let Some(state) = self.vertices.get_mut(&target) else {
            return false; // target vanished; drop the mass
        };
        let below = state.res < self.params.epsilon;
        state.res += mass;
        if below && state.res >= self.params.epsilon {
            dirty.push(target);
        }
        true
    }

    /// Pushes every dirty vertex whose residual is at or above ε.
    /// Duplicates in `dirty` are harmless (the second push sees a zero
    /// residual).
    fn flush_dirty(&mut self, dirty: &[VertexId], out: &mut Outbox<f64>) {
        self.push_dirty(dirty, |target, share| out.push::<Self>(target, share));
    }

    /// Strips a removed (possibly remote) vertex from local out-lists —
    /// the broadcast half of vertex removal.
    fn purge(&mut self, removed: VertexId, out: &mut Outbox<f64>) {
        self.strip(removed, |target, share| out.push::<Self>(target, share));
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
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Single-partition harness mirroring the engine loop: routes shares
    /// back into the same partition until quiescent.
    fn run_to_fixpoint(partition: &mut RankPartition, mut pending: Vec<(VertexId, f64)>) {
        let mut dirty = Vec::new();
        let mut out = Outbox::default();
        let mut budget = 1_000_000;
        while let Some((target, mass)) = pending.pop() {
            partition.receive_deferred(target, mass, &mut dirty);
            partition.flush_dirty(&dirty, &mut out);
            pending.extend(out.take());
            dirty.clear();
            budget -= 1;
            assert!(budget > 0, "push cascade did not terminate");
        }
    }

    fn feed(partition: &mut RankPartition, events: &[GraphEvent]) {
        let mut out = Outbox::default();
        let mut dirty = Vec::new();
        for e in events {
            partition.apply_event_deferred(e, &mut dirty);
            partition.flush_dirty(&dirty, &mut out);
            dirty.clear();
        }
        run_to_fixpoint(partition, out.take());
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
        let mut out = Outbox::default();
        partition.purge(VertexId(1), &mut out);
        run_to_fixpoint(&mut partition, out.take());
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
        assert!(!partition.receive_deferred(VertexId(99), 1.0, &mut dirty));
        assert!(dirty.is_empty());
        assert!(ranks(&partition).is_empty());
    }

    #[test]
    fn a_receive_lists_its_target_only_when_it_crosses_epsilon() {
        let mut partition = RankPartition::new(RankParams::default());
        feed(&mut partition, &[add_v(0)]);
        let epsilon = RankParams::default().epsilon;
        let mut dirty = Vec::new();
        for _ in 0..2 {
            assert!(partition.receive_deferred(VertexId(0), 0.4 * epsilon, &mut dirty));
        }
        assert!(dirty.is_empty(), "0.8 ε listed");
        partition.receive_deferred(VertexId(0), 0.4 * epsilon, &mut dirty);
        assert_eq!(dirty, [VertexId(0)], "1.2 ε must be listed once");
        for _ in 0..3 {
            partition.receive_deferred(VertexId(0), 0.4 * epsilon, &mut dirty);
        }
        assert_eq!(dirty, [VertexId(0)], "listed again above ε");
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

    /// The receive rule before dirty-on-crossing: every receive lists its
    /// target.
    fn receive_listing_every_target(
        partition: &mut RankPartition,
        target: VertexId,
        mass: f64,
        dirty: &mut Vec<VertexId>,
    ) -> bool {
        let Some(state) = partition.vertices.get_mut(&target) else {
            return false;
        };
        state.res += mass;
        dirty.push(target);
        true
    }

    type Receive = fn(&mut RankPartition, VertexId, f64, &mut Vec<VertexId>) -> bool;

    /// One item of a round: an event on the owner (a removal purges the
    /// owner's out-lists too, as the engine does), a purge broadcast by
    /// another worker, or a share.
    #[derive(Debug, Clone)]
    enum Step {
        Event(GraphEvent),
        Purge(VertexId),
        Receive(VertexId, f64),
    }

    /// Ids 0..24, of which the graph starts with 0..20; masses from ε/100
    /// to 6 ε, so that a share may cross ε alone or only with others.
    fn step() -> impl Strategy<Value = Step> {
        (0u8..16, 0u64..24, 0u64..24, 1u32..600).prop_map(|(kind, a, b, mass)| match kind {
            0 => Step::Event(add_v(a)),
            1 | 2 => Step::Event(add_e(a, b)),
            3 => Step::Event(GraphEvent::RemoveEdge {
                id: EdgeId::from((a, b)),
            }),
            4 => Step::Event(GraphEvent::RemoveVertex { id: VertexId(a) }),
            5 => Step::Purge(VertexId(a)),
            _ => Step::Receive(VertexId(a), f64::from(mass) * 1e-5),
        })
    }

    /// Runs one round — `inbox`, then `steps` — under `receive`, and
    /// returns every share pushed, before any fold, as `(target, mass
    /// bits)` in push order.
    fn round(
        partition: &mut RankPartition,
        receive: Receive,
        inbox: &[(VertexId, f64)],
        steps: &[Step],
    ) -> Vec<(u64, u64)> {
        let mut dirty = Vec::new();
        let mut pushes = Vec::new();
        let mut send = |target: VertexId, mass: f64| pushes.push((target.0, mass.to_bits()));
        for &(target, mass) in inbox {
            receive(partition, target, mass, &mut dirty);
        }
        for step in steps {
            match step {
                Step::Event(event) => {
                    partition.apply_event_deferred(event, &mut dirty);
                    if let GraphEvent::RemoveVertex { id } = event {
                        partition.strip(*id, &mut send);
                    }
                }
                Step::Purge(id) => partition.strip(*id, &mut send),
                Step::Receive(target, mass) => {
                    receive(partition, *target, *mass, &mut dirty);
                }
            }
        }
        partition.push_dirty(&dirty, &mut send);
        pushes
    }

    /// Every vertex's `(id, p bits, res bits)`, sorted.
    fn states(partition: &RankPartition) -> Vec<(u64, u64, u64)> {
        let mut states: Vec<_> = (partition.vertices.iter())
            .map(|(id, s)| (id.0, s.p.to_bits(), s.res.to_bits()))
            .collect();
        states.sort_unstable();
        states
    }

    proptest! {
        /// Over random graphs and rounds, listing a receive's target only
        /// when it crosses ε pushes the same shares, bit for bit, as
        /// listing every receive: only their order may differ. Each
        /// round's pushes come back as the next round's inbox, and every
        /// round leaves every residual below ε.
        #[test]
        fn listing_crossings_pushes_what_listing_every_receive_pushes(
            edges in vec((0u64..24, 0u64..24), 0..80),
            rounds in vec(vec(step(), 0..40), 1..8),
        ) {
            let params = RankParams::default();
            let mut crossing = RankPartition::new(params);
            let setup: Vec<Step> = ((0..20).map(add_v))
                .chain(edges.iter().map(|&(a, b)| add_e(a, b)))
                .map(Step::Event)
                .collect();
            let mut inbox = round(&mut crossing, RankPartition::receive_deferred, &[], &setup);
            let mut every = RankPartition {
                vertices: crossing.vertices.clone(),
                params,
            };
            for steps in &rounds {
                inbox.sort_unstable();
                let shares: Vec<(VertexId, f64)> = (inbox.iter())
                    .map(|&(target, bits)| (VertexId(target), f64::from_bits(bits)))
                    .collect();
                let receive: Receive = RankPartition::receive_deferred;
                inbox = round(&mut crossing, receive, &shares, steps);
                let mut pushed = round(&mut every, receive_listing_every_target, &shares, steps);
                pushed.sort_unstable();
                let mut pushes = inbox.clone();
                pushes.sort_unstable();
                prop_assert_eq!(pushes, pushed);
                prop_assert_eq!(states(&crossing), states(&every));
                let parked = crossing.vertices.values().all(|s| s.res < params.epsilon);
                prop_assert!(parked, "a residual at or above ε after a round");
            }
        }
    }
}

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
//! carrying the summed mass ([`Program::combine`]) — the same residual
//! for one receive instead of several.
//!
//! **The ε invariant.** When a round starts, every live residual is below
//! ε. Three rules keep it: the round's flush pushes, and so zeroes, every
//! listed vertex at or above ε; an event lists its vertex unconditionally;
//! and a purge that strips an out-edge reseeds and lists the source like
//! a `RemoveEdge`, so the round's flush pushes it. A received share
//! therefore lists its target only on the receive that lifts the residual
//! from below ε to ε or more: a target it leaves below ε cannot push, and
//! one already at ε or more was listed by the receive or event that put it
//! there. So a round pushes the same vertices with the same shares as
//! listing every receive would; only the order the flush visits them in
//! is the order of crossing.

use gt_core::prelude::*;
use gt_graph::HybridAdjacency;

use crate::program::{Change, Program};

/// A vertex's rank mass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Mass {
    /// Settled rank mass.
    pub p: f64,
    /// Unpropagated residual mass.
    pub res: f64,
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

/// The rank program is its parameters: a vertex's value is its [`Mass`],
/// and its message ([`Program::Msg`]) the transferred rank mass.
impl Program for RankParams {
    type Value = Mass;
    type Weight = ();
    type Msg = f64;

    /// Mass owed one target adds up.
    fn combine(into: &mut f64, mass: f64) {
        *into += mass;
    }

    /// Seeds one unit of mass into an added vertex whose mass is zero,
    /// and moves the `reseed` fraction of a vertex's settled mass back
    /// into its residual when its out-list changes, so it re-propagates
    /// through the new topology. Either lists the vertex.
    fn changed(&mut self, _: VertexId, mass: &mut Mass, change: Change) -> bool {
        match change {
            Change::Added if *mass == Mass::default() => mass.res = 1.0,
            Change::Linked | Change::Unlinked => {
                let moved = mass.p * self.reseed;
                mass.p -= moved;
                mass.res += moved;
            }
            _ => {}
        }
        matches!(change, Change::Added | Change::Linked | Change::Unlinked)
    }

    /// Lists the vertex only when this share lifts its residual from
    /// below ε to ε or more (the ε invariant, module doc).
    fn receive(&self, mass: &mut Mass, share: f64) -> bool {
        let below = mass.res < self.epsilon;
        mass.res += share;
        below && mass.res >= self.epsilon
    }

    /// Pushes a residual at or above ε: `α` of it settles and the rest is
    /// shared evenly among the out-neighbours (a dangling vertex settles
    /// all of it).
    fn compute(
        &self,
        mass: &mut Mass,
        out: &HybridAdjacency<()>,
        mut send: impl FnMut(VertexId, f64),
    ) {
        let RankParams { alpha, epsilon, .. } = *self;
        if mass.res < epsilon {
            return;
        }
        let res = std::mem::take(&mut mass.res);
        if out.is_empty() {
            mass.p += res;
            return;
        }
        mass.p += alpha * res;
        let share = (1.0 - alpha) * res / out.len() as f64;
        for target in out.keys() {
            send(target, share);
        }
    }

    /// The settled mass `p`.
    fn result(mass: &Mass) -> f64 {
        mass.p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Outbox;
    use crate::store::VertexStore;
    use proptest::collection::vec;
    use proptest::prelude::*;

    type Store = VertexStore<RankParams>;

    fn store(params: RankParams) -> Store {
        VertexStore::new(params)
    }

    /// Single-worker harness mirroring the engine loop: each flush's
    /// shares fold in an outbox and are routed back into the same store
    /// until quiescent.
    fn run_to_fixpoint(store: &mut Store, mut pending: Vec<(VertexId, f64)>) {
        let mut out = Outbox::<RankParams>::new(1);
        let mut budget = 1_000_000;
        while let Some((target, mass)) = pending.pop() {
            store.receive(target, mass);
            store.flush(|target, share| out.push(target, share));
            pending.extend(out.take());
            budget -= 1;
            assert!(budget > 0, "push cascade did not terminate");
        }
    }

    fn feed(store: &mut Store, events: &[GraphEvent]) {
        let mut out = Outbox::<RankParams>::new(1);
        for e in events {
            store.apply(e);
            store.flush(|target, share| out.push(target, share));
        }
        run_to_fixpoint(store, out.take());
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

    fn ranks(store: &Store) -> Vec<(VertexId, f64)> {
        let mut ranks = Vec::new();
        store.summary_into(&mut ranks);
        ranks
    }

    fn normalized(store: &Store) -> std::collections::BTreeMap<VertexId, f64> {
        let ranks = ranks(store);
        let total: f64 = ranks.iter().map(|(_, p)| p).sum();
        ranks.into_iter().map(|(id, p)| (id, p / total)).collect()
    }

    fn mass(store: &Store, id: u64) -> Mass {
        *store.value(VertexId(id)).expect("a live vertex")
    }

    fn residual(store: &Store) -> f64 {
        store.values().map(|(_, mass)| mass.res).sum()
    }

    #[test]
    fn isolated_vertices_absorb_their_seed() {
        let mut store = store(RankParams::default());
        feed(&mut store, &[add_v(1), add_v(2)]);
        let n = normalized(&store);
        assert!((n[&VertexId(1)] - 0.5).abs() < 1e-9);
        assert!(residual(&store) < 1e-9);
    }

    #[test]
    fn hub_collects_rank() {
        // Spokes 1..=10 all point at 0.
        let mut events: Vec<GraphEvent> = (0..=10).map(add_v).collect();
        events.extend((1..=10).map(|i| add_e(i, 0)));
        let mut store = store(RankParams::default());
        feed(&mut store, &events);
        let n = normalized(&store);
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
        let mut store = store(RankParams {
            epsilon: 1e-7,
            ..Default::default()
        });
        feed(&mut store, &events);
        let norm = normalized(&store);
        for (&id, &p) in &norm {
            assert!((p - 0.1).abs() < 0.01, "vertex {id}: {p}");
        }
    }

    #[test]
    fn reseed_repropagates_after_edge_change() {
        let mut store = store(RankParams {
            epsilon: 1e-7,
            ..Default::default()
        });
        feed(&mut store, &[add_v(0), add_v(1), add_v(2), add_e(0, 1)]);
        let p2_before = mass(&store, 2).p;
        let p0_before = mass(&store, 0).p;
        // New edge 0 -> 2: part of 0's settled mass re-seeds and now flows
        // to 2 as well.
        feed(&mut store, &[add_e(0, 2)]);
        let p2_after = mass(&store, 2).p;
        assert!(p2_after > p2_before, "2 gained no mass: {p2_after}");
        // 0 re-seeded half its mass and settled only α of it back.
        let p0_after = mass(&store, 0).p;
        assert!(p0_after < p0_before, "0 kept its mass: {p0_after}");
        assert!(residual(&store) < 1e-6);
    }

    /// The owner strips a removed vertex from its own out-lists, reseeds
    /// the source it strips, and the flush pushes it.
    #[test]
    fn vertex_removal_drops_mass_and_purge_strips_edges() {
        let mut store = store(RankParams::default());
        feed(&mut store, &[add_v(0), add_v(1), add_e(0, 1)]);
        let p0 = mass(&store, 0).p;
        feed(&mut store, &[GraphEvent::RemoveVertex { id: VertexId(1) }]);
        assert!(store.value(VertexId(1)).is_none());
        assert!(store.out(VertexId(0)).is_some_and(|out| out.is_empty()));
        let after = mass(&store, 0);
        assert_eq!(after.res, 0.0, "the reseeded source was pushed");
        assert!(after.p + 1e-12 >= p0, "a dangling push settles all");
        assert_eq!(store.edges(), 0);
    }

    #[test]
    fn shares_to_unknown_targets_are_dropped() {
        let mut store = store(RankParams::default());
        assert!(!store.receive(VertexId(99), 1.0));
        assert!(store.listings().is_empty());
        assert!(ranks(&store).is_empty());
    }

    #[test]
    fn a_receive_lists_its_target_only_when_it_crosses_epsilon() {
        let mut store = store(RankParams::default());
        feed(&mut store, &[add_v(0)]);
        let epsilon = RankParams::default().epsilon;
        for _ in 0..2 {
            assert!(store.receive(VertexId(0), 0.4 * epsilon));
        }
        assert!(store.listings().is_empty(), "0.8 ε listed");
        store.receive(VertexId(0), 0.4 * epsilon);
        assert_eq!(store.listings(), [VertexId(0)], "1.2 ε must be listed once");
        for _ in 0..3 {
            store.receive(VertexId(0), 0.4 * epsilon);
        }
        assert_eq!(store.listings(), [VertexId(0)], "listed again above ε");
    }

    #[test]
    fn duplicate_edges_do_not_double_out_list() {
        let mut store = store(RankParams::default());
        feed(&mut store, &[add_v(0), add_v(1), add_e(0, 1), add_e(0, 1)]);
        assert_eq!(store.out(VertexId(0)).map(|out| out.len()), Some(1));
        assert_eq!(store.edges(), 1);
    }

    #[test]
    fn self_loops_ignored() {
        let mut store = store(RankParams::default());
        feed(&mut store, &[add_v(0), add_e(0, 0)]);
        assert!(store.out(VertexId(0)).is_some_and(|out| out.is_empty()));
        assert_eq!(store.edges(), 0);
    }

    /// The rank program under the receive rule before dirty-on-crossing:
    /// every receive lists its target.
    struct ListingEveryReceive(RankParams);

    impl Program for ListingEveryReceive {
        type Value = Mass;
        type Weight = ();
        type Msg = f64;

        fn combine(into: &mut f64, mass: f64) {
            RankParams::combine(into, mass);
        }

        fn changed(&mut self, id: VertexId, mass: &mut Mass, change: Change) -> bool {
            self.0.changed(id, mass, change)
        }

        fn receive(&self, mass: &mut Mass, share: f64) -> bool {
            mass.res += share;
            true
        }

        fn compute(
            &self,
            mass: &mut Mass,
            out: &HybridAdjacency<()>,
            send: impl FnMut(VertexId, f64),
        ) {
            self.0.compute(mass, out, send);
        }

        fn result(mass: &Mass) -> f64 {
            RankParams::result(mass)
        }
    }

    /// One item of a round: an event on the owner (a removal strips the
    /// owner's out-lists too), a purge broadcast by another worker, or a
    /// share.
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

    /// Runs one round — `inbox`, then `steps` — and returns every share
    /// pushed, before any fold, as `(target, mass bits)` in push order.
    fn round<P: Program<Value = Mass, Msg = f64>>(
        store: &mut VertexStore<P>,
        inbox: &[(VertexId, f64)],
        steps: &[Step],
    ) -> Vec<(u64, u64)> {
        for &(target, mass) in inbox {
            store.receive(target, mass);
        }
        for step in steps {
            match step {
                Step::Event(event) => _ = store.apply(event),
                Step::Purge(id) => store.purge(*id),
                Step::Receive(target, mass) => _ = store.receive(*target, *mass),
            }
        }
        let mut pushes = Vec::new();
        store.flush(|target, mass| pushes.push((target.0, mass.to_bits())));
        pushes
    }

    /// Every vertex's `(id, p bits, res bits)`, sorted.
    fn states<P: Program<Value = Mass>>(store: &VertexStore<P>) -> Vec<(u64, u64, u64)> {
        let mut states: Vec<_> = (store.values())
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
            let mut crossing = store(params);
            let mut every = VertexStore::new(ListingEveryReceive(params));
            let setup: Vec<Step> = ((0..20).map(add_v))
                .chain(edges.iter().map(|&(a, b)| add_e(a, b)))
                .map(Step::Event)
                .collect();
            let mut inbox = round(&mut crossing, &[], &setup);
            prop_assert_eq!(&inbox, &round(&mut every, &[], &setup));
            for steps in &rounds {
                inbox.sort_unstable();
                let shares: Vec<(VertexId, f64)> = (inbox.iter())
                    .map(|&(target, bits)| (VertexId(target), f64::from_bits(bits)))
                    .collect();
                inbox = round(&mut crossing, &shares, steps);
                let mut pushed = round(&mut every, &shares, steps);
                pushed.sort_unstable();
                let mut pushes = inbox.clone();
                pushes.sort_unstable();
                prop_assert_eq!(pushes, pushed);
                prop_assert_eq!(states(&crossing), states(&every));
                let parked = crossing.values().all(|(_, s)| s.res < params.epsilon);
                prop_assert!(parked, "a residual at or above ε after a round");
            }
        }
    }
}

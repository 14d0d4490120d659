//! The vertex-program abstraction.
//!
//! Chronograph-class engines are *programmable*: the platform owns
//! partitioning, mailboxes, scheduling and the graph, while a vertex
//! program defines how mutations seed computation and how computational
//! messages update vertex state. [`Program`] is that contract here: a
//! program keeps only its math. Each worker runs one instance inside its
//! [`VertexStore`](crate::store::VertexStore), which holds the vertices,
//! applies the events and calls the program back.
//!
//! Two programs ship with the engine:
//!
//! * [`crate::rank::RankParams`] — the online influence rank of the
//!   paper's Chronograph experiment (§5.3.2),
//! * [`crate::sssp::DistanceProgram`] — online single-source shortest
//!   distances, Table 1's "distributed routing algorithms" example of a
//!   converging computation.
//!
//! **The ε invariant's purge rule.** A program whose `receive` lists a
//! vertex only when it becomes worth computing (rank: when its residual
//! crosses ε) relies on every round starting with nothing left to
//! compute. So whatever an event or a purge changes, it lists: a purge
//! that strips an out-edge reports `Unlinked`, and the round's flush
//! computes the vertex like any other listed one.

use gt_core::hash::shard_of;
use gt_core::prelude::*;
use gt_graph::HybridAdjacency;

use crate::mailbox::Batch;

/// What the store did to a vertex, reported to its program through
/// [`Program::changed`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Change {
    /// An `AddVertex` for it: new, or already live.
    Added,
    /// It was removed: the store has taken it out, and drops its value
    /// after this call.
    Removed,
    /// It gained an out-edge.
    Linked,
    /// It lost an out-edge, to a `RemoveEdge` or to a purge of the edge's
    /// target.
    Unlinked,
    /// One of its out-edges changed weight.
    Reweighted {
        /// The new weight is larger than the old.
        heavier: bool,
    },
}

/// An out-edge's payload: what an `AddEdge` or `UpdateEdge` state gives,
/// and its value as a weight (in the digest, and for
/// [`Change::Reweighted`]).
pub trait Weight: Copy + Default + Send + 'static {
    /// The payload of an edge event carrying `state`.
    fn of(state: &State) -> Self;
    /// The weight it stands for.
    fn value(self) -> f64;
}

/// Unweighted edges weigh 1.0.
impl Weight for () {
    fn of(_: &State) -> Self {}

    fn value(self) -> f64 {
        1.0
    }
}

/// An edge's weight, 1.0 when its state carries none.
impl Weight for f64 {
    fn of(state: &State) -> Self {
        state.as_weight().unwrap_or(1.0)
    }

    fn value(self) -> f64 {
        self
    }
}

/// A vertex program: its math, and nothing of the graph's bookkeeping.
///
/// The store calls [`changed`](Program::changed) for what an event or a
/// purge does to a vertex, and [`receive`](Program::receive) for each
/// share delivered to it; either lists the vertex by returning `true`.
/// Once a round's items are in, the store calls
/// [`compute`](Program::compute) once for every listed vertex, however
/// often it was listed, in the order of its first listing. The engine
/// folds what `compute` sends into one share per target per round with
/// [`combine`](Program::combine).
pub trait Program: Send + 'static {
    /// A vertex's state; a new vertex starts at the default.
    type Value: Default + Send;
    /// An out-edge's payload.
    type Weight: Weight;
    /// The computational message the program exchanges between vertices.
    type Msg: Send + Clone;

    /// Folds `msg` into `into`, both owed the same target by one round:
    /// receiving the result must leave the target as receiving both
    /// would (the combiner of Pregel-style systems).
    fn combine(into: &mut Self::Msg, msg: Self::Msg);

    /// Reacts to `change` of vertex `id`; `true` lists it.
    fn changed(&mut self, id: VertexId, value: &mut Self::Value, change: Change) -> bool;

    /// Takes one delivered message; `true` lists the vertex.
    fn receive(&self, value: &mut Self::Value, msg: Self::Msg) -> bool;

    /// Computes a listed vertex, handing each message to `send`.
    fn compute(
        &self,
        value: &mut Self::Value,
        out: &HybridAdjacency<Self::Weight>,
        send: impl FnMut(VertexId, Self::Msg),
    );

    /// The vertex's result, as the board and the final report show it.
    fn result(value: &Self::Value) -> f64;
}

/// A round's outgoing shares, folded per target as they are pushed: one
/// part per destination worker (`shard_of` the target), each holding a
/// target once, in the order of its first share this round. A later
/// share for the same target folds into that first one with
/// [`Program::combine`], through an index private to the outbox, so a
/// push costs one probe and the round needs no pass of its own to
/// combine. The engine posts each part and then starts the next round in
/// O(1): the index keeps its slots, and so do the parts.
pub(crate) struct Outbox<P: Program> {
    parts: Vec<Batch<P::Msg>>,
    index: Index,
}

impl<P: Program> Outbox<P> {
    /// An empty outbox for `workers` destinations.
    pub(crate) fn new(workers: usize) -> Self {
        Outbox {
            parts: (0..workers).map(|_| Vec::new()).collect(),
            index: Index::with_stamp(1),
        }
    }

    /// An empty outbox whose index starts at round stamp `stamp`, to
    /// bring the stamp's wrap within a test's reach.
    #[cfg(test)]
    pub(crate) fn with_stamp(workers: usize, stamp: u32) -> Self {
        Outbox {
            index: Index::with_stamp(stamp),
            ..Outbox::new(workers)
        }
    }

    /// Owes `target` the share `msg` this round: the target's first share
    /// goes at the end of its destination's part, a later one folds into
    /// it with `P::combine`.
    #[inline]
    pub(crate) fn push(&mut self, target: VertexId, msg: P::Msg) {
        let parts = &mut self.parts;
        let (destination, at) = self.index.locate(target, || {
            let destination = shard_of(target, parts.len());
            (destination, parts[destination].len())
        });
        let part = &mut parts[destination];
        match part.get_mut(at) {
            Some((_, into)) => P::combine(into, msg),
            None => part.push((target, msg)),
        }
    }

    /// Whether no share was pushed since the last [`reset`](Self::reset).
    pub(crate) fn is_empty(&self) -> bool {
        self.index.len == 0
    }

    /// The round's shares, one part per destination worker.
    pub(crate) fn parts_mut(&mut self) -> &mut [Batch<P::Msg>] {
        &mut self.parts
    }

    /// Every part's shares, in destination order, leaving the outbox
    /// reset.
    #[cfg(test)]
    pub(crate) fn take(&mut self) -> Batch<P::Msg> {
        let shares = self
            .parts
            .iter_mut()
            .flat_map(|part| part.drain(..))
            .collect();
        self.reset();
        shares
    }

    /// Starts the next round: forgets every target in O(1) (the parts are
    /// emptied by posting them), keeping every buffer.
    pub(crate) fn reset(&mut self) {
        self.parts.iter_mut().for_each(Vec::clear);
        self.index.reset();
    }
}

/// Slots the index starts with; it doubles whenever a round fills half.
pub(crate) const FIRST_SLOTS: usize = 64;

/// The Fibonacci multiplier (2^64 / φ) the index hashes target ids with.
const FIBONACCI: u64 = 0x9E37_79B9_7F4A_7C15;

/// The outbox's index: open addressing with linear probing over target
/// ids hashed by the Fibonacci multiplier. A slot belongs to the current
/// round only while it carries the round's stamp, so a reset is one
/// increment; when the stamp wraps, every slot is cleared once.
struct Index {
    slots: Vec<Slot>,
    /// Live slots this round.
    len: usize,
    stamp: u32,
}

/// A target this round, and where its share sits: `parts[destination][at]`.
#[derive(Clone, Copy, Default)]
struct Slot {
    target: u64,
    stamp: u32,
    destination: u32,
    at: u32,
}

impl Index {
    /// An empty index whose first round carries `stamp` (not 0, the
    /// stamp of a slot never used).
    fn with_stamp(stamp: u32) -> Self {
        debug_assert_ne!(stamp, 0);
        Index {
            slots: vec![Slot::default(); FIRST_SLOTS],
            len: 0,
            stamp,
        }
    }

    /// Where `target`'s share sits this round; a target not seen yet this
    /// round is given `new()`'s place.
    #[inline]
    fn locate(&mut self, target: VertexId, new: impl FnOnce() -> (usize, usize)) -> (usize, usize) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(target);
        loop {
            let slot = self.slots[i];
            if slot.stamp != self.stamp {
                break;
            }
            if slot.target == target.0 {
                return (slot.destination as usize, slot.at as usize);
            }
            i = (i + 1) & mask;
        }
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
            return self.locate(target, new);
        }
        let (destination, at) = new();
        self.slots[i] = Slot {
            target: target.0,
            stamp: self.stamp,
            destination: destination as u32,
            at: at as u32,
        };
        self.len += 1;
        (destination, at)
    }

    /// The first slot `target` probes.
    fn home(&self, target: VertexId) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (target.0.wrapping_mul(FIBONACCI) >> (64 - bits)) as usize
    }

    /// Doubles the slots, moving this round's entries over.
    fn grow(&mut self) {
        let doubled = vec![Slot::default(); 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, doubled);
        let mask = self.slots.len() - 1;
        for slot in old.into_iter().filter(|slot| slot.stamp == self.stamp) {
            let mut i = self.home(VertexId(slot.target));
            while self.slots[i].stamp == self.stamp {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }

    /// Ends the round: its stamp is retired, and with it every entry.
    fn reset(&mut self) {
        self.len = 0;
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Slots still carry stamps of the last 2^32 rounds.
            self.slots.fill(Slot::default());
            self.stamp = 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::RankParams;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The parts a round's shares must leave: per destination, each
    /// target once, in the order of its first share, carrying the sum of
    /// its shares.
    fn combined(shares: &[(VertexId, f64)], workers: usize) -> Vec<Batch<f64>> {
        let mut parts: Vec<Batch<f64>> = vec![Vec::new(); workers];
        for &(target, mass) in shares {
            let part = &mut parts[shard_of(target, workers)];
            match part.iter_mut().find(|(seen, _)| *seen == target) {
                Some((_, sum)) => *sum += mass,
                None => part.push((target, mass)),
            }
        }
        parts
    }

    /// Pushes one round's shares and checks the parts they leave.
    fn push_round(outbox: &mut Outbox<RankParams>, shares: &[(VertexId, f64)]) -> Vec<Batch<f64>> {
        for &(target, mass) in shares {
            outbox.push(target, mass);
        }
        let parts = outbox.parts.clone();
        outbox.reset();
        assert!(outbox.is_empty() && outbox.parts.iter().all(Vec::is_empty));
        parts
    }

    proptest! {
        /// Random rounds over one to four workers through one outbox,
        /// reused round after round: their targets drawn from 40 ids so
        /// that they repeat, or from 1 000 so that a round holds more
        /// distinct targets than the index's first slots and grows it
        /// mid-round; the round stamp started at 1 or just short of its
        /// wrap.
        #[test]
        fn combined_parts_hold_each_target_once_in_first_occurrence_order(
            workers in 1usize..=4,
            universe in prop_oneof![Just(40u64), Just(1_000u64)],
            stamp in prop_oneof![Just(1u32), (u32::MAX - 4)..=u32::MAX],
            rounds in vec(vec((0u64..1_000, 0u32..1_000), 0..300), 1..10),
        ) {
            let mut outbox = Outbox::with_stamp(workers, stamp);
            for round in rounds {
                let shares: Vec<(VertexId, f64)> = (round.iter())
                    .map(|&(target, mass)| (VertexId(target % universe), f64::from(mass)))
                    .collect();
                let parts = push_round(&mut outbox, &shares);
                prop_assert_eq!(parts, combined(&shares, workers), "workers={}", workers);
            }
        }
    }

    /// A round with four times the index's first slots in distinct
    /// targets, each pushed twice: the index doubles mid-round, and the
    /// shares folded before it grew stay folded.
    #[test]
    fn growth_mid_round_keeps_earlier_folds() {
        let targets = 4 * FIRST_SLOTS as u64;
        let shares: Vec<(VertexId, f64)> = (0..2 * targets)
            .map(|i| (VertexId(i % targets), i as f64))
            .collect();
        let mut outbox = Outbox::new(3);
        assert_eq!(push_round(&mut outbox, &shares), combined(&shares, 3));
        assert!(outbox.index.slots.len() >= 2 * targets as usize);
    }

    /// Across the stamp's wrap every slot is cleared once: no round after
    /// it sees a target of a round before it — not even one stamped 1,
    /// the stamp the wrap restarts from — nor a slot never used.
    #[test]
    fn the_round_stamp_wraps_without_reviving_a_slot() {
        let round = |round: u64| -> Vec<(VertexId, f64)> {
            (0..100)
                .map(|i| (VertexId(round * 30 + i % 70), i as f64))
                .collect()
        };
        let mut outbox = Outbox::with_stamp(2, 1);
        assert_eq!(push_round(&mut outbox, &round(4)), combined(&round(4), 2));
        // As the slots see it, 2^32 - 3 rounds later: two rounds on other
        // targets, the wrap, and two that share targets with the round
        // stamped 1 but not their places.
        outbox.index.stamp = u32::MAX - 1;
        for shares in [0, 1, 5, 4].map(round) {
            assert_eq!(push_round(&mut outbox, &shares), combined(&shares, 2));
        }
        assert_eq!(outbox.index.stamp, 3);
    }
}

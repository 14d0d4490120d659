//! The vertex-program abstraction.
//!
//! Chronograph-class engines are *programmable*: the platform owns
//! partitioning, mailboxes, and scheduling, while a vertex program
//! defines how mutations seed computation and how computational messages
//! update vertex state. [`Partition`] is that contract here — one
//! instance per worker, driven by the engine's mailbox loop.
//!
//! Two programs ship with the engine:
//!
//! * [`crate::rank::RankPartition`] — the online influence rank of the
//!   paper's Chronograph experiment (§5.3.2),
//! * [`crate::sssp::DistancePartition`] — online single-source shortest
//!   distances, Table 1's "distributed routing algorithms" example of a
//!   converging computation.

use gt_core::prelude::*;

/// A partition's vertex map and its hasher (every share delivery is a
/// lookup here). They live in `gt-core` so `gt-graph` and the generator
/// hash ids the same way; `gt_core::hash::shard_of` shares the multiplier.
pub use gt_core::{VertexHasher, VertexMap};

/// One worker's share of a vertex-centric computation.
///
/// The engine calls the `*_deferred` hooks for every item of a round,
/// then [`flush_dirty`](Partition::flush_dirty) once — so programs can
/// coalesce work across a round (see `EngineConfig::drain_batch`). `out`
/// is the engine's own outbox: what a program pushes there is what the
/// engine ships, with no copy in between — except that the shares a
/// round owes one target are first folded into one with
/// [`combine`](Partition::combine), so a target receives at most one
/// share per round of each sending worker.
pub trait Partition: Send + 'static {
    /// The computational message the program exchanges between vertices.
    type Msg: Send + Clone;

    /// Folds `msg` into `into`, both owed the same target by one round:
    /// receiving the result must leave the target as receiving both
    /// would (the combiner of Pregel-style systems).
    fn combine(into: &mut Self::Msg, msg: Self::Msg);

    /// Ingests a locally-owned graph mutation; appends affected vertices
    /// to `dirty`. Must tolerate events referencing unknown vertices.
    /// `false` when the event is dropped: an `AddEdge` whose source is not
    /// live here (the engine counts it, as `tide-store` counts its
    /// dangling edges).
    fn apply_event_deferred(&mut self, event: &GraphEvent, dirty: &mut Vec<VertexId>) -> bool;

    /// Ingests one computational message addressed to `target`.
    fn receive_deferred(&mut self, target: VertexId, msg: Self::Msg, dirty: &mut Vec<VertexId>);

    /// Processes the batch's dirty vertices, appending outbound messages
    /// as `(destination vertex, message)` pairs. Duplicate dirty entries
    /// must be harmless.
    fn flush_dirty(&mut self, dirty: &[VertexId], out: &mut Vec<(VertexId, Self::Msg)>);

    /// Handles the broadcast half of a (possibly remote) vertex removal:
    /// strip local references to `removed`, appending repair messages.
    fn purge(&mut self, removed: VertexId, out: &mut Vec<(VertexId, Self::Msg)>);

    /// Appends the current result value of every vertex this partition
    /// owns — what the engine publishes on the result board, into a
    /// buffer the caller recycles from one publish to the next.
    fn summary_into(&self, out: &mut Vec<(VertexId, f64)>);

    /// The partition's current local out-topology, as `(vertex id,
    /// [(target id, weight bits)])` — the raw material of a
    /// [`gt_sut::StateDigest`]. Weights are captured as `f64::to_bits`
    /// so digest comparison is bit-exact; unweighted programs digest
    /// weight 1.0. Worker partitions own disjoint vertex sets, so the
    /// union of all workers' structures is the engine's full topology.
    /// The default (empty) opts a program out of digest capture.
    fn structure(&self) -> Vec<(u64, Vec<(u64, u64)>)> {
        Vec::new()
    }
}

//! One worker's vertices, under any vertex program.
//!
//! The engine owns the graph; a [`Program`] keeps only its math. A
//! [`VertexStore`] holds a worker's vertices — each a program value, an
//! out-list and a flag — applies the events routed to the worker, strips
//! purged vertices, delivers shares, and computes the vertices the round
//! listed. It states the graph's rules once, for every program:
//!
//! * a vertex exists on its owner worker from its `AddVertex` to its
//!   `RemoveVertex`; an edge is kept in its source's out-list, whether or
//!   not its target is live;
//! * a self-loop is skipped: no program computes over one, and no
//!   worker holds one;
//! * an `AddEdge` whose source is not live is dropped, and counted
//!   (`dangling_edges_dropped`); a `RemoveEdge` or `UpdateEdge` whose
//!   source is not live is ignored;
//! * a share whose target is not live is dropped, and counted
//!   (`shares_dropped`);
//! * a removed vertex is stripped from every out-list on every worker:
//!   its owner strips its own at once, the others on the purge the
//!   engine broadcasts;
//! * a vertex is computed at most once a round, however often it was
//!   listed: listing sets its flag, and the flush computes only an entry
//!   whose flag is set, and clears it.

use gt_core::prelude::*;
use gt_core::VertexMap;
use gt_graph::HybridAdjacency;
use gt_sut::Adjacency;

use crate::program::{Change, Program, Weight};

/// A vertex: its program value, its out-edges (targets may live on other
/// workers) in the degree-adaptive hybrid representation, and whether it
/// is listed for this round's flush.
#[derive(Default)]
struct Vertex<V, E> {
    value: V,
    out: HybridAdjacency<E>,
    listed: bool,
}

/// One worker's vertices and the program that computes over them.
pub struct VertexStore<P: Program> {
    program: P,
    /// Every share delivery is a lookup here; `gt_core`'s hasher is the
    /// one `gt-graph` and the generator hash ids with.
    vertices: VertexMap<Vertex<P::Value, P::Weight>>,
    /// The vertices listed since the last flush, as often as they were
    /// listed; only an entry whose vertex still carries the flag is
    /// computed. (A vertex removed and re-added in one round may be here
    /// once from each life, and is still computed once.)
    dirty: Vec<VertexId>,
}

impl<P: Program> VertexStore<P> {
    /// An empty store running `program`.
    pub fn new(program: P) -> Self {
        VertexStore {
            program,
            vertices: VertexMap::default(),
            dirty: Vec::new(),
        }
    }

    /// The program.
    pub fn program(&self) -> &P {
        &self.program
    }

    /// Out-edges held here.
    pub(crate) fn edges(&self) -> u64 {
        self.vertices
            .values()
            .map(|vertex| vertex.out.len() as u64)
            .sum()
    }

    /// Applies a graph event owned by this worker. `false` when it is
    /// dropped: an `AddEdge` whose source is not live here.
    pub fn apply(&mut self, event: &GraphEvent) -> bool {
        let (id, vertex, change) = match event {
            GraphEvent::AddVertex { id, .. } => {
                let vertex = self.vertices.entry(*id).or_default();
                (*id, vertex, Change::Added)
            }
            GraphEvent::RemoveVertex { id } => {
                if let Some(mut vertex) = self.vertices.remove(id) {
                    self.program
                        .changed(*id, &mut vertex.value, Change::Removed);
                }
                // Ingest broadcasts `Purge` only to the *other* workers:
                // without this strip the surviving topology would depend
                // on the worker count.
                self.purge(*id);
                return true;
            }
            GraphEvent::AddEdge { id, state } if !id.is_self_loop() => {
                let Some(vertex) = self.vertices.get_mut(&id.src) else {
                    return false;
                };
                if !vertex.out.insert_if_absent(id.dst, || P::Weight::of(state)) {
                    return true;
                }
                (id.src, vertex, Change::Linked)
            }
            GraphEvent::RemoveEdge { id } => {
                let Some(vertex) = self.vertices.get_mut(&id.src) else {
                    return true;
                };
                if vertex.out.remove(id.dst).is_none() {
                    return true;
                }
                (id.src, vertex, Change::Unlinked)
            }
            GraphEvent::UpdateEdge { id, state } => {
                let Some(vertex) = self.vertices.get_mut(&id.src) else {
                    return true;
                };
                let Some(slot) = vertex.out.get_mut(id.dst) else {
                    return true;
                };
                let weight = P::Weight::of(state);
                let heavier = weight.value() > slot.value();
                *slot = weight;
                (id.src, vertex, Change::Reweighted { heavier })
            }
            // A self-loop is skipped; a vertex's state is no program's.
            GraphEvent::AddEdge { .. } | GraphEvent::UpdateVertex { .. } => return true,
        };
        if self.program.changed(id, &mut vertex.value, change) {
            list(&mut self.dirty, id, vertex);
        }
        true
    }

    /// Strips `removed` from every out-list here: the broadcast half of a
    /// (possibly remote) vertex removal. Each vertex that loses the edge
    /// is `Unlinked`.
    pub(crate) fn purge(&mut self, removed: VertexId) {
        for (&id, vertex) in self.vertices.iter_mut() {
            let unlinked = vertex.out.remove(removed).is_some();
            if unlinked
                && self
                    .program
                    .changed(id, &mut vertex.value, Change::Unlinked)
            {
                list(&mut self.dirty, id, vertex);
            }
        }
    }

    /// Delivers one share to `target`. `false` when `target` is not live
    /// here and the share is dropped.
    pub(crate) fn receive(&mut self, target: VertexId, msg: P::Msg) -> bool {
        let Some(vertex) = self.vertices.get_mut(&target) else {
            return false;
        };
        if self.program.receive(&mut vertex.value, msg) {
            list(&mut self.dirty, target, vertex);
        }
        true
    }

    /// Computes every vertex listed since the last flush, once each, in
    /// the order of its first listing, handing each message to `send`.
    pub(crate) fn flush(&mut self, mut send: impl FnMut(VertexId, P::Msg)) {
        for id in self.dirty.drain(..) {
            let Some(vertex) = self.vertices.get_mut(&id) else {
                continue;
            };
            if std::mem::take(&mut vertex.listed) {
                self.program
                    .compute(&mut vertex.value, &vertex.out, &mut send);
            }
        }
    }

    /// Appends every vertex's result — what the engine publishes on the
    /// result board, into a buffer the caller recycles.
    pub fn summary_into(&self, out: &mut Vec<(VertexId, f64)>) {
        // Sized once and filled in place: the loop stores no length per
        // vertex, whatever the caller it is inlined into.
        let start = out.len();
        out.resize(start + self.vertices.len(), (VertexId(0), 0.0));
        for (slot, (id, vertex)) in out[start..].iter_mut().zip(&self.vertices) {
            *slot = (*id, P::result(&vertex.value));
        }
    }

    /// The local out-topology, as `(vertex id, [(target id, weight
    /// bits)])` — the raw material of a [`gt_sut::StateDigest`]. Weights
    /// are captured as `f64::to_bits` so a digest compares bit for bit.
    /// Workers own disjoint vertex sets, so the union of all workers'
    /// structures is the engine's full topology.
    pub(crate) fn structure(&self) -> Adjacency {
        (self.vertices.iter())
            .map(|(id, vertex)| {
                let out = vertex.out.iter();
                (id.0, out.map(|(t, w)| (t.0, w.value().to_bits())).collect())
            })
            .collect()
    }
}

/// Lists `vertex` for the next flush.
fn list<V, E>(dirty: &mut Vec<VertexId>, id: VertexId, vertex: &mut Vertex<V, E>) {
    vertex.listed = true;
    dirty.push(id);
}

/// What tests read of a store.
#[cfg(test)]
impl<P: Program> VertexStore<P> {
    /// The value of vertex `id`, if it is live.
    pub(crate) fn value(&self, id: VertexId) -> Option<&P::Value> {
        self.vertices.get(&id).map(|vertex| &vertex.value)
    }

    /// The out-list of vertex `id`, if it is live.
    pub(crate) fn out(&self, id: VertexId) -> Option<&HybridAdjacency<P::Weight>> {
        self.vertices.get(&id).map(|vertex| &vertex.out)
    }

    /// The vertices listed since the last flush, as often as listed.
    pub(crate) fn listings(&self) -> &[VertexId] {
        &self.dirty
    }

    /// Every live vertex's value.
    pub(crate) fn values(&self) -> impl Iterator<Item = (VertexId, &P::Value)> {
        (self.vertices.iter()).map(|(id, vertex)| (*id, &vertex.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sssp::DistanceProgram;

    /// A rank vertex, listing flag included, fills 104 bytes of its
    /// worker's map: 8 more than the per-program state it replaced.
    #[test]
    fn a_rank_vertex_takes_104_bytes() {
        assert_eq!(std::mem::size_of::<Vertex<crate::rank::Mass, ()>>(), 104);
    }

    /// A vertex listed, removed, re-added and listed again in one round
    /// is computed once: the new vertex, over its own out-list.
    #[test]
    fn a_vertex_removed_and_re_added_in_one_round_computes_once() {
        let mut store = VertexStore::new(DistanceProgram::new(VertexId(0)));
        let add_v = |id| GraphEvent::AddVertex {
            id: VertexId(id),
            state: State::empty(),
        };
        let add_e = |dst, weight| GraphEvent::AddEdge {
            id: EdgeId::from((0, dst)),
            state: State::weight(weight),
        };
        let remove = GraphEvent::RemoveVertex { id: VertexId(0) };
        for event in [add_v(0), add_e(1, 1.0), remove, add_v(0), add_e(2, 2.0)] {
            assert!(store.apply(&event));
        }
        assert_eq!(store.listings(), [VertexId(0); 4]);
        let mut offers = Vec::new();
        store.flush(|target, offer| offers.push((target, offer)));
        assert_eq!(offers, [(VertexId(2), 2.0)]);
        assert_eq!(store.edges(), 1);
    }
}

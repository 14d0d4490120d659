//! The one adjacency store under every event-applying graph body.
//!
//! "Apply a graph event to per-vertex adjacency plus a reverse index"
//! exists once, here: [`crate::EvolvingGraph`] and the store shards'
//! partition state in `tide-store` both store `P = State`. Storage is
//! split by what each access needs (DESIGN.md §12, GraphTango's layout in
//! PAPERS.md):
//!
//! * entries — a state, an out-adjacency with a per-edge `P` and an
//!   in-adjacency (the reverse index, which makes a vertex removal cost its
//!   degree) — live in a dense **slab** (`Vec` of slots plus a free list),
//!   so an entry is never moved by a neighbour's insert and growth is one
//!   `realloc`;
//! * point lookups go through a **hash index** `VertexId → slot` behind
//!   [`gt_core::VertexHasher`].
//!
//! One rule decides an entry's lifetime: it lives while it has a state or
//! an edge. A vertex with a state is an entry, and so is an endpoint that
//! only a linked edge named (in a shard, a vertex another shard owns);
//! the write that takes a stateless entry's last edge removes the entry.
//!
//! Edges are added two ways, because the two users know two different
//! things about the endpoints: `AdjacencyStore::insert_edge_if_absent`
//! links two vertices that both have a state here, and
//! [`AdjacencyStore::link_if_absent`] trusts its caller that both exist
//! and makes a stateless entry for an endpoint held elsewhere (in a
//! shard, a vertex another shard owns). Neither replaces a payload.
//! The store keeps no order; a user that iterates by id keeps its own
//! ordered index of the `Slot`s it was handed, or sorts what
//! [`AdjacencyStore::iter`] yields.

use std::collections::hash_map::Entry as MapEntry;

use gt_core::prelude::*;
use gt_core::VertexMap;

use crate::hybrid::HybridAdjacency;

/// Position of an entry in the slab; stable while the entry lives.
pub(crate) type Slot = u32;

/// One vertex: its state and both adjacency directions. The store hands
/// out shared references only; every write goes through its operations.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry<P> {
    /// The vertex's state; `None` for an entry only edges keep alive.
    pub state: Option<P>,
    /// Outgoing adjacency with the per-edge payload.
    pub out: HybridAdjacency<P>,
    /// Incoming adjacency: the sources with an edge to this vertex.
    pub inc: HybridAdjacency<()>,
}

impl<P> Entry<P> {
    /// An entry with no state and no edge — what a free slot holds.
    fn vacant() -> Self {
        Entry {
            state: None,
            out: HybridAdjacency::new(),
            inc: HybridAdjacency::new(),
        }
    }

    /// Whether the lifetime rule has ended the entry. A spent entry holds
    /// no heap: an adjacency shrunk to empty is back to inline.
    fn is_spent(&self) -> bool {
        self.state.is_none() && self.out.is_empty() && self.inc.is_empty()
    }
}

/// Vertices with state and directed edges with payload `P`, indexed by
/// hash over a slab. See the module docs.
#[derive(Debug, Clone)]
pub struct AdjacencyStore<P> {
    /// Entries; a slot on the free list holds a vacant one.
    slab: Vec<Entry<P>>,
    /// Vacated slots, reused (last out first) before the slab grows.
    free: Vec<Slot>,
    index: VertexMap<Slot>,
    /// Entries with a state.
    vertex_count: usize,
    edge_count: usize,
}

impl<P> Default for AdjacencyStore<P> {
    fn default() -> Self {
        AdjacencyStore {
            slab: Vec::new(),
            free: Vec::new(),
            index: VertexMap::default(),
            vertex_count: 0,
            edge_count: 0,
        }
    }
}

impl<P> AdjacencyStore<P> {
    /// Entries with a state.
    pub fn vertex_count(&self) -> usize {
        self.vertex_count
    }

    /// Directed edges; a self-loop is one.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Entries of either kind: vertices plus stateless edge endpoints.
    pub fn entry_count(&self) -> usize {
        self.index.len()
    }

    /// The slot of `id`'s entry.
    pub(crate) fn slot(&self, id: VertexId) -> Option<Slot> {
        self.index.get(&id).copied()
    }

    /// The entry in a slot this store handed out and that is still live.
    pub fn at(&self, slot: Slot) -> &Entry<P> {
        &self.slab[slot as usize]
    }

    fn at_mut(&mut self, slot: Slot) -> &mut Entry<P> {
        &mut self.slab[slot as usize]
    }

    /// Point lookup: one hash, then the slab.
    pub fn get(&self, id: VertexId) -> Option<&Entry<P>> {
        self.slot(id).map(|slot| self.at(slot))
    }

    /// `id`'s state.
    pub fn state(&self, id: VertexId) -> Option<&P> {
        self.get(id).and_then(|entry| entry.state.as_ref())
    }

    /// The payload of edge `id`.
    pub fn edge(&self, id: EdgeId) -> Option<&P> {
        self.get(id.src).and_then(|src| src.out.get(id.dst))
    }

    /// Every entry with its id, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &Entry<P>)> {
        self.index.iter().map(|(&id, &slot)| (id, self.at(slot)))
    }

    /// `id`'s state, for an in-place update.
    pub fn state_mut(&mut self, id: VertexId) -> Option<&mut P> {
        let slot = self.slot(id)?;
        self.at_mut(slot).state.as_mut()
    }

    /// The payload of edge `id`, for an in-place update.
    pub fn edge_mut(&mut self, id: EdgeId) -> Option<&mut P> {
        let slot = self.slot(id.src)?;
        self.at_mut(slot).out.get_mut(id.dst)
    }

    /// `id`'s slot, taking a free one (or growing the slab) for a new,
    /// vacant entry. One hash either way.
    fn slot_or_insert(&mut self, id: VertexId) -> Slot {
        let vacant = match self.index.entry(id) {
            MapEntry::Occupied(indexed) => return *indexed.get(),
            MapEntry::Vacant(vacant) => vacant,
        };
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slab.push(Entry::vacant());
            Slot::try_from(self.slab.len() - 1).expect("fewer than 2^32 entries live at once")
        });
        *vacant.insert(slot)
    }

    /// Sets `id`'s state, creating its entry if needed, and returns the
    /// entry's slot.
    pub fn upsert_state(&mut self, id: VertexId, state: P) -> Slot {
        let slot = self.slot_or_insert(id);
        if self.at_mut(slot).state.replace(state).is_none() {
            self.vertex_count += 1;
        }
        slot
    }

    /// Links `id.src → id.dst` with payload `make()` unless the edge
    /// exists; `Ok` says whether it was added. Both endpoints must have a
    /// state: `Err` names the first that has none, source first. One hash
    /// per endpoint and one search of the source's out-list.
    pub(crate) fn insert_edge_if_absent(
        &mut self,
        id: EdgeId,
        make: impl FnOnce() -> P,
    ) -> Result<bool, VertexId> {
        let vertex = |v| {
            self.slot(v)
                .filter(|&slot| self.at(slot).state.is_some())
                .ok_or(v)
        };
        let src = vertex(id.src)?;
        let dst = vertex(id.dst)?;
        if !self.at_mut(src).out.insert_if_absent(id.dst, make) {
            return Ok(false);
        }
        self.at_mut(dst).inc.insert(id.src, ());
        self.edge_count += 1;
        Ok(true)
    }

    /// Links `id.src → id.dst` with payload `make()` unless the edge
    /// exists, making a stateless entry for an endpoint that has none
    /// here; returns whether it was added. The caller vouches that both
    /// endpoints exist somewhere. One hash per endpoint and one search of
    /// the source's out-list.
    pub fn link_if_absent(&mut self, id: EdgeId, make: impl FnOnce() -> P) -> bool {
        let src = self.slot_or_insert(id.src);
        let dst = self.slot_or_insert(id.dst);
        if !self.at_mut(src).out.insert_if_absent(id.dst, make) {
            return false;
        }
        self.at_mut(dst).inc.insert(id.src, ());
        self.edge_count += 1;
        true
    }

    /// Removes edge `id` and returns its payload. An endpoint left with
    /// neither a state nor an edge goes with it.
    pub fn remove_edge(&mut self, id: EdgeId) -> Option<P> {
        let src = self.slot(id.src)?;
        let payload = self.at_mut(src).out.remove(id.dst)?;
        let dst = self.index[&id.dst];
        self.at_mut(dst).inc.remove(id.src);
        self.edge_count -= 1;
        self.release_if_spent(id.src, src);
        self.release_if_spent(id.dst, dst);
        Some(payload)
    }

    /// Removes `id`'s entry with every edge at it, in O(degree): each
    /// neighbour is reached through the entry's own two lists, and a
    /// self-loop, listed in both, is one edge. Neighbours left with
    /// neither a state nor an edge go too. Returns how many edges went, or
    /// `None` if `id` had no entry.
    pub fn remove_vertex(&mut self, id: VertexId) -> Option<usize> {
        let slot = self.index.remove(&id)?;
        let entry = std::mem::replace(self.at_mut(slot), Entry::vacant());
        self.free.push(slot);
        self.vertex_count -= usize::from(entry.state.is_some());
        for dst in entry.out.keys().filter(|&dst| dst != id) {
            let dst_slot = self.index[&dst];
            self.at_mut(dst_slot).inc.remove(id);
            self.release_if_spent(dst, dst_slot);
        }
        for src in entry.inc.keys().filter(|&src| src != id) {
            let src_slot = self.index[&src];
            self.at_mut(src_slot).out.remove(id);
            self.release_if_spent(src, src_slot);
        }
        let removed = entry.out.len() + entry.inc.len() - usize::from(entry.out.contains(id));
        self.edge_count -= removed;
        Some(removed)
    }

    /// Frees `id`'s slot if the lifetime rule has ended its entry, which
    /// then is already vacant; a slot already freed is left alone.
    fn release_if_spent(&mut self, id: VertexId, slot: Slot) {
        if self.at(slot).is_spent() && self.index.remove(&id).is_some() {
            self.free.push(slot);
        }
    }

    /// Checks that slab, free list and hash index describe one set of
    /// entries, that every entry has a state or an edge, that the reverse
    /// index mirrors the forward adjacency and that both counts match.
    /// For tests and debugging; O(V + E).
    pub fn check_invariants(&self) -> Result<(), String> {
        // Every slot is claimed exactly once: a live entry by one id, a
        // vacant slot by one free-list entry.
        let mut claimed: Vec<Slot> = self.index.values().chain(&self.free).copied().collect();
        claimed.sort_unstable();
        if !claimed.into_iter().eq(0..self.slab.len() as Slot) {
            return Err("the ids and the free list do not claim each slot once".into());
        }
        if let Some(slot) = self.free.iter().find(|&&slot| !self.at(slot).is_spent()) {
            return Err(format!("free slot {slot} still holds an entry"));
        }
        let (mut vertices, mut edges) = (0, 0);
        for (&id, &slot) in &self.index {
            let entry = self.at(slot);
            if entry.is_spent() {
                return Err(format!("vertex {id} has neither a state nor an edge"));
            }
            vertices += usize::from(entry.state.is_some());
            for dst in entry.out.keys() {
                edges += 1;
                if !self.get(dst).is_some_and(|d| d.inc.contains(id)) {
                    return Err(format!("edge {id}-{dst} missing from the reverse index"));
                }
            }
            for src in entry.inc.keys() {
                if !self.get(src).is_some_and(|s| s.out.contains(id)) {
                    return Err(format!("reverse edge {src}->{id} has no forward edge"));
                }
            }
        }
        // Both as (vertices, edges).
        let (counted, held) = ((self.vertex_count, self.edge_count), (vertices, edges));
        if counted == held {
            return Ok(());
        }
        Err(format!("counts {counted:?} but entries hold {held:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(src: u64, dst: u64) -> EdgeId {
        EdgeId::from((src, dst))
    }

    #[test]
    fn a_vertex_slot_is_no_larger_than_the_graph_slot_it_replaced() {
        // `EvolvingGraph`'s slab slot measured 424 bytes before it moved
        // onto this store, and 368 once the inline adjacency tier kept its
        // ids in an array of their own; the slab's size is
        // `store-direct-mixed`'s peak heap (DESIGN.md §12).
        assert_eq!(std::mem::size_of::<Entry<State>>(), 368);
    }

    #[test]
    fn an_in_list_and_a_shard_slot_carry_no_inline_tags() {
        // 136 and 288 bytes while every inline slot was an
        // `Option<(VertexId, P)>`, padded to 16 bytes for `P = ()`. An
        // 8-byte pointer payload (like the shared event handle the store
        // shards held until they stored states by value) still fills a
        // 232-byte slot.
        assert_eq!(std::mem::size_of::<HybridAdjacency<()>>(), 80);
        assert_eq!(std::mem::size_of::<Entry<Box<u64>>>(), 232);
    }

    #[test]
    fn a_self_loop_is_one_edge_and_the_cascade_skips_it() {
        // Every entry here is stateless: each goes with its last edge.
        let mut store = AdjacencyStore::default();
        store.link_if_absent(e(1, 1), || ());
        store.link_if_absent(e(1, 2), || ());
        store.link_if_absent(e(3, 1), || ());
        assert_eq!(store.edge_count(), 3);
        assert_eq!(store.remove_vertex(VertexId(1)), Some(3));
        assert_eq!((store.edge_count(), store.entry_count()), (0, 0));
        store.link_if_absent(e(4, 4), || ());
        assert_eq!(store.remove_edge(e(4, 4)), Some(()));
        assert_eq!(store.entry_count(), 0);
        store.check_invariants().unwrap();
        assert_eq!(store.free.len(), store.slab.len(), "every slot reusable");
    }

    #[test]
    fn insert_if_absent_needs_two_vertices_and_never_replaces() {
        let mut store = AdjacencyStore::default();
        assert_eq!(store.upsert_state(VertexId(1), 10), 0);
        assert_eq!(store.insert_edge_if_absent(e(2, 1), || 0), Err(VertexId(2)));
        assert_eq!(store.insert_edge_if_absent(e(1, 2), || 0), Err(VertexId(2)));
        // An entry a link left stateless is not a vertex until it gets a
        // state.
        store.link_if_absent(e(3, 2), || 0);
        assert_eq!(store.insert_edge_if_absent(e(1, 2), || 0), Err(VertexId(2)));
        store.upsert_state(VertexId(2), 20);
        assert_eq!(store.insert_edge_if_absent(e(1, 2), || 7), Ok(true));
        assert_eq!(
            store.insert_edge_if_absent(e(1, 2), || panic!("present")),
            Ok(false)
        );
        assert_eq!(store.edge(e(1, 2)), Some(&7));
        assert_eq!((store.vertex_count(), store.edge_count()), (2, 2));
        store.check_invariants().unwrap();
    }
}

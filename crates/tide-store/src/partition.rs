//! Shard-local graph state, exact, and the graph the shards hold together.
//!
//! Every shard worker keeps the vertices routed to it (by id) and the
//! edges routed to it (by source): the per-event apply work of the store
//! (a Weaver shard's, in the paper). The state is **exact**: the union of
//! the shards equals an `EvolvingGraph` replaying the committed events in
//! commit order under `ApplyPolicy::Lenient`, so the final graph, its
//! counts and the digest are read off the shards at shutdown. Two facts a
//! shard cannot see locally are decided for it by the sequencer, which
//! keeps the set of live vertex ids (`store.rs`):
//!
//! * whether an `AddEdge`'s destination, which may be another shard's
//!   vertex, is live at its commit timestamp — if not, the shard receives
//!   it marked *dangling*, counts it and leaves the state alone (the
//!   source is the shard's own vertex, so [`PartitionState::apply`]
//!   checks that one itself);
//! * that another shard's vertex was removed — the shard receives the
//!   removal in position, as a *purge*, and applying it drops the shard's
//!   own edges into that vertex.
//!
//! Everything else is a local rule: vertices and edges are added only if
//! absent, updated only if present, removed if present, and a self-loop is
//! never added.
//!
//! The body is gt-graph's [`AdjacencyStore`], the one the reference
//! `EvolvingGraph` runs on: a slab of per-vertex entries behind a hash
//! index, each with an out-list and an in-list that move between three
//! tiers by degree (up to 8 entries inline, a sorted array up to 1 024, a
//! tree above), so removing a vertex costs its own degree. States are held
//! by value: no log keeps the events alive, so a handle would keep each
//! superseded event's allocation alive instead. The destination of an
//! edge into another shard's vertex is a stateless entry here, which lives
//! as long as its edges here.

use gt_core::prelude::*;
use gt_graph::store::Entry;
use gt_graph::AdjacencyStore;
use gt_sut::Adjacency;

use gt_core::hash::shard_of;

/// The vertex and edge state held by one shard worker.
#[derive(Debug, Default)]
pub struct PartitionState {
    store: AdjacencyStore<State>,
}

impl PartitionState {
    /// An empty partition.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of vertices with explicit state.
    pub fn vertex_count(&self) -> usize {
        self.store.vertex_count()
    }

    /// Number of edges held locally.
    pub fn edge_count(&self) -> usize {
        self.store.edge_count()
    }

    /// Applies one of this shard's events under the lenient rules (see
    /// the module docs). An `AddEdge` that reaches here has a live
    /// destination — the sequencer holds back the ones that have not —
    /// and is dropped if its source is not a vertex here: returns `false`
    /// for such a *dangling* edge, `true` otherwise.
    pub fn apply(&mut self, event: &GraphEvent) -> bool {
        match event {
            GraphEvent::AddVertex { id, state } => {
                if self.store.state(*id).is_none() {
                    self.store.upsert_state(*id, state.clone());
                }
            }
            GraphEvent::UpdateVertex { id, state } => {
                if let Some(old) = self.store.state_mut(*id) {
                    old.clone_from(state);
                }
            }
            // For the owner the vertex with its edges here, for every
            // other shard (a purge) the edges into it.
            GraphEvent::RemoveVertex { id } => {
                self.store.remove_vertex(*id);
            }
            GraphEvent::AddEdge { id, .. } if id.is_self_loop() => {}
            GraphEvent::AddEdge { id, .. } if self.store.state(id.src).is_none() => return false,
            GraphEvent::AddEdge { id, state } => {
                self.store.link_if_absent(*id, || state.clone());
            }
            GraphEvent::UpdateEdge { id, state } => {
                if let Some(old) = self.store.edge_mut(*id) {
                    old.clone_from(state);
                }
            }
            GraphEvent::RemoveEdge { id } => {
                self.store.remove_edge(*id);
            }
        }
        true
    }

    /// This shard's vertices with their out-lists, in digest form (weights
    /// as `f64` bits, an unweighted edge weighing 1.0), vertices in no
    /// particular order.
    pub(crate) fn adjacency(&self) -> Adjacency {
        (self.store.iter())
            .filter(|(_, entry)| entry.state.is_some())
            .map(|(id, entry)| (id.0, out_digest(entry)))
            .collect()
    }
}

/// An entry's out-list in digest form, ascending.
fn out_digest(entry: &Entry<State>) -> Vec<(u64, u64)> {
    (entry.out.iter())
        .map(|(dst, state)| (dst.0, state.as_weight().unwrap_or(1.0).to_bits()))
        .collect()
}

/// The committed graph at shutdown: the shards' final states, joined. It
/// is a view over the states the shards built, not a copy of them.
#[derive(Debug, Default)]
pub struct ShardedGraph {
    /// One state per shard slot, in slot order; the slot of a shard that
    /// died for good holds an empty one.
    parts: Vec<PartitionState>,
}

impl ShardedGraph {
    /// Joins the shards' final states, indexed by slot. An edge into a
    /// vertex no shard holds — a dead shard's vertex, the only kind that
    /// can be missing — is dropped; returns the graph and how many went.
    pub(crate) fn join(mut parts: Vec<PartitionState>) -> (Self, u64) {
        let mut dropped = 0;
        for slot in 0..parts.len() {
            let missing: Vec<VertexId> = (parts[slot].store.iter())
                .filter(|&(id, entry)| entry.state.is_none() && !held(&parts, id))
                .map(|(id, _)| id)
                .collect();
            for id in missing {
                dropped += parts[slot].store.remove_vertex(id).unwrap_or(0) as u64;
            }
        }
        (ShardedGraph { parts }, dropped)
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.parts.iter().map(PartitionState::vertex_count).sum()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.parts.iter().map(PartitionState::edge_count).sum()
    }

    /// Every vertex with its entry, in ascending id order.
    fn vertices(&self) -> Vec<(VertexId, &Entry<State>)> {
        let mut vertices: Vec<_> = (self.parts.iter())
            .flat_map(|part| part.store.iter())
            .filter(|(_, entry)| entry.state.is_some())
            .collect();
        vertices.sort_unstable_by_key(|&(id, _)| id);
        vertices
    }

    /// Iterates over all directed edges `(edge, state)` in (src, dst)
    /// order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &State)> {
        self.vertices().into_iter().flat_map(|(src, entry)| {
            (entry.out.iter()).map(move |(dst, state)| (EdgeId::new(src, dst), state))
        })
    }

    /// Every vertex with its out-list in digest form, in canonical order.
    pub fn adjacency(&self) -> Adjacency {
        (self.vertices().into_iter())
            .map(|(id, entry)| (id.0, out_digest(entry)))
            .collect()
    }

    /// Checks every shard's store (see `AdjacencyStore::check_invariants`),
    /// that each vertex lives on the shard that owns it, and that every
    /// edge ends at a vertex some shard holds. For tests and debugging;
    /// O(V + E).
    pub fn check_invariants(&self) -> Result<(), String> {
        let shards = self.parts.len();
        for (slot, part) in self.parts.iter().enumerate() {
            part.store
                .check_invariants()
                .map_err(|e| format!("shard {slot}: {e}"))?;
            for (id, entry) in part.store.iter() {
                let owner = shard_of(id, shards);
                if entry.state.is_some() && owner != slot {
                    return Err(format!("vertex {id} is on shard {slot}, owner {owner}"));
                }
                if entry.state.is_none() && !held(&self.parts, id) {
                    return Err(format!("shard {slot} has an edge into missing vertex {id}"));
                }
            }
        }
        Ok(())
    }
}

/// Whether `id`'s owner among `parts` holds it as a vertex.
fn held(parts: &[PartitionState], id: VertexId) -> bool {
    let owner = shard_of(id, parts.len());
    parts[owner].store.state(id).is_some()
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use gt_graph::hybrid::Tier;
    use gt_graph::{ApplyPolicy, EvolvingGraph};

    use super::*;

    fn add_edge(state: &mut PartitionState, src: u64, dst: u64, s: &str) {
        state.apply(&GraphEvent::AddEdge {
            id: EdgeId::from((src, dst)),
            state: State::new(s),
        });
    }

    fn read_edge(p: &PartitionState, src: u64, dst: u64) -> Option<&str> {
        p.store.edge(EdgeId::from((src, dst))).map(State::as_str)
    }

    #[test]
    fn adds_only_if_absent_and_updates_only_if_present() {
        let mut p = PartitionState::new();
        let vertex = |s: &str| GraphEvent::UpdateVertex {
            id: VertexId(1),
            state: State::new(s),
        };
        p.apply(&vertex("lost"));
        assert_eq!(p.vertex_count(), 0, "an update adds nothing");
        p.apply(&GraphEvent::AddVertex {
            id: VertexId(1),
            state: State::new("v"),
        });
        p.apply(&GraphEvent::AddVertex {
            id: VertexId(1),
            state: State::new("again"),
        });
        assert_eq!(p.store.state(VertexId(1)).unwrap().as_str(), "v");
        p.apply(&vertex("v2"));
        assert_eq!(p.store.state(VertexId(1)).unwrap().as_str(), "v2");
        // Vertex 2 is another shard's: a stateless destination entry.
        add_edge(&mut p, 1, 2, "w=1");
        add_edge(&mut p, 1, 2, "w=9");
        assert_eq!(read_edge(&p, 1, 2), Some("w=1"));
        p.apply(&GraphEvent::UpdateEdge {
            id: EdgeId::from((1, 2)),
            state: State::new("w=2"),
        });
        assert_eq!(read_edge(&p, 1, 2), Some("w=2"));
        p.apply(&GraphEvent::UpdateEdge {
            id: EdgeId::from((1, 3)),
            state: State::new("w=3"),
        });
        assert_eq!(read_edge(&p, 1, 3), None);
        add_edge(&mut p, 1, 1, "loop");
        assert_eq!((p.vertex_count(), p.edge_count()), (1, 1));
        assert_eq!(p.store.entry_count(), 2);
        p.store.check_invariants().unwrap();
    }

    #[test]
    fn a_purge_drops_the_edges_into_a_foreign_vertex() {
        let mut p = PartitionState::new();
        for v in [1, 3] {
            p.apply(&GraphEvent::AddVertex {
                id: VertexId(v),
                state: State::empty(),
            });
        }
        add_edge(&mut p, 1, 2, "");
        add_edge(&mut p, 3, 2, "");
        add_edge(&mut p, 1, 3, "");
        p.apply(&GraphEvent::RemoveVertex { id: VertexId(2) });
        assert_eq!((p.edge_count(), p.store.entry_count()), (1, 2));
        assert!(p.store.get(VertexId(2)).is_none());
        p.apply(&GraphEvent::RemoveVertex { id: VertexId(3) });
        assert_eq!((p.vertex_count(), p.edge_count()), (1, 0));
        p.store.check_invariants().unwrap();
    }

    #[test]
    fn hub_degrees_promote_without_changing_reads() {
        let mut p = PartitionState::new();
        p.apply(&GraphEvent::AddVertex {
            id: VertexId(7),
            state: State::empty(),
        });
        for dst in (0..64u64).filter(|&dst| dst != 7) {
            add_edge(&mut p, 7, dst, "x");
        }
        assert_eq!(p.edge_count(), 63);
        assert_eq!(read_edge(&p, 7, 42), Some("x"));
        assert_ne!(p.store.get(VertexId(7)).unwrap().out.tier(), Tier::Inline);
        p.apply(&GraphEvent::RemoveVertex { id: VertexId(7) });
        assert_eq!((p.edge_count(), p.store.entry_count()), (0, 0));
    }

    /// A seeded mixed stream over `vertices` ids. Vertex 0 is pushed well
    /// past `INLINE_CAP` in both directions (a hub source and a hub
    /// destination); the other vertices stay mostly inline. Includes
    /// self-loops, duplicate adds, updates and removals of missing
    /// entities, edges with a missing endpoint, and removed vertices that
    /// are later re-added.
    fn mixed_stream(seed: u64, vertices: u64, len: usize) -> Vec<GraphEvent> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        (0..len)
            .map(|i| {
                let a = VertexId(next() % vertices);
                let b = VertexId(next() % vertices);
                let hub = VertexId(0);
                let state = State::new(format!("s{i}"));
                match next() % 128 {
                    0..=31 => GraphEvent::AddEdge {
                        id: EdgeId::new(a, b),
                        state,
                    },
                    32..=47 => GraphEvent::AddEdge {
                        id: EdgeId::new(hub, b),
                        state,
                    },
                    48..=63 => GraphEvent::AddEdge {
                        id: EdgeId::new(a, hub),
                        state,
                    },
                    64..=69 => GraphEvent::AddEdge {
                        id: EdgeId::new(a, a),
                        state,
                    },
                    70..=81 => GraphEvent::UpdateEdge {
                        id: EdgeId::new(a, b),
                        state,
                    },
                    82..=97 => GraphEvent::RemoveEdge {
                        id: EdgeId::new(a, b),
                    },
                    98..=109 => GraphEvent::AddVertex { id: a, state },
                    110..=115 => GraphEvent::UpdateVertex { id: a, state },
                    // Any vertex but the hub, so the hub has time to grow.
                    116..=126 => GraphEvent::RemoveVertex {
                        id: VertexId(1 + a.0 % (vertices - 1)),
                    },
                    _ if next() % 4 == 0 => GraphEvent::RemoveVertex { id: hub },
                    _ => GraphEvent::AddVertex { id: hub, state },
                }
            })
            .collect()
    }

    /// The store's sequencer in miniature: routes `event` to its owner
    /// among `parts`, holding back an edge whose endpoint is not live and
    /// purging a removed live vertex from every other part.
    fn route(parts: &mut [PartitionState], live: &mut HashSet<VertexId>, event: &GraphEvent) {
        let shards = parts.len();
        let owner = |v: VertexId| shard_of(v, shards);
        match event {
            GraphEvent::AddVertex { id, .. } => {
                live.insert(*id);
            }
            GraphEvent::RemoveVertex { id } if live.remove(id) => {
                for (slot, part) in parts.iter_mut().enumerate() {
                    if slot != owner(*id) {
                        part.apply(event);
                    }
                }
            }
            GraphEvent::AddEdge { id, .. } if !live.contains(&id.dst) => return,
            _ => {}
        }
        let key = match event {
            GraphEvent::AddVertex { id, .. }
            | GraphEvent::UpdateVertex { id, .. }
            | GraphEvent::RemoveVertex { id } => *id,
            GraphEvent::AddEdge { id, .. }
            | GraphEvent::UpdateEdge { id, .. }
            | GraphEvent::RemoveEdge { id } => id.src,
        };
        parts[owner(key)].apply(event);
    }

    #[test]
    fn joined_shards_equal_a_lenient_replay_after_every_event() {
        let mut hub_promoted = false;
        for seed in 0..24u64 {
            // Few vertices → dense lists and frequent hits on existing
            // edges; more vertices → mostly inline lists around the hub.
            let vertices = if seed % 2 == 0 { 12 } else { 32 };
            let shards = 1 + seed as usize % 4;
            let mut parts: Vec<PartitionState> =
                (0..shards).map(|_| PartitionState::new()).collect();
            let mut live = HashSet::new();
            let mut reference = EvolvingGraph::new();
            for (i, event) in mixed_stream(seed, vertices, 400).into_iter().enumerate() {
                let _ = reference.apply_with(&event, ApplyPolicy::Lenient);
                route(&mut parts, &mut live, &event);
                let at = format!("seed {seed}, {shards} shards, event {i} ({event:?})");
                let (joined, dropped) = ShardedGraph::join(std::mem::take(&mut parts));
                assert_eq!(dropped, 0, "{at}");
                joined.check_invariants().unwrap();
                assert_eq!(joined.vertex_count(), reference.vertex_count(), "{at}");
                let got: Vec<_> = joined.edges().collect();
                let want: Vec<_> = reference.edges().collect();
                assert_eq!(got, want, "{at}");
                let states = joined.vertices().into_iter();
                let states: Vec<_> = states.map(|(id, v)| (id, v.state.as_ref())).collect();
                let want: Vec<_> = (reference.vertices_with_state())
                    .map(|(id, state)| (id, Some(state)))
                    .collect();
                assert_eq!(states, want, "{at}");
                hub_promoted |= joined.parts.iter().any(|part| {
                    part.store.get(VertexId(0)).is_some_and(|hub| {
                        hub.inc.tier() != Tier::Inline || hub.out.tier() != Tier::Inline
                    })
                });
                parts = joined.parts;
            }
        }
        assert!(hub_promoted, "no stream pushed the hub past INLINE_CAP");
    }

    #[test]
    fn the_join_drops_edges_into_a_dead_shards_vertices() {
        // Two shards; the second died for good and left an empty state.
        let shards = 2;
        let (mine, theirs) = (0..100u64)
            .map(VertexId)
            .partition::<Vec<_>, _>(|v| shard_of(*v, shards) == 0);
        let mut part = PartitionState::new();
        part.apply(&GraphEvent::AddVertex {
            id: mine[0],
            state: State::empty(),
        });
        for v in [mine[1], theirs[0], theirs[1]] {
            part.apply(&GraphEvent::AddEdge {
                id: EdgeId::new(mine[0], v),
                state: State::empty(),
            });
        }
        let (joined, dropped) = ShardedGraph::join(vec![part, PartitionState::new()]);
        // mine[1] never had a state either: its owner (this shard) does
        // not hold it, so the edge into it goes too.
        assert_eq!(dropped, 3);
        assert_eq!((joined.vertex_count(), joined.edge_count()), (1, 0));
        joined.check_invariants().unwrap();
    }
}

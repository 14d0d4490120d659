//! The graph stream event model.
//!
//! A stream entry is one of three classes (paper §4.2):
//!
//! * **Graph-changing events** — the six localized operations of the system
//!   model: add/remove vertex/edge and update vertex/edge state.
//! * **Marker events** — named flags correlated with wall-clock time during
//!   analysis ("watermarks" in §4.5).
//! * **Control events** — instructions to the replayer: change the speed
//!   factor or pause the stream.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::ids::{EdgeId, VertexId};
use crate::state::State;

/// One of the six graph-changing operations.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GraphEvent {
    /// Adds a vertex with an initial state.
    AddVertex {
        /// The vertex to create.
        id: VertexId,
        /// Initial vertex state.
        state: State,
    },
    /// Removes a vertex (and, in the evolving-graph semantics, all its
    /// incident edges).
    RemoveVertex {
        /// The vertex to remove.
        id: VertexId,
    },
    /// Replaces the state of an existing vertex.
    UpdateVertex {
        /// The vertex to update.
        id: VertexId,
        /// New vertex state.
        state: State,
    },
    /// Adds a directed edge with an initial state.
    AddEdge {
        /// The edge to create.
        id: EdgeId,
        /// Initial edge state.
        state: State,
    },
    /// Removes a directed edge.
    RemoveEdge {
        /// The edge to remove.
        id: EdgeId,
    },
    /// Replaces the state of an existing edge.
    UpdateEdge {
        /// The edge to update.
        id: EdgeId,
        /// New edge state.
        state: State,
    },
}

impl GraphEvent {
    /// Classifies the event.
    pub fn kind(&self) -> EventKind {
        match self {
            GraphEvent::AddVertex { .. } => EventKind::AddVertex,
            GraphEvent::RemoveVertex { .. } => EventKind::RemoveVertex,
            GraphEvent::UpdateVertex { .. } => EventKind::UpdateVertex,
            GraphEvent::AddEdge { .. } => EventKind::AddEdge,
            GraphEvent::RemoveEdge { .. } => EventKind::RemoveEdge,
            GraphEvent::UpdateEdge { .. } => EventKind::UpdateEdge,
        }
    }

    /// Whether this event changes the graph topology (adds/removes an
    /// entity) rather than only state.
    pub fn is_topology_change(&self) -> bool {
        self.kind().is_topology_change()
    }

    /// Whether this event targets a vertex (as opposed to an edge).
    pub fn is_vertex_event(&self) -> bool {
        self.kind().is_vertex_event()
    }

    /// The vertex this event targets, if it is a vertex event.
    pub fn vertex(&self) -> Option<VertexId> {
        match self {
            GraphEvent::AddVertex { id, .. }
            | GraphEvent::RemoveVertex { id }
            | GraphEvent::UpdateVertex { id, .. } => Some(*id),
            _ => None,
        }
    }

    /// The edge this event targets, if it is an edge event.
    pub fn edge(&self) -> Option<EdgeId> {
        match self {
            GraphEvent::AddEdge { id, .. }
            | GraphEvent::RemoveEdge { id }
            | GraphEvent::UpdateEdge { id, .. } => Some(*id),
            _ => None,
        }
    }
}

/// The six event kinds, used for event-mix configuration and statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum EventKind {
    /// `ADD_VERTEX`
    AddVertex,
    /// `REMOVE_VERTEX`
    RemoveVertex,
    /// `UPDATE_VERTEX`
    UpdateVertex,
    /// `ADD_EDGE`
    AddEdge,
    /// `REMOVE_EDGE`
    RemoveEdge,
    /// `UPDATE_EDGE`
    UpdateEdge,
}

impl EventKind {
    /// All six kinds, in stream-format order.
    pub const ALL: [EventKind; 6] = [
        EventKind::AddVertex,
        EventKind::RemoveVertex,
        EventKind::UpdateVertex,
        EventKind::AddEdge,
        EventKind::RemoveEdge,
        EventKind::UpdateEdge,
    ];

    /// Whether the kind changes topology (add/remove) rather than state.
    pub fn is_topology_change(self) -> bool {
        !matches!(self, EventKind::UpdateVertex | EventKind::UpdateEdge)
    }

    /// Whether the kind targets a vertex.
    pub fn is_vertex_event(self) -> bool {
        matches!(
            self,
            EventKind::AddVertex | EventKind::RemoveVertex | EventKind::UpdateVertex
        )
    }

    /// Whether the kind adds an entity.
    pub fn is_addition(self) -> bool {
        matches!(self, EventKind::AddVertex | EventKind::AddEdge)
    }

    /// Whether the kind removes an entity.
    pub fn is_removal(self) -> bool {
        matches!(self, EventKind::RemoveVertex | EventKind::RemoveEdge)
    }

    /// The stream-format command token for this kind.
    pub fn command(self) -> &'static str {
        match self {
            EventKind::AddVertex => "ADD_VERTEX",
            EventKind::RemoveVertex => "REMOVE_VERTEX",
            EventKind::UpdateVertex => "UPDATE_VERTEX",
            EventKind::AddEdge => "ADD_EDGE",
            EventKind::RemoveEdge => "REMOVE_EDGE",
            EventKind::UpdateEdge => "UPDATE_EDGE",
        }
    }
}

/// Events that steer the graph stream replayer at runtime (paper §4.2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ControlEvent {
    /// Changes the replay speed by a factor relative to the configured base
    /// rate. `1.0` restores the initially defined rate; `2.0` doubles it.
    SetSpeed(f64),
    /// Pauses the replayer: no new events are emitted for the duration.
    Pause(Duration),
}

/// One entry of a graph stream file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StreamEntry {
    /// A graph-changing event.
    Graph(GraphEvent),
    /// A named marker flagging this position in the stream.
    Marker(String),
    /// A replayer control instruction.
    Control(ControlEvent),
}

impl StreamEntry {
    /// Wraps a graph event.
    pub fn graph(event: GraphEvent) -> Self {
        StreamEntry::Graph(event)
    }

    /// Creates a named marker entry.
    pub fn marker(name: impl Into<String>) -> Self {
        StreamEntry::Marker(name.into())
    }

    /// Creates a speed-change control entry.
    pub fn speed(factor: f64) -> Self {
        StreamEntry::Control(ControlEvent::SetSpeed(factor))
    }

    /// Creates a pause control entry.
    pub fn pause(duration: Duration) -> Self {
        StreamEntry::Control(ControlEvent::Pause(duration))
    }

    /// The wrapped graph event, if this entry is one.
    pub fn as_graph(&self) -> Option<&GraphEvent> {
        match self {
            StreamEntry::Graph(e) => Some(e),
            _ => None,
        }
    }

    /// Whether the entry is a graph-changing event.
    pub fn is_graph(&self) -> bool {
        matches!(self, StreamEntry::Graph(_))
    }

    /// Whether the entry is a marker.
    pub fn is_marker(&self) -> bool {
        matches!(self, StreamEntry::Marker(_))
    }

    /// Whether the entry is a control instruction.
    pub fn is_control(&self) -> bool {
        matches!(self, StreamEntry::Control(_))
    }
}

impl From<GraphEvent> for StreamEntry {
    fn from(e: GraphEvent) -> Self {
        StreamEntry::Graph(e)
    }
}

/// A stream entry with shared ownership.
///
/// This is the unit of the batched ingest path (replayer → connector →
/// platform): the replayer's reader allocates the `Arc` once per entry —
/// and nothing else, unless a state payload exceeds
/// [`State::INLINE_CAP`](crate::State::INLINE_CAP) — hands entries to the
/// emitter a chunk at a time, and every hand-off downstream — batch
/// dispatch, shard routing, worker mailboxes — clones the `Arc`, never the
/// payload.
pub type SharedEntry = std::sync::Arc<StreamEntry>;

/// A shared-ownership handle that is guaranteed to wrap a
/// [`StreamEntry::Graph`] entry.
///
/// Connectors and platform internals route graph events through channels and
/// transaction batches; carrying them as `SharedGraphEvent` keeps the
/// zero-copy guarantee of [`SharedEntry`] while statically ruling out marker
/// and control entries, so consumers can access the event without matching.
#[derive(Clone)]
pub struct SharedGraphEvent(SharedEntry);

impl SharedGraphEvent {
    /// Wraps an owned graph event (allocates the shared entry).
    pub fn new(event: GraphEvent) -> Self {
        SharedGraphEvent(SharedEntry::new(StreamEntry::Graph(event)))
    }

    /// Shares the graph event inside `entry`, or `None` if the entry is a
    /// marker or control instruction. Never copies the event payload.
    pub fn from_entry(entry: &SharedEntry) -> Option<Self> {
        match entry.as_ref() {
            StreamEntry::Graph(_) => Some(SharedGraphEvent(SharedEntry::clone(entry))),
            _ => None,
        }
    }

    /// The wrapped graph event.
    pub fn event(&self) -> &GraphEvent {
        match self.0.as_ref() {
            StreamEntry::Graph(event) => event,
            // Unreachable by construction: both constructors only admit the
            // Graph variant.
            _ => unreachable!("SharedGraphEvent wraps a non-graph entry"),
        }
    }
}

impl std::ops::Deref for SharedGraphEvent {
    type Target = GraphEvent;

    fn deref(&self) -> &GraphEvent {
        self.event()
    }
}

impl From<GraphEvent> for SharedGraphEvent {
    fn from(event: GraphEvent) -> Self {
        SharedGraphEvent::new(event)
    }
}

impl std::fmt::Debug for SharedGraphEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.event().fmt(f)
    }
}

impl PartialEq for SharedGraphEvent {
    fn eq(&self, other: &Self) -> bool {
        self.event() == other.event()
    }
}

impl Eq for SharedGraphEvent {}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(id: u64) -> VertexId {
        VertexId(id)
    }

    #[test]
    fn kind_classification() {
        let add_v = GraphEvent::AddVertex {
            id: v(1),
            state: State::empty(),
        };
        assert_eq!(add_v.kind(), EventKind::AddVertex);
        assert!(add_v.is_topology_change());
        assert!(add_v.is_vertex_event());
        assert_eq!(add_v.vertex(), Some(v(1)));
        assert_eq!(add_v.edge(), None);

        let upd_e = GraphEvent::UpdateEdge {
            id: EdgeId::from((1, 2)),
            state: State::weight(2.0),
        };
        assert!(!upd_e.is_topology_change());
        assert!(!upd_e.is_vertex_event());
        assert_eq!(upd_e.edge(), Some(EdgeId::from((1, 2))));
        assert_eq!(upd_e.vertex(), None);
    }

    #[test]
    fn kind_predicates_are_consistent() {
        for kind in EventKind::ALL {
            assert_eq!(
                kind.is_topology_change(),
                kind.is_addition() || kind.is_removal(),
                "{kind:?}"
            );
            assert!(
                !(kind.is_addition() && kind.is_removal()),
                "{kind:?} cannot be both"
            );
        }
    }

    #[test]
    fn entry_constructors() {
        assert!(StreamEntry::marker("m").is_marker());
        assert!(StreamEntry::speed(2.0).is_control());
        assert!(StreamEntry::pause(Duration::from_secs(1)).is_control());
        let g = StreamEntry::graph(GraphEvent::RemoveVertex { id: v(3) });
        assert!(g.is_graph());
        assert!(g.as_graph().is_some());
        assert!(StreamEntry::marker("m").as_graph().is_none());
    }

    #[test]
    fn command_tokens_are_unique() {
        let mut tokens: Vec<_> = EventKind::ALL.iter().map(|k| k.command()).collect();
        tokens.sort_unstable();
        tokens.dedup();
        assert_eq!(tokens.len(), 6);
    }
}

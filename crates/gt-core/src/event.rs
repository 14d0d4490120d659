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

use crate::ids::{EdgeId, VertexId};
use crate::state::State;

/// One of the six graph-changing operations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
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

    /// The vertex this event targets, if it is a vertex event.
    pub fn vertex(&self) -> Option<VertexId> {
        match self {
            GraphEvent::AddVertex { id, .. }
            | GraphEvent::RemoveVertex { id }
            | GraphEvent::UpdateVertex { id, .. } => Some(*id),
            _ => None,
        }
    }

    /// The vertex the event belongs to, and is routed by: a vertex
    /// event's own, an edge event's source (an edge lives with its
    /// source's out-list).
    pub fn home(&self) -> VertexId {
        match self {
            GraphEvent::AddVertex { id, .. }
            | GraphEvent::RemoveVertex { id }
            | GraphEvent::UpdateVertex { id, .. } => *id,
            GraphEvent::AddEdge { id, .. }
            | GraphEvent::RemoveEdge { id }
            | GraphEvent::UpdateEdge { id, .. } => id.src,
        }
    }
}

/// The six event kinds, used for event-mix configuration and statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
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
    pub(crate) fn is_topology_change(self) -> bool {
        !matches!(self, EventKind::UpdateVertex | EventKind::UpdateEdge)
    }

    /// The stream-format command token for this kind.
    pub(crate) fn command(self) -> &'static str {
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
#[derive(Debug, Clone, PartialEq)]
pub enum ControlEvent {
    /// Changes the replay speed by a factor relative to the configured base
    /// rate. `1.0` restores the initially defined rate; `2.0` doubles it.
    SetSpeed(f64),
    /// Pauses the replayer: no new events are emitted for the duration.
    Pause(Duration),
}

/// One entry of a graph stream file.
#[derive(Debug, Clone, PartialEq)]
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
/// platform): the replayer's reader mints the `Arc`s, hands entries to the
/// emitter a chunk at a time, and the emitter lends them to a sink's
/// batch. The built-in platforms copy each event into storage of their
/// own, so no handle outlives the batch unless a sink clones it (a
/// delaying fault sink does). A used-up chunk comes back to the reader,
/// which [`refill`]s each `Arc` in place that no sink still holds, so a
/// replay allocates only for the entries a sink keeps (and for a state
/// payload beyond [`State::INLINE_CAP`](crate::State::INLINE_CAP)).
pub type SharedEntry = std::sync::Arc<StreamEntry>;

/// Writes `entry` over the shared entry in `slot`: in its own allocation
/// when no other handle to it is left; otherwise the holder keeps the old
/// value, `slot` drops its reference and gets a fresh allocation. So a
/// buffer of shared entries that goes back to the thread that filled it
/// is refilled there without allocating, and a handle a consumer kept
/// never changes under it.
pub fn refill(slot: &mut SharedEntry, entry: StreamEntry) {
    match SharedEntry::get_mut(slot) {
        Some(old) => *old = entry,
        None => *slot = SharedEntry::new(entry),
    }
}

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
        assert_eq!(add_v.vertex(), Some(v(1)));
        assert_eq!(add_v.home(), v(1));

        let upd_e = GraphEvent::UpdateEdge {
            id: EdgeId::from((1, 2)),
            state: State::weight(2.0),
        };
        assert!(!upd_e.is_topology_change());
        assert_eq!(upd_e.vertex(), None);
        // An edge event lives with its source.
        assert_eq!(upd_e.home(), v(1));
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
    fn refill_reuses_only_what_nobody_holds() {
        let mut slots = [
            SharedEntry::new(StreamEntry::marker("a")),
            SharedEntry::new(StreamEntry::marker("b")),
        ];
        let (first, second) = (
            SharedEntry::as_ptr(&slots[0]),
            SharedEntry::as_ptr(&slots[1]),
        );
        let kept = SharedEntry::clone(&slots[1]);
        refill(&mut slots[0], StreamEntry::marker("c"));
        refill(&mut slots[1], StreamEntry::marker("d"));
        // Nobody held the first: same allocation, new value.
        assert_eq!(
            (SharedEntry::as_ptr(&slots[0]), &*slots[0]),
            (first, &StreamEntry::marker("c"))
        );
        // The kept handle still reads what it was given.
        assert_ne!(SharedEntry::as_ptr(&slots[1]), second);
        assert_eq!(*slots[1], StreamEntry::marker("d"));
        assert_eq!(
            (SharedEntry::as_ptr(&kept), &*kept),
            (second, &StreamEntry::marker("b"))
        );
        assert_eq!(SharedEntry::strong_count(&kept), 1);
    }

    #[test]
    fn command_tokens_are_unique() {
        let mut tokens: Vec<_> = EventKind::ALL.iter().map(|k| k.command()).collect();
        tokens.sort_unstable();
        tokens.dedup();
        assert_eq!(tokens.len(), 6);
    }
}

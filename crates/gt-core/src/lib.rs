#![warn(missing_docs)]

//! # gt-core
//!
//! Core types for the GraphTides evaluation framework: the graph event
//! model, entity identifiers, the plain-text graph stream format, and the
//! errors shared by all other crates.
//!
//! GraphTides models a dynamic graph as an ordered stream of events. Each
//! event describes one of six localized operations (add/remove vertex/edge,
//! update vertex/edge state). A stream additionally carries *marker* events
//! that flag points in the stream for later temporal correlation, and
//! *control* events that steer the replayer (speed changes and pauses).
//!
//! The on-disk representation is a comma-separated value file with one event
//! per line: `COMMAND, ENTITY_ID, PAYLOAD` (see [`mod@format`]). Files and
//! sockets alike are split into lines by one reader, [`LineReader`]; what
//! a bad line means — the end of a file, one counted error on a socket —
//! is left to its caller. Every other textual spec — rate patterns, loop
//! models, fault pipelines and schedules, matrix lines, `gt-run`'s flags —
//! reads through one tokenizer, [`mod@spec`], with one error type,
//! [`SpecError`].
//!
//! ```
//! use gt_core::prelude::*;
//!
//! let events = vec![
//!     StreamEntry::graph(GraphEvent::AddVertex { id: VertexId(1), state: State::empty() }),
//!     StreamEntry::graph(GraphEvent::AddVertex { id: VertexId(2), state: State::empty() }),
//!     StreamEntry::graph(GraphEvent::AddEdge {
//!         id: EdgeId::new(VertexId(1), VertexId(2)),
//!         state: State::empty(),
//!     }),
//!     StreamEntry::marker("bootstrap-done"),
//! ];
//! let stream = GraphStream::from_entries(events);
//! let text = stream.to_csv_string();
//! let parsed = GraphStream::parse_csv(&text).unwrap();
//! assert_eq!(stream, parsed);
//! ```

pub mod error;
pub mod event;
pub mod format;
pub mod hash;
pub mod ids;
pub mod intern;
pub mod json;
pub mod spec;
pub mod state;
pub mod stream;
pub mod sync;

pub use error::{CoreError, ParseError};
pub use event::{ControlEvent, EventKind, GraphEvent, SharedEntry, StreamEntry};
pub use format::{
    parse_line, parse_line_ref, write_line, GraphEventRef, LineReader, StreamEntryRef,
};
pub use hash::{VertexBuildHasher, VertexHasher, VertexMap, VERTEX_HASH_MULTIPLIER};
pub use ids::{EdgeId, VertexId};
pub use intern::Interner;
pub use spec::SpecError;
pub use state::State;
pub use stream::{GraphStream, StreamStats};

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::error::{CoreError, ParseError};
    pub use crate::event::{ControlEvent, EventKind, GraphEvent, SharedEntry, StreamEntry};
    pub use crate::format::{parse_line_ref, GraphEventRef, LineReader, StreamEntryRef};
    pub use crate::ids::{EdgeId, VertexId};
    pub use crate::state::State;
    pub use crate::stream::{GraphStream, StreamStats};
}

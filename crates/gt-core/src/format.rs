//! The plain-text graph stream format.
//!
//! One entry per line: `COMMAND, ENTITY_ID, PAYLOAD` (paper §4.2).
//!
//! * The **command** selects the entry type. Graph-changing events use the
//!   six tokens `ADD_VERTEX`, `REMOVE_VERTEX`, `UPDATE_VERTEX`, `ADD_EDGE`,
//!   `REMOVE_EDGE`, `UPDATE_EDGE`; markers use `MARKER`; control events use
//!   `SPEED` and `PAUSE`.
//! * The **entity id** is a numeric vertex id, or `src-dst` for edges. For
//!   markers it carries the marker name; control events leave it empty.
//! * The **payload** is the raw remainder of the line: the user-defined
//!   state string for graph events, the speed factor for `SPEED`, and the
//!   pause duration in milliseconds for `PAUSE`. Because the payload is the
//!   *remainder*, it may itself contain commas — no quoting is required,
//!   which keeps the format trivially streamable (stringified JSON payloads
//!   pass through unchanged).
//!
//! Blank lines and lines starting with `#` are ignored, so streams can be
//! annotated in place.
//!
//! Parsing comes in two flavors: [`parse_line_ref`] borrows payloads and
//! marker names straight from the input line (allocation-free — the form
//! the replayer's hot path uses), and [`parse_line`] wraps it to produce
//! owned [`StreamEntry`] values for everything else. [`LineReader`] is
//! the one place bytes become lines, for files and sockets alike.

use std::fmt::Write as _;
use std::io::{self, BufRead};
use std::time::Duration;

use crate::error::ParseError;
use crate::event::{ControlEvent, EventKind, GraphEvent, StreamEntry};
use crate::ids::{EdgeId, VertexId};
use crate::state::State;

/// Command token for marker entries.
pub(crate) const MARKER_COMMAND: &str = "MARKER";
/// Command token for speed-change control entries.
pub(crate) const SPEED_COMMAND: &str = "SPEED";
/// Command token for pause control entries.
pub(crate) const PAUSE_COMMAND: &str = "PAUSE";

/// Serializes one stream entry as a line (without trailing newline).
pub fn write_line(entry: &StreamEntry, out: &mut String) {
    match entry {
        StreamEntry::Graph(event) => write_graph_event(event, out),
        StreamEntry::Marker(name) => {
            out.push_str(MARKER_COMMAND);
            out.push(',');
            out.push_str(name);
            out.push(',');
        }
        StreamEntry::Control(ControlEvent::SetSpeed(factor)) => {
            out.push_str(SPEED_COMMAND);
            out.push_str(",,");
            // Formatting into a String cannot fail.
            let _ = write!(out, "{factor}");
        }
        StreamEntry::Control(ControlEvent::Pause(duration)) => {
            out.push_str(PAUSE_COMMAND);
            out.push_str(",,");
            let _ = write!(out, "{}", duration.as_millis());
        }
    }
}

fn write_graph_event(event: &GraphEvent, out: &mut String) {
    out.push_str(event.kind().command());
    out.push(',');
    match event {
        GraphEvent::AddVertex { id, state } | GraphEvent::UpdateVertex { id, state } => {
            let _ = write!(out, "{id}");
            out.push(',');
            out.push_str(state.as_str());
        }
        GraphEvent::RemoveVertex { id } => {
            let _ = write!(out, "{id}");
            out.push(',');
        }
        GraphEvent::AddEdge { id, state } | GraphEvent::UpdateEdge { id, state } => {
            let _ = write!(out, "{id}");
            out.push(',');
            out.push_str(state.as_str());
        }
        GraphEvent::RemoveEdge { id } => {
            let _ = write!(out, "{id}");
            out.push(',');
        }
    }
}

/// Serializes one stream entry to an owned line.
pub fn entry_to_line(entry: &StreamEntry) -> String {
    let mut s = String::with_capacity(32);
    write_line(entry, &mut s);
    s
}

/// A graph event whose state payload still borrows from the input line.
///
/// Mirror of [`GraphEvent`] produced by [`parse_line_ref`]: the shape and
/// ids are fully parsed, but the user-defined state string is a `&str`
/// slice of the line — nothing is copied until the entry crosses an
/// ownership boundary via `GraphEventRef::to_event`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphEventRef<'a> {
    /// `ADD_VERTEX` with a borrowed state payload.
    AddVertex {
        /// The new vertex.
        id: VertexId,
        /// Raw state payload (remainder of the line).
        state: &'a str,
    },
    /// `REMOVE_VERTEX`.
    RemoveVertex {
        /// The removed vertex.
        id: VertexId,
    },
    /// `UPDATE_VERTEX` with a borrowed state payload.
    UpdateVertex {
        /// The updated vertex.
        id: VertexId,
        /// Raw state payload.
        state: &'a str,
    },
    /// `ADD_EDGE` with a borrowed state payload.
    AddEdge {
        /// The new edge.
        id: EdgeId,
        /// Raw state payload.
        state: &'a str,
    },
    /// `REMOVE_EDGE`.
    RemoveEdge {
        /// The removed edge.
        id: EdgeId,
    },
    /// `UPDATE_EDGE` with a borrowed state payload.
    UpdateEdge {
        /// The updated edge.
        id: EdgeId,
        /// Raw state payload.
        state: &'a str,
    },
}

impl GraphEventRef<'_> {
    /// The event kind.
    pub fn kind(&self) -> EventKind {
        match self {
            GraphEventRef::AddVertex { .. } => EventKind::AddVertex,
            GraphEventRef::RemoveVertex { .. } => EventKind::RemoveVertex,
            GraphEventRef::UpdateVertex { .. } => EventKind::UpdateVertex,
            GraphEventRef::AddEdge { .. } => EventKind::AddEdge,
            GraphEventRef::RemoveEdge { .. } => EventKind::RemoveEdge,
            GraphEventRef::UpdateEdge { .. } => EventKind::UpdateEdge,
        }
    }

    /// Converts into an owned [`GraphEvent`]. Copies the state payload;
    /// allocates only when it is longer than [`State::INLINE_CAP`].
    pub(crate) fn to_event(self) -> GraphEvent {
        match self {
            GraphEventRef::AddVertex { id, state } => GraphEvent::AddVertex {
                id,
                state: State::new(state),
            },
            GraphEventRef::RemoveVertex { id } => GraphEvent::RemoveVertex { id },
            GraphEventRef::UpdateVertex { id, state } => GraphEvent::UpdateVertex {
                id,
                state: State::new(state),
            },
            GraphEventRef::AddEdge { id, state } => GraphEvent::AddEdge {
                id,
                state: State::new(state),
            },
            GraphEventRef::RemoveEdge { id } => GraphEvent::RemoveEdge { id },
            GraphEventRef::UpdateEdge { id, state } => GraphEvent::UpdateEdge {
                id,
                state: State::new(state),
            },
        }
    }
}

/// A parsed stream entry that borrows its text payloads from the line.
///
/// This is the borrowed half of the parse path: [`parse_line_ref`]
/// produces it without touching the heap; owned conversion happens once,
/// at the channel boundary, via [`StreamEntryRef::to_entry`].
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEntryRef<'a> {
    /// A graph-changing event with borrowed payload.
    Graph(GraphEventRef<'a>),
    /// A marker; the name borrows from the line.
    Marker(&'a str),
    /// A replayer control event (fully parsed, nothing left to borrow).
    Control(ControlEvent),
}

impl StreamEntryRef<'_> {
    /// Converts into an owned [`StreamEntry`]: marker names and state
    /// payloads longer than [`State::INLINE_CAP`] allocate, nothing else.
    pub fn to_entry(&self) -> StreamEntry {
        match self {
            StreamEntryRef::Graph(event) => StreamEntry::Graph(event.to_event()),
            StreamEntryRef::Marker(name) => StreamEntry::Marker((*name).to_owned()),
            StreamEntryRef::Control(control) => StreamEntry::Control(control.clone()),
        }
    }

    /// Whether this entry is a graph-changing event.
    pub fn is_graph(&self) -> bool {
        matches!(self, StreamEntryRef::Graph(_))
    }
}

/// Parses one line of the stream format without allocating: payloads and
/// marker names are borrowed slices of `line`.
///
/// Returns `Ok(None)` for blank lines and `#` comments.
pub fn parse_line_ref(line: &str) -> Result<Option<StreamEntryRef<'_>>, ParseError> {
    let trimmed = line.trim_start();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }

    let (command, rest) = trimmed
        .split_once(',')
        .ok_or_else(|| ParseError::missing_field("entity"))?;
    let command = command.trim();
    // The payload is the raw remainder after the second comma; it may itself
    // contain commas (e.g. stringified JSON).
    let (entity, payload) = match rest.split_once(',') {
        Some((e, p)) => (e.trim(), p),
        None => (rest.trim(), ""),
    };

    match command {
        MARKER_COMMAND => {
            if entity.is_empty() {
                return Err(ParseError::missing_field("marker name"));
            }
            Ok(Some(StreamEntryRef::Marker(entity)))
        }
        SPEED_COMMAND => {
            let factor: f64 = payload
                .trim()
                .parse()
                .map_err(|_| ParseError::invalid_payload(format!("speed factor `{payload}`")))?;
            if !factor.is_finite() || factor <= 0.0 {
                return Err(ParseError::invalid_payload(format!(
                    "speed factor must be positive and finite, got `{payload}`"
                )));
            }
            Ok(Some(StreamEntryRef::Control(ControlEvent::SetSpeed(
                factor,
            ))))
        }
        PAUSE_COMMAND => {
            let millis: u64 = payload
                .trim()
                .parse()
                .map_err(|_| ParseError::invalid_payload(format!("pause millis `{payload}`")))?;
            Ok(Some(StreamEntryRef::Control(ControlEvent::Pause(
                Duration::from_millis(millis),
            ))))
        }
        _ => parse_graph_command(command, entity, payload).map(Some),
    }
}

/// Parses one line of the stream format into an owned entry.
///
/// Thin wrapper over [`parse_line_ref`] that copies what the line lent.
/// A graph event whose payload fits [`State::INLINE_CAP`] bytes — every
/// built-in workload's — costs no allocation; a longer payload costs one,
/// and so does a marker's name. (Sharing the entry afterwards, as the
/// replayer does, adds the `Arc`.) Returns `Ok(None)` for blank lines and
/// `#` comments.
pub fn parse_line(line: &str) -> Result<Option<StreamEntry>, ParseError> {
    Ok(parse_line_ref(line)?.map(|entry| entry.to_entry()))
}

/// The one reader of stream bytes: splits a [`BufRead`] source into lines
/// and parses each in place, out of the source's own buffer.
///
/// Lines are numbered from 1 and end at `\n`; trailing `\r`s are dropped,
/// a line that is not UTF-8 is a
/// [`ParseErrorKind::InvalidUtf8`](crate::error::ParseErrorKind) error,
/// and the last line needs no newline. A line that the end of the
/// source's buffer cuts in two is kept until its tail arrives, across
/// calls and read errors alike.
pub struct LineReader<R> {
    source: R,
    /// The head of a line the end of the source's buffer cut in two.
    cut: Vec<u8>,
    line_no: usize,
}

impl<R: BufRead> LineReader<R> {
    /// Reads lines from `source`.
    pub fn new(source: R) -> Self {
        LineReader {
            source,
            cut: Vec::new(),
            line_no: 0,
        }
    }

    /// Reads the source's next buffer and hands `each` the parse result of
    /// every line it completes, in order; a parse error carries its line
    /// number, and whether it ends the stream is the caller's choice.
    ///
    /// The caller's first error comes back as the outer `Err` and ends the
    /// reading. Otherwise the inner result is the source's:
    /// `Ok(true)` once the buffer is used up (the next call may block, so
    /// what `each` collected should go on first), `Ok(false)` at the end of
    /// input, or the read error — a timeout among them.
    pub fn pump<E>(
        &mut self,
        mut each: impl FnMut(Result<Option<StreamEntryRef<'_>>, ParseError>) -> Result<(), E>,
    ) -> Result<io::Result<bool>, E> {
        let buf = loop {
            match self.source.fill_buf() {
                Ok(buf) => break buf,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Ok(Err(e)),
            }
        };
        if buf.is_empty() {
            if !self.cut.is_empty() {
                self.line_no += 1;
                let last = std::mem::take(&mut self.cut);
                each(parse_bytes(&last, self.line_no))?;
            }
            return Ok(Ok(false));
        }
        let used = buf.len();
        for piece in buf.split_inclusive(|&b| b == b'\n') {
            let Some(line) = piece.strip_suffix(b"\n") else {
                self.cut.extend_from_slice(piece); // the last piece
                break;
            };
            self.line_no += 1;
            if self.cut.is_empty() {
                each(parse_bytes(line, self.line_no))?;
            } else {
                self.cut.extend_from_slice(line);
                each(parse_bytes(&self.cut, self.line_no))?;
                self.cut.clear();
            }
        }
        self.source.consume(used);
        Ok(Ok(true))
    }
}

/// Parses one line without its `\n`.
fn parse_bytes(line: &[u8], line_no: usize) -> Result<Option<StreamEntryRef<'_>>, ParseError> {
    std::str::from_utf8(line)
        .map_err(|_| ParseError::invalid_utf8())
        .and_then(|text| parse_line_ref(text.trim_end_matches('\r')))
        .map_err(|e| e.at_line(line_no))
}

fn parse_graph_command<'a>(
    command: &str,
    entity: &str,
    payload: &'a str,
) -> Result<StreamEntryRef<'a>, ParseError> {
    let kind = EventKind::ALL
        .into_iter()
        .find(|k| k.command() == command)
        .ok_or_else(|| ParseError::unknown_command(command))?;
    if entity.is_empty() {
        return Err(ParseError::missing_field("entity"));
    }
    let event = match kind {
        EventKind::AddVertex => GraphEventRef::AddVertex {
            id: entity.parse()?,
            state: payload,
        },
        EventKind::RemoveVertex => GraphEventRef::RemoveVertex {
            id: entity.parse()?,
        },
        EventKind::UpdateVertex => GraphEventRef::UpdateVertex {
            id: entity.parse()?,
            state: payload,
        },
        EventKind::AddEdge => GraphEventRef::AddEdge {
            id: entity.parse()?,
            state: payload,
        },
        EventKind::RemoveEdge => GraphEventRef::RemoveEdge {
            id: entity.parse()?,
        },
        EventKind::UpdateEdge => GraphEventRef::UpdateEdge {
            id: entity.parse()?,
            state: payload,
        },
    };
    Ok(StreamEntryRef::Graph(event))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ParseErrorKind;
    use crate::ids::{EdgeId, VertexId};

    fn roundtrip(entry: StreamEntry) {
        let line = entry_to_line(&entry);
        let parsed = parse_line(&line).unwrap().unwrap();
        assert_eq!(parsed, entry, "line was `{line}`");
    }

    #[test]
    fn graph_event_roundtrips() {
        roundtrip(StreamEntry::graph(GraphEvent::AddVertex {
            id: VertexId(1),
            state: State::new("hello"),
        }));
        roundtrip(StreamEntry::graph(GraphEvent::RemoveVertex {
            id: VertexId(9),
        }));
        roundtrip(StreamEntry::graph(GraphEvent::UpdateVertex {
            id: VertexId(2),
            state: State::weight(3.5),
        }));
        roundtrip(StreamEntry::graph(GraphEvent::AddEdge {
            id: EdgeId::from((1, 2)),
            state: State::empty(),
        }));
        roundtrip(StreamEntry::graph(GraphEvent::RemoveEdge {
            id: EdgeId::from((4, 5)),
        }));
        roundtrip(StreamEntry::graph(GraphEvent::UpdateEdge {
            id: EdgeId::from((7, 8)),
            state: State::new("x=1;y=2"),
        }));
    }

    #[test]
    fn marker_and_control_roundtrips() {
        roundtrip(StreamEntry::marker("phase-2"));
        roundtrip(StreamEntry::speed(2.5));
        roundtrip(StreamEntry::pause(Duration::from_millis(20_000)));
    }

    #[test]
    fn payload_may_contain_commas() {
        let entry = StreamEntry::graph(GraphEvent::UpdateVertex {
            id: VertexId(3),
            state: State::new(r#"{"name":"ada","rank":0.3}"#),
        });
        roundtrip(entry);
    }

    #[test]
    fn exact_line_shapes() {
        assert_eq!(
            entry_to_line(&StreamEntry::graph(GraphEvent::AddEdge {
                id: EdgeId::from((1, 2)),
                state: State::new("w"),
            })),
            "ADD_EDGE,1-2,w"
        );
        assert_eq!(entry_to_line(&StreamEntry::marker("m1")), "MARKER,m1,");
        assert_eq!(entry_to_line(&StreamEntry::speed(1.0)), "SPEED,,1");
        assert_eq!(
            entry_to_line(&StreamEntry::pause(Duration::from_secs(20))),
            "PAUSE,,20000"
        );
    }

    #[test]
    fn blank_and_comment_lines_are_skipped() {
        assert_eq!(parse_line("").unwrap(), None);
        assert_eq!(parse_line("   ").unwrap(), None);
        assert_eq!(parse_line("# comment, with, commas").unwrap(), None);
    }

    #[test]
    fn whitespace_tolerant_parsing() {
        let e = parse_line("ADD_VERTEX , 5 ,hi").unwrap().unwrap();
        assert_eq!(
            e,
            StreamEntry::graph(GraphEvent::AddVertex {
                id: VertexId(5),
                state: State::new("hi"),
            })
        );
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_line("FROBNICATE,1,").is_err());
        assert!(parse_line("ADD_VERTEX").is_err());
        assert!(parse_line("ADD_VERTEX,,").is_err());
        assert!(parse_line("ADD_EDGE,1,").is_err());
        assert!(parse_line("SPEED,,fast").is_err());
        assert!(parse_line("SPEED,,0").is_err());
        assert!(parse_line("SPEED,,-1").is_err());
        assert!(parse_line("PAUSE,,1.5").is_err());
        assert!(parse_line("MARKER,,").is_err());
    }

    #[test]
    fn borrowed_parse_points_into_the_input_line() {
        let line = "UPDATE_VERTEX,1,  spaced, payload  ";
        let entry = parse_line_ref(line).unwrap().unwrap();
        let StreamEntryRef::Graph(GraphEventRef::UpdateVertex { id, state }) = entry else {
            panic!("unexpected {entry:?}");
        };
        assert_eq!(id, VertexId(1));
        assert_eq!(state, "  spaced, payload  ");
        // The payload is a slice of `line`, not a copy.
        let line_range = line.as_bytes().as_ptr_range();
        let state_range = state.as_bytes().as_ptr_range();
        assert!(line_range.start <= state_range.start && state_range.end <= line_range.end);

        let marker = parse_line_ref("MARKER, window-3 ,ignored")
            .unwrap()
            .unwrap();
        assert_eq!(marker, StreamEntryRef::Marker("window-3"));
    }

    #[test]
    fn borrowed_and_owned_parses_agree() {
        for line in [
            "ADD_VERTEX,5,hi",
            "REMOVE_VERTEX,5,",
            "ADD_EDGE,1-2,w=2.5",
            "REMOVE_EDGE,1-2,",
            "UPDATE_EDGE,1-2,w=3",
            "MARKER,m1,",
            "SPEED,,2",
            "PAUSE,,100",
            "# comment",
            "",
        ] {
            let owned = parse_line(line).unwrap();
            let via_ref = parse_line_ref(line).unwrap().map(|r| r.to_entry());
            assert_eq!(owned, via_ref, "line was `{line}`");
        }
    }

    #[test]
    fn state_preserves_leading_whitespace_after_payload_comma() {
        // Payload is raw: everything after the second comma, untrimmed.
        let e = parse_line("UPDATE_VERTEX,1,  spaced  ").unwrap().unwrap();
        match e {
            StreamEntry::Graph(GraphEvent::UpdateVertex { state, .. }) => {
                assert_eq!(state.as_str(), "  spaced  ");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    type Parsed = Result<Option<StreamEntry>, ParseError>;

    /// Every parse result `source` yields, pumped to the end.
    fn pump_all(source: impl BufRead) -> Vec<Parsed> {
        let mut lines = LineReader::new(source);
        let mut got = Vec::new();
        while lines
            .pump(|line| {
                got.push(line.map(|entry| entry.map(|e| e.to_entry())));
                Ok::<_, ()>(())
            })
            .unwrap()
            .unwrap()
        {}
        got
    }

    #[test]
    fn line_reader_agrees_with_itself_however_the_buffer_cuts() {
        let text = "ADD_VERTEX,1,caf\u{e9}\r\n# note\n\nMARKER,m,\nNOPE\nPAUSE,,5";
        let whole = pump_all(text.as_bytes());
        assert_eq!(whole.len(), 6);
        assert_eq!(whole[0], parse_line("ADD_VERTEX,1,caf\u{e9}"));
        assert_eq!(whole[4].as_ref().unwrap_err().line, Some(5));
        assert_eq!(whole[5], parse_line("PAUSE,,5"));
        for cap in [1, 2, 3, 7] {
            let cut = pump_all(io::BufReader::with_capacity(cap, text.as_bytes()));
            assert_eq!(cut, whole, "buffer of {cap}");
        }
    }

    #[test]
    fn invalid_utf8_is_a_numbered_parse_error_and_the_caller_chooses() {
        let bytes = b"ADD_VERTEX,1,\nADD_VERTEX,2,\xff\nADD_VERTEX,3,\n";
        let got = pump_all(&bytes[..]);
        let err = got[1].as_ref().unwrap_err();
        assert_eq!(
            (err.line, &err.kind),
            (Some(2), &ParseErrorKind::InvalidUtf8)
        );
        assert!(
            got[2].as_ref().unwrap().is_some(),
            "a counting caller goes on"
        );

        // A stopping caller gets its error back, and no line after it.
        let mut lines = LineReader::new(&bytes[..]);
        let mut seen = 0;
        let stopped = lines.pump(|line| {
            seen += 1;
            line.map(|_| ())
        });
        assert_eq!(stopped.unwrap_err().line, Some(2));
        assert_eq!(seen, 2);
    }

    /// Hands out its chunks one `read` at a time, a timeout before each.
    struct Trickle(std::collections::VecDeque<Option<&'static [u8]>>);

    impl io::Read for Trickle {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(None) => Err(io::ErrorKind::WouldBlock.into()),
                Some(Some(chunk)) => {
                    out[..chunk.len()].copy_from_slice(chunk);
                    Ok(chunk.len())
                }
            }
        }
    }

    #[test]
    fn a_timeout_goes_back_to_the_caller_and_keeps_the_cut_line() {
        let source = Trickle(
            [Some(&b"MARKER,a,\nADD_VER"[..]), None, Some(b"TEX,7,\n")]
                .into_iter()
                .collect(),
        );
        let mut lines = LineReader::new(io::BufReader::new(source));
        let mut got = Vec::new();
        let mut each = |line: Result<Option<StreamEntryRef<'_>>, ParseError>| {
            got.push(line.unwrap().unwrap().to_entry());
            Ok::<_, ()>(())
        };
        // The whole line before the cut is handed on with its buffer.
        assert!(lines.pump(&mut each).unwrap().unwrap());
        let timeout = lines.pump(&mut each).unwrap().unwrap_err();
        assert_eq!(timeout.kind(), io::ErrorKind::WouldBlock);
        assert!(lines.pump(&mut each).unwrap().unwrap());
        assert!(!lines.pump(&mut each).unwrap().unwrap());
        assert_eq!(
            got,
            [
                StreamEntry::marker("a"),
                parse_line("ADD_VERTEX,7,").unwrap().unwrap()
            ]
        );
    }
}

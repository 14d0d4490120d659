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
//!
//! Each line is handled in one forward pass. One scan, eight bytes at a
//! time, finds the line's `\n` and its first two commas; the line is
//! checked for UTF-8 once, the fields are trimmed of ASCII whitespace on
//! their bytes, the command is matched in one `match`, and ids are read by
//! a decimal loop that checks for overflow. Two fallbacks keep the language exactly that
//! of `str::trim` and `FromStr`: a field whose edge byte is not ASCII is
//! trimmed with `str::trim` (Unicode whitespace trims as before), and an
//! id that is not plain digits — `+5`, an overflow, garbage — goes
//! through [`VertexId`]'s or [`EdgeId`]'s `FromStr`, which gives its value
//! or its error. Writing formats ids two digits at a time, without
//! `core::fmt`.

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
            write_u64(id.0, out);
            out.push(',');
            out.push_str(state.as_str());
        }
        GraphEvent::RemoveVertex { id } => {
            write_u64(id.0, out);
            out.push(',');
        }
        GraphEvent::AddEdge { id, state } | GraphEvent::UpdateEdge { id, state } => {
            write_edge_id(*id, out);
            out.push(',');
            out.push_str(state.as_str());
        }
        GraphEvent::RemoveEdge { id } => {
            write_edge_id(*id, out);
            out.push(',');
        }
    }
}

fn write_edge_id(id: EdgeId, out: &mut String) {
    write_u64(id.src.0, out);
    out.push('-');
    write_u64(id.dst.0, out);
}

/// `"00"`, `"01"`, …, `"99"`: the two digits of every value below 100.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Writes `n` in decimal, as `Display` does, two digits at a time.
fn write_u64(mut n: u64, out: &mut String) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    out.extend(buf[at..].iter().map(|&digit| char::from(digit)));
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
    parse_fields(line, Commas::of(line.as_bytes()))
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
                each(parse_bytes(&last, Commas::of(&last), self.line_no))?;
            }
            return Ok(Ok(false));
        }
        let used = buf.len();
        let mut rest = buf;
        while !rest.is_empty() {
            let (end, commas) = scan_line(rest);
            let Some(end) = end else {
                self.cut.extend_from_slice(rest); // the last piece
                break;
            };
            self.line_no += 1;
            if self.cut.is_empty() {
                each(parse_bytes(&rest[..end], commas, self.line_no))?;
            } else {
                self.cut.extend_from_slice(&rest[..end]);
                let line = &self.cut;
                each(parse_bytes(line, Commas::of(line), self.line_no))?;
                self.cut.clear();
            }
            rest = &rest[end + 1..];
        }
        self.source.consume(used);
        Ok(Ok(true))
    }
}

/// Where a line's first two commas are: they end the command and the
/// entity id, and the payload is what follows the second.
#[derive(Clone, Copy, Default)]
struct Commas {
    first: Option<usize>,
    second: Option<usize>,
}

impl Commas {
    /// The first two commas of `line`, eight bytes at a time.
    fn of(line: &[u8]) -> Self {
        let mut commas = Commas::default();
        let mut words = line.chunks_exact(8);
        for (at, chunk) in (0..).step_by(8).zip(&mut words) {
            if commas.note_all(at, bytes_equal(word(chunk), b',')) {
                return commas;
            }
        }
        let at = line.len() - words.remainder().len();
        for (i, &byte) in words.remainder().iter().enumerate() {
            if byte == b',' && commas.note(at + i) {
                break;
            }
        }
        commas
    }

    /// Notes a comma at `at`; `true` once both are known.
    fn note(&mut self, at: usize) -> bool {
        if self.first.is_none() {
            self.first = Some(at);
            false
        } else {
            self.second.get_or_insert(at);
            true
        }
    }

    /// Notes the commas `found` marks (see [`bytes_equal`]) in the word at
    /// `at`; `true` once both are known.
    fn note_all(&mut self, at: usize, mut found: u64) -> bool {
        while found != 0 {
            if self.note(at + found.trailing_zeros() as usize / 8) {
                return true;
            }
            found &= found - 1;
        }
        false
    }
}

/// The high bit of every byte of `word` that equals `byte`, and no other
/// bit.
fn bytes_equal(word: u64, byte: u8) -> u64 {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    let diff = word ^ (u64::from(byte) * 0x0101_0101_0101_0101);
    // A byte's high bit survives only where `diff` is zero: adding 0x7f to
    // its low seven bits carries into the high bit unless they are zero,
    // and never out of the byte.
    !((diff & LOW7).wrapping_add(LOW7) | diff | LOW7)
}

/// Eight bytes as one little-endian word: byte `i` in bits `8i..8i + 8`.
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("eight bytes"))
}

/// The one scan over a line, eight bytes at a time: where it ends (its
/// `\n`, if `bytes` holds one) and its first two commas.
fn scan_line(bytes: &[u8]) -> (Option<usize>, Commas) {
    let mut commas = Commas::default();
    let mut words = bytes.chunks_exact(8);
    for (at, chunk) in (0..).step_by(8).zip(&mut words) {
        let word = word(chunk);
        let newline = bytes_equal(word, b'\n');
        if commas.second.is_none() {
            // Only the commas before the line's end are its own.
            let own = match newline.trailing_zeros() {
                64 => u64::MAX,
                bit => (1 << (bit - 7)) - 1,
            };
            commas.note_all(at, bytes_equal(word, b',') & own);
        }
        if newline != 0 {
            return (Some(at + newline.trailing_zeros() as usize / 8), commas);
        }
    }
    let at = bytes.len() - words.remainder().len();
    for (i, &byte) in words.remainder().iter().enumerate() {
        if byte == b'\n' {
            return (Some(at + i), commas);
        }
        if byte == b',' {
            commas.note(at + i);
        }
    }
    (None, commas)
}

/// Parses one line without its `\n`, whose first two commas are `commas`.
fn parse_bytes(
    line: &[u8],
    commas: Commas,
    line_no: usize,
) -> Result<Option<StreamEntryRef<'_>>, ParseError> {
    let Ok(text) = std::str::from_utf8(line) else {
        return Err(ParseError::invalid_utf8().at_line(line_no));
    };
    // Trailing `\r`s hold no comma, so `commas` still points into the rest.
    let mut end = line.len();
    while end > 0 && line[end - 1] == b'\r' {
        end -= 1;
    }
    parse_fields(&text[..end], commas).map_err(|e| e.at_line(line_no))
}

/// Parses a line, `\r`s already dropped, whose first two commas are
/// `commas`.
fn parse_fields(line: &str, commas: Commas) -> Result<Option<StreamEntryRef<'_>>, ParseError> {
    match line.bytes().find(|&byte| !is_space(byte)) {
        None | Some(b'#') => return Ok(None),
        Some(byte) if !byte.is_ascii() => {
            let text = line.trim_start();
            if text.is_empty() || text.starts_with('#') {
                return Ok(None);
            }
        }
        Some(_) => {}
    }
    let Some(first) = commas.first else {
        return Err(ParseError::missing_field("entity"));
    };
    let command = trim(&line[..first]);
    // The payload is the raw remainder after the second comma; it may itself
    // contain commas (e.g. stringified JSON).
    let (entity, payload) = match commas.second {
        Some(second) => (trim(&line[first + 1..second]), &line[second + 1..]),
        None => (trim(&line[first + 1..]), ""),
    };
    let event =
        match command.as_bytes() {
            b"ADD_VERTEX" => GraphEventRef::AddVertex {
                id: vertex_id(entity)?,
                state: payload,
            },
            b"REMOVE_VERTEX" => GraphEventRef::RemoveVertex {
                id: vertex_id(entity)?,
            },
            b"UPDATE_VERTEX" => GraphEventRef::UpdateVertex {
                id: vertex_id(entity)?,
                state: payload,
            },
            b"ADD_EDGE" => GraphEventRef::AddEdge {
                id: edge_id(entity)?,
                state: payload,
            },
            b"REMOVE_EDGE" => GraphEventRef::RemoveEdge {
                id: edge_id(entity)?,
            },
            b"UPDATE_EDGE" => GraphEventRef::UpdateEdge {
                id: edge_id(entity)?,
                state: payload,
            },
            b"MARKER" => {
                if entity.is_empty() {
                    return Err(ParseError::missing_field("marker name"));
                }
                return Ok(Some(StreamEntryRef::Marker(entity)));
            }
            b"SPEED" => {
                let factor: f64 = payload.trim().parse().map_err(|_| {
                    ParseError::invalid_payload(format!("speed factor `{payload}`"))
                })?;
                if !factor.is_finite() || factor <= 0.0 {
                    return Err(ParseError::invalid_payload(format!(
                        "speed factor must be positive and finite, got `{payload}`"
                    )));
                }
                return Ok(Some(StreamEntryRef::Control(ControlEvent::SetSpeed(
                    factor,
                ))));
            }
            b"PAUSE" => {
                let millis: u64 = payload.trim().parse().map_err(|_| {
                    ParseError::invalid_payload(format!("pause millis `{payload}`"))
                })?;
                return Ok(Some(StreamEntryRef::Control(ControlEvent::Pause(
                    Duration::from_millis(millis),
                ))));
            }
            _ => return Err(ParseError::unknown_command(command)),
        };
    Ok(Some(StreamEntryRef::Graph(event)))
}

/// Whether `byte` is one of the ASCII characters `char::is_whitespace`
/// accepts: space, `\t`, `\n`, `\x0B`, `\x0C` and `\r`.
fn is_space(byte: u8) -> bool {
    matches!(byte, b' ' | b'\t'..=b'\r')
}

/// `field.trim()`, on the bytes while both edges are ASCII.
fn trim(field: &str) -> &str {
    let bytes = field.as_bytes();
    let (mut start, mut end) = (0, bytes.len());
    while start < end && is_space(bytes[start]) {
        start += 1;
    }
    while end > start && is_space(bytes[end - 1]) {
        end -= 1;
    }
    if start < end && !(bytes[start].is_ascii() && bytes[end - 1].is_ascii()) {
        return field.trim(); // the edge may be Unicode whitespace
    }
    &field[start..end]
}

/// The run of ASCII digits `bytes` starts with, as a number, and the bytes
/// after it; `None` if there is no digit or the run overflows a `u64`.
fn digits(bytes: &[u8]) -> Option<(u64, &[u8])> {
    let mut value = 0u64;
    let mut len = 0;
    for &byte in bytes {
        let digit = byte.wrapping_sub(b'0');
        if digit > 9 {
            break;
        }
        value = value.wrapping_mul(10).wrapping_add(u64::from(digit));
        len += 1;
    }
    let (run, rest) = bytes.split_at(len);
    if len > 19 {
        // Nineteen digits always fit; a longer run is summed again, checked.
        value = run.iter().try_fold(0u64, |value, &byte| {
            value.checked_mul(10)?.checked_add(u64::from(byte - b'0'))
        })?;
    }
    (len > 0).then_some((value, rest))
}

/// The trimmed `entity` as a vertex id: plain digits here, anything else
/// through `VertexId::from_str`, for its value or its error.
fn vertex_id(entity: &str) -> Result<VertexId, ParseError> {
    if entity.is_empty() {
        return Err(ParseError::missing_field("entity"));
    }
    match digits(entity.as_bytes()) {
        Some((id, [])) => Ok(VertexId(id)),
        _ => entity.parse(),
    }
}

/// The trimmed `entity` as an edge id: plain `digits-digits` here,
/// anything else through `EdgeId::from_str`, for its value or its error.
fn edge_id(entity: &str) -> Result<EdgeId, ParseError> {
    if entity.is_empty() {
        return Err(ParseError::missing_field("entity"));
    }
    if let Some((src, [b'-', rest @ ..])) = digits(entity.as_bytes()) {
        if let Some((dst, [])) = digits(rest) {
            return Ok(EdgeId::from((src, dst)));
        }
    }
    entity.parse()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ParseErrorKind;
    use crate::ids::{EdgeId, VertexId};
    use proptest::prelude::*;

    /// The codec as it was before the one-pass rewrite: a line scanned
    /// once per step, ids through `FromStr` and `Display`. The
    /// differential tests hold the rewrite to its results byte for byte.
    mod oracle {
        use super::*;

        pub fn parse_line_ref(line: &str) -> Result<Option<StreamEntryRef<'_>>, ParseError> {
            let trimmed = line.trim_start();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                return Ok(None);
            }
            let (command, rest) = trimmed
                .split_once(',')
                .ok_or_else(|| ParseError::missing_field("entity"))?;
            let command = command.trim();
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
                    let factor: f64 = payload.trim().parse().map_err(|_| {
                        ParseError::invalid_payload(format!("speed factor `{payload}`"))
                    })?;
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
                    let millis: u64 = payload.trim().parse().map_err(|_| {
                        ParseError::invalid_payload(format!("pause millis `{payload}`"))
                    })?;
                    Ok(Some(StreamEntryRef::Control(ControlEvent::Pause(
                        Duration::from_millis(millis),
                    ))))
                }
                _ => parse_graph_command(command, entity, payload).map(Some),
            }
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

        /// Every line of `bytes` as the line reader numbered and parsed
        /// it: split at each `\n`, the last line without one.
        pub fn read_lines(bytes: &[u8]) -> Vec<Parsed> {
            let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
            if lines.last().is_some_and(|last| last.is_empty()) {
                lines.pop();
            }
            lines
                .into_iter()
                .enumerate()
                .map(|(i, line)| {
                    std::str::from_utf8(line)
                        .map_err(|_| ParseError::invalid_utf8())
                        .and_then(|text| parse_line_ref(text.trim_end_matches('\r')))
                        .map(|entry| entry.map(|e| e.to_entry()))
                        .map_err(|e| e.at_line(i + 1))
                })
                .collect()
        }

        pub fn write_graph_event(event: &GraphEvent, out: &mut String) {
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
    }

    /// Whitespace around a field: none, ASCII (`\x0B` among it, which
    /// `u8::is_ascii_whitespace` does not count) or Unicode.
    fn space() -> impl Strategy<Value = String> {
        prop_oneof![
            4 => Just(""),
            1 => Just(" "),
            1 => Just("\t"),
            1 => Just("\x0B"),
            1 => Just("\x0C"),
            1 => Just("\r"),
            1 => Just("\u{A0}"),
            1 => Just("\u{85}"),
            1 => Just("\u{2003}"),
            1 => Just("\u{3000}"),
            1 => Just(" \u{A0}\t"),
        ]
        .prop_map(str::to_owned)
    }

    fn command() -> impl Strategy<Value = String> {
        prop_oneof![
            Just("ADD_VERTEX"),
            Just("REMOVE_VERTEX"),
            Just("UPDATE_VERTEX"),
            Just("ADD_EDGE"),
            Just("REMOVE_EDGE"),
            Just("UPDATE_EDGE"),
            Just("MARKER"),
            Just("SPEED"),
            Just("PAUSE"),
            Just("add_vertex"),
            Just("ADD_EDGEX"),
            Just("NOPE"),
            Just(""),
            Just("#"),
            Just("# note"),
            Just("ADD\u{A0}EDGE"),
        ]
        .prop_map(str::to_owned)
    }

    fn id() -> impl Strategy<Value = String> {
        prop_oneof![
            4 => (0u64..1_000).prop_map(|n| n.to_string()),
            2 => any::<u64>().prop_map(|n| n.to_string()),
            1 => Just("+5".to_owned()),
            1 => Just("007".to_owned()),
            1 => Just("18446744073709551615".to_owned()),
            1 => Just("18446744073709551616".to_owned()),
            1 => Just("99999999999999999999999".to_owned()),
            1 => Just("-1".to_owned()),
            1 => Just("1.5".to_owned()),
            1 => Just("x".to_owned()),
            1 => Just("\u{e9}".to_owned()),
            1 => Just(String::new()),
        ]
    }

    fn entity() -> impl Strategy<Value = String> {
        prop_oneof![
            3 => id(),
            3 => (id(), space(), id()).prop_map(|(src, s, dst)| format!("{src}{s}-{s}{dst}")),
            1 => Just("1--2".to_owned()),
            1 => Just("1-".to_owned()),
            1 => Just("-2".to_owned()),
            1 => Just("1-2-3".to_owned()),
            1 => Just("window-3".to_owned()),
        ]
    }

    fn payload() -> impl Strategy<Value = String> {
        prop_oneof![
            4 => "[ -~]{0,12}",
            1 => Just("2".to_owned()),
            1 => Just(" 2.5 ".to_owned()),
            1 => Just("0".to_owned()),
            1 => Just("-1".to_owned()),
            1 => Just("inf".to_owned()),
            1 => Just("fast".to_owned()),
            1 => Just("100".to_owned()),
            1 => Just("1.5".to_owned()),
            1 => Just("caf\u{e9}\u{A0}".to_owned()),
        ]
    }

    /// One line of the §4.2 shape, pulled apart at every joint.
    fn shaped_line() -> impl Strategy<Value = String> {
        (
            (space(), command(), space()),
            (0u8..4, space(), entity(), space()),
            (
                payload(),
                prop_oneof![4 => Just(""), 1 => Just("\r"), 1 => Just("\r\r")],
            ),
        )
            .prop_map(
                |((s1, cmd, s2), (commas, s3, ent, s4), (pay, end))| match commas {
                    0 => format!("{s1}{cmd}{s2}{end}"),
                    1 => format!("{s1}{cmd}{s2},{s3}{ent}{s4}{end}"),
                    _ => format!("{s1}{cmd}{s2},{s3}{ent}{s4},{pay}{end}"),
                },
            )
    }

    /// A line's bytes: mostly well shaped, some with a byte that breaks
    /// UTF-8 spliced in, some noise.
    fn line_bytes() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            8 => shaped_line().prop_map(String::into_bytes),
            1 => (shaped_line(), 0usize..40, prop_oneof![Just(0xffu8), Just(0xc3), Just(0x80)]).prop_map(
                |(line, at, bad)| {
                    let mut bytes = line.into_bytes();
                    bytes.insert(at.min(bytes.len()), bad);
                    bytes
                }
            ),
            1 => proptest::collection::vec(prop_oneof![any::<u8>(), Just(b','), Just(b'-')], 0..24),
        ]
    }

    fn stream_bytes() -> impl Strategy<Value = Vec<u8>> {
        (
            proptest::collection::vec(line_bytes(), 1..12),
            any::<bool>(),
        )
            .prop_map(|(lines, newline_at_end)| {
                let mut bytes = lines.join(&b'\n');
                if newline_at_end {
                    bytes.push(b'\n');
                }
                bytes
            })
    }

    proptest! {
        #[test]
        fn line_reader_matches_the_oracle(bytes in stream_bytes()) {
            let want = oracle::read_lines(&bytes);
            for cap in [1, 3, 8 * 1024] {
                let got = pump_all(io::BufReader::with_capacity(cap, &bytes[..]));
                prop_assert_eq!(&got, &want, "buffer of {}, bytes {:?}", cap, String::from_utf8_lossy(&bytes));
            }
        }

        #[test]
        fn parse_line_ref_matches_the_oracle(line in shaped_line()) {
            prop_assert_eq!(parse_line_ref(&line), oracle::parse_line_ref(&line), "line {:?}", line);
        }

        #[test]
        fn write_line_matches_the_oracle(ids in (any::<u64>(), any::<u64>()), shift in (0u32..64, 0u32..64)) {
            let (a, b) = (ids.0 >> shift.0, ids.1 >> shift.1);
            for event in events_with_ids(a, b) {
                let mut want = String::new();
                oracle::write_graph_event(&event, &mut want);
                prop_assert_eq!(entry_to_line(&StreamEntry::graph(event)), want);
            }
        }
    }

    /// One event of each kind, vertex `a` or edge `a-b`.
    fn events_with_ids(a: u64, b: u64) -> [GraphEvent; 6] {
        let (vertex, edge) = (VertexId(a), EdgeId::from((a, b)));
        [
            GraphEvent::AddVertex {
                id: vertex,
                state: State::new("s"),
            },
            GraphEvent::RemoveVertex { id: vertex },
            GraphEvent::UpdateVertex {
                id: vertex,
                state: State::empty(),
            },
            GraphEvent::AddEdge {
                id: edge,
                state: State::new("w=1,2"),
            },
            GraphEvent::RemoveEdge { id: edge },
            GraphEvent::UpdateEdge {
                id: edge,
                state: State::new(" x "),
            },
        ]
    }

    #[test]
    fn ids_at_every_digit_count_boundary_write_as_display_does() {
        let mut ids = vec![0, 1, u64::MAX - 1, u64::MAX];
        for digits in 1..=19 {
            let power = 10u64.pow(digits);
            ids.extend([power - 1, power, power + 1]);
        }
        for &a in &ids {
            for &b in &ids {
                for event in events_with_ids(a, b) {
                    let mut want = String::new();
                    oracle::write_graph_event(&event, &mut want);
                    assert_eq!(entry_to_line(&StreamEntry::graph(event)), want);
                }
            }
        }
    }

    #[test]
    fn fallback_cases_match_the_oracle() {
        for line in [
            "ADD_VERTEX,+5,",
            "ADD_VERTEX, +5 ,",
            "ADD_VERTEX,18446744073709551615,",
            "ADD_VERTEX,18446744073709551616,",
            "ADD_EDGE,1--2,",
            "ADD_EDGE,+1-+2,",
            "ADD_EDGE,1 - 2,w",
            "ADD_EDGE,1-18446744073709551616,",
            "REMOVE_EDGE,1-2-3,",
            "\u{A0}ADD_VERTEX\u{A0},\u{3000}7\u{2003},x",
            "\u{A0}# a comment after Unicode whitespace",
            "\u{2003}",
            "\x0BADD_VERTEX\x0B,\x0B7\x0B,\x0B",
            "ADD_VERTEX,\u{e9},",
            "ADD_VERTEX\u{A0}X,1,",
            "ADD_VERTEX,,",
            "ADD_VERTEX,",
            "ADD_VERTEX",
            "NOPE,1,",
            ",1,",
            "MARKER,\u{A0}m\u{A0},",
            "SPEED,, 2 ",
        ] {
            assert_eq!(
                parse_line_ref(line),
                oracle::parse_line_ref(line),
                "{line:?}"
            );
        }
    }

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

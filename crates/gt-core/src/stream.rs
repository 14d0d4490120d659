//! Graph stream containers and streaming I/O.
//!
//! [`GraphStream`] is the in-memory representation of a graph stream file.
//! [`LineReader`] and [`StreamWriter`] process streams incrementally over
//! any [`std::io::BufRead`] / [`std::io::Write`], so replaying never needs
//! the whole stream in memory (the paper decouples reading from emitting
//! for exactly this reason).

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use crate::error::CoreError;
use crate::event::{EventKind, StreamEntry};
use crate::format::{write_line, LineReader};

/// An in-memory graph stream: an ordered sequence of stream entries.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GraphStream {
    entries: Vec<StreamEntry>,
}

impl GraphStream {
    /// Creates an empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps an entry sequence.
    pub fn from_entries(entries: Vec<StreamEntry>) -> Self {
        GraphStream { entries }
    }

    /// The entries, in stream order.
    pub fn entries(&self) -> &[StreamEntry] {
        &self.entries
    }

    /// Consumes the stream, yielding its entries.
    pub fn into_entries(self) -> Vec<StreamEntry> {
        self.entries
    }

    /// Number of entries (including markers and control events).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the stream has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends an entry.
    pub fn push(&mut self, entry: StreamEntry) {
        self.entries.push(entry);
    }

    /// Appends all entries of `other`.
    pub fn extend(&mut self, other: GraphStream) {
        self.entries.extend(other.entries);
    }

    /// Iterates over only the graph-changing events.
    pub fn graph_events(&self) -> impl Iterator<Item = &crate::event::GraphEvent> {
        self.entries.iter().filter_map(|e| e.as_graph())
    }

    /// Serializes the whole stream to a CSV string (one entry per line).
    pub fn to_csv_string(&self) -> String {
        let mut out = String::with_capacity(self.entries.len() * 24);
        for entry in &self.entries {
            write_line(entry, &mut out);
            out.push('\n');
        }
        out
    }

    /// Parses a stream from CSV text.
    pub fn parse_csv(text: &str) -> Result<Self, CoreError> {
        Self::read_from(text.as_bytes())
    }

    /// Writes the stream to a file.
    pub fn write_to_file(&self, path: impl AsRef<Path>) -> Result<(), CoreError> {
        let file = File::create(path)?;
        let mut writer = StreamWriter::new(BufWriter::new(file));
        for entry in &self.entries {
            writer.write(entry)?;
        }
        writer.flush()?;
        Ok(())
    }

    /// Reads a stream from a file.
    pub fn read_from_file(path: impl AsRef<Path>) -> Result<Self, CoreError> {
        let file = File::open(path)?;
        Self::read_from(BufReader::with_capacity(256 * 1024, file))
    }

    /// Reads every line of `source`, stopping at the first bad one.
    fn read_from(source: impl BufRead) -> Result<Self, CoreError> {
        let mut entries = Vec::new();
        let mut lines = LineReader::new(source);
        while lines.pump(|line| {
            entries.extend(line?.map(|entry| entry.to_entry()));
            Ok::<_, CoreError>(())
        })?? {}
        Ok(GraphStream { entries })
    }

    /// Computes composition statistics over the stream.
    pub fn stats(&self) -> StreamStats {
        let mut stats = StreamStats::default();
        for entry in &self.entries {
            match entry {
                StreamEntry::Graph(event) => {
                    stats.graph_events += 1;
                    *stats.by_kind.entry(event.kind()).or_insert(0) += 1;
                }
                StreamEntry::Marker(_) => stats.markers += 1,
                StreamEntry::Control(_) => stats.controls += 1,
            }
        }
        stats
    }
}

impl FromIterator<StreamEntry> for GraphStream {
    fn from_iter<T: IntoIterator<Item = StreamEntry>>(iter: T) -> Self {
        GraphStream {
            entries: iter.into_iter().collect(),
        }
    }
}

impl IntoIterator for GraphStream {
    type Item = StreamEntry;
    type IntoIter = std::vec::IntoIter<StreamEntry>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

/// Composition statistics of a stream (paper §4.4.1: event mix, topology vs.
/// state changes).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Number of graph-changing events.
    pub graph_events: usize,
    /// Number of marker entries.
    pub markers: usize,
    /// Number of control entries.
    pub controls: usize,
    /// Count per event kind.
    pub by_kind: BTreeMap<EventKind, usize>,
}

impl StreamStats {
    /// Count for one kind (0 if absent).
    pub fn count(&self, kind: EventKind) -> usize {
        self.by_kind.get(&kind).copied().unwrap_or(0)
    }

    /// Fraction of graph events that change topology.
    pub fn topology_ratio(&self) -> f64 {
        if self.graph_events == 0 {
            return 0.0;
        }
        let topo: usize = EventKind::ALL
            .into_iter()
            .filter(|k| k.is_topology_change())
            .map(|k| self.count(k))
            .sum();
        topo as f64 / self.graph_events as f64
    }

    /// Fraction of graph events that target vertices.
    pub fn vertex_ratio(&self) -> f64 {
        if self.graph_events == 0 {
            return 0.0;
        }
        let vertex: usize = EventKind::ALL
            .into_iter()
            .filter(|k| k.is_vertex_event())
            .map(|k| self.count(k))
            .sum();
        vertex as f64 / self.graph_events as f64
    }

    /// Of the topology-changing events, the fraction that *add* entities —
    /// §4.4.1's "Direction: ratio of add vs remove operations". 0.0 when
    /// the stream has no topology changes.
    pub fn addition_ratio(&self) -> f64 {
        let adds: usize = EventKind::ALL
            .into_iter()
            .filter(|k| k.is_addition())
            .map(|k| self.count(k))
            .sum();
        let removes: usize = EventKind::ALL
            .into_iter()
            .filter(|k| k.is_removal())
            .map(|k| self.count(k))
            .sum();
        let topo = adds + removes;
        if topo == 0 {
            return 0.0;
        }
        adds as f64 / topo as f64
    }
}

/// An incremental writer emitting one entry per line.
pub struct StreamWriter<W> {
    inner: W,
    buf: String,
}

impl<W: Write> StreamWriter<W> {
    /// Wraps a writer (use a [`BufWriter`] for files/sockets).
    pub fn new(inner: W) -> Self {
        StreamWriter {
            inner,
            buf: String::with_capacity(64),
        }
    }

    /// Writes one entry followed by a newline.
    pub fn write(&mut self, entry: &StreamEntry) -> io::Result<()> {
        self.buf.clear();
        write_line(entry, &mut self.buf);
        self.buf.push('\n');
        self.inner.write_all(self.buf.as_bytes())
    }

    /// Flushes the underlying writer.
    pub fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::GraphEvent;
    use crate::ids::{EdgeId, VertexId};
    use crate::state::State;
    use std::time::Duration;

    fn sample_stream() -> GraphStream {
        GraphStream::from_entries(vec![
            StreamEntry::graph(GraphEvent::AddVertex {
                id: VertexId(1),
                state: State::empty(),
            }),
            StreamEntry::graph(GraphEvent::AddVertex {
                id: VertexId(2),
                state: State::new("user"),
            }),
            StreamEntry::graph(GraphEvent::AddEdge {
                id: EdgeId::from((1, 2)),
                state: State::weight(1.0),
            }),
            StreamEntry::marker("bootstrap-done"),
            StreamEntry::pause(Duration::from_millis(100)),
            StreamEntry::speed(2.0),
            StreamEntry::graph(GraphEvent::UpdateVertex {
                id: VertexId(1),
                state: State::new("active"),
            }),
            StreamEntry::graph(GraphEvent::RemoveEdge {
                id: EdgeId::from((1, 2)),
            }),
        ])
    }

    #[test]
    fn csv_roundtrip() {
        let stream = sample_stream();
        let text = stream.to_csv_string();
        let parsed = GraphStream::parse_csv(&text).unwrap();
        assert_eq!(parsed, stream);
    }

    #[test]
    fn parse_reports_line_numbers() {
        let text = "ADD_VERTEX,1,\nBAD_COMMAND,2,\n";
        let err = GraphStream::parse_csv(text).unwrap_err();
        match err {
            CoreError::Parse(p) => assert_eq!(p.line, Some(2)),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn parse_skips_comments_and_blank_lines() {
        let text = "# a stream\n\nADD_VERTEX,1,\n   \nMARKER,m,\n";
        let entries = GraphStream::parse_csv(text).unwrap().into_entries();
        assert_eq!(entries.len(), 2);
        assert!(entries[0].is_graph());
        assert!(entries[1].is_marker());
    }

    #[test]
    fn parse_handles_crlf() {
        let text = "ADD_VERTEX,1,\r\nADD_VERTEX,2,hello\r\n";
        let entries = GraphStream::parse_csv(text).unwrap().into_entries();
        assert_eq!(entries.len(), 2);
        match &entries[1] {
            StreamEntry::Graph(GraphEvent::AddVertex { state, .. }) => {
                assert_eq!(state.as_str(), "hello");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn writer_output_reads_back() {
        let stream = sample_stream();
        let mut writer = StreamWriter::new(Vec::new());
        for entry in stream.entries() {
            writer.write(entry).unwrap();
        }
        let bytes = writer.into_inner();
        assert_eq!(GraphStream::read_from(&bytes[..]).unwrap(), stream);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("gt-core-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.csv");
        let stream = sample_stream();
        stream.write_to_file(&path).unwrap();
        let read = GraphStream::read_from_file(&path).unwrap();
        assert_eq!(read, stream);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_composition() {
        let stats = sample_stream().stats();
        assert_eq!(stats.graph_events, 5);
        assert_eq!(stats.markers, 1);
        assert_eq!(stats.controls, 2);
        assert_eq!(stats.count(EventKind::AddVertex), 2);
        assert_eq!(stats.count(EventKind::AddEdge), 1);
        assert_eq!(stats.count(EventKind::UpdateVertex), 1);
        assert_eq!(stats.count(EventKind::RemoveEdge), 1);
        assert_eq!(stats.count(EventKind::RemoveVertex), 0);
        // 4 of 5 graph events are topology changes.
        assert!((stats.topology_ratio() - 0.8).abs() < 1e-12);
        // 3 of 5 graph events are vertex events.
        assert!((stats.vertex_ratio() - 0.6).abs() < 1e-12);
        // 3 adds vs 1 remove among the topology changes.
        assert!((stats.addition_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn addition_ratio_without_topology_changes() {
        let stream =
            GraphStream::from_entries(vec![StreamEntry::graph(GraphEvent::UpdateVertex {
                id: VertexId(1),
                state: State::empty(),
            })]);
        // No adds/removes at all: defined as 0.
        assert_eq!(stream.stats().addition_ratio(), 0.0);
    }

    #[test]
    fn stats_on_empty_stream() {
        let stats = GraphStream::new().stats();
        assert_eq!(stats.graph_events, 0);
        assert_eq!(stats.topology_ratio(), 0.0);
        assert_eq!(stats.vertex_ratio(), 0.0);
    }

    #[test]
    fn from_iterator_and_into_iterator() {
        let stream: GraphStream = sample_stream().into_iter().collect();
        assert_eq!(stream, sample_stream());
    }
}

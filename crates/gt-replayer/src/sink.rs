//! Event sinks — the replayer side of platform connectors.
//!
//! The paper requires "a generic streaming interface supporting different
//! modes of operation … adapted by platform-specific connectors" (§3.3).
//! [`EventSink`] is that interface. Built-in connectors cover the paper's
//! evaluation setups: process pipes / stdout ([`WriterSink`]) and local or
//! remote TCP sockets ([`TcpSink`]).

use std::io::{self, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

use gt_core::format::entry_to_line;
use gt_core::prelude::*;

/// Something notable a sink did while delivering (connection loss,
/// reconnection). Fault-tolerant sinks record these so the harness can
/// merge them into the result log next to the stream metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkEvent {
    /// When it happened, microseconds on the sink's clock.
    pub t_micros: u64,
    /// What happened.
    pub kind: SinkEventKind,
    /// Human-readable detail (the triggering error, the attempt count).
    pub detail: String,
}

/// The kind of a [`SinkEvent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SinkEventKind {
    /// The connection to the system under test was lost.
    Disconnected {
        /// How the connection died, as far as the sink could tell.
        cause: DisconnectCause,
    },
    /// The connection was re-established after `attempt` tries.
    Reconnected {
        /// Which reconnect attempt succeeded (1-based).
        attempt: u32,
    },
}

/// How a TCP connection died, classified from the failing I/O error plus a
/// nonblocking probe read of the old socket. Distinguishing these matters
/// under network faults: an abrupt RST, a graceful FIN, and a blackholed
/// (stalled) peer call for the same reconnect loop but very different
/// operator diagnoses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DisconnectCause {
    /// Abrupt reset (RST): `ConnectionReset` / `ConnectionAborted`.
    Reset,
    /// Graceful close (FIN): the peer shut down the connection and our
    /// writes hit `BrokenPipe`, or a probe read returned EOF.
    ClosedByPeer,
    /// Blackhole: writes timed out with the connection nominally alive
    /// (`WouldBlock` / `TimedOut` with nothing readable).
    Stalled,
    /// Anything else (DNS failure, refused reconnect, local error).
    Other,
}

impl DisconnectCause {
    /// Classifies an I/O error kind into a cause. A probe read can refine
    /// this further (see `ReconnectingTcpSink`).
    pub(crate) fn classify(err: &io::Error) -> Self {
        match err.kind() {
            io::ErrorKind::ConnectionReset | io::ErrorKind::ConnectionAborted => {
                DisconnectCause::Reset
            }
            io::ErrorKind::BrokenPipe | io::ErrorKind::UnexpectedEof | io::ErrorKind::WriteZero => {
                DisconnectCause::ClosedByPeer
            }
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => DisconnectCause::Stalled,
            _ => DisconnectCause::Other,
        }
    }

    /// Stable lowercase label used in metric records and counters.
    pub fn label(&self) -> &'static str {
        match self {
            DisconnectCause::Reset => "reset",
            DisconnectCause::ClosedByPeer => "closed_by_peer",
            DisconnectCause::Stalled => "stalled",
            DisconnectCause::Other => "other",
        }
    }

    /// All causes, in counter order.
    pub(crate) const ALL: [DisconnectCause; 4] = [
        DisconnectCause::Reset,
        DisconnectCause::ClosedByPeer,
        DisconnectCause::Stalled,
        DisconnectCause::Other,
    ];

    /// This cause's index into per-cause counter arrays.
    pub fn index(&self) -> usize {
        match self {
            DisconnectCause::Reset => 0,
            DisconnectCause::ClosedByPeer => 1,
            DisconnectCause::Stalled => 2,
            DisconnectCause::Other => 3,
        }
    }
}

/// A destination for replayed stream entries.
///
/// # Lifecycle and batch contract
///
/// The replayer drives a sink through a fixed lifecycle:
///
/// 1. [`open`](EventSink::open) once, before the first entry;
/// 2. any mix of [`send`](EventSink::send) (single entries) and
///    [`send_batch`](EventSink::send_batch) (entries that became due
///    together), interleaved with [`flush`](EventSink::flush) at markers and
///    pauses;
/// 3. [`close`](EventSink::close) once, after the last entry.
///
/// Ordering guarantees: entries arrive in stream order, whether delivered
/// singly or batched, and a marker is only delivered after every graph event
/// streamed before it has been handed to the sink and flushed. Batches carry
/// [`SharedEntry`] handles so connectors can forward events downstream by
/// cloning the `Arc` instead of the payload.
///
/// Every method except [`send`](EventSink::send) has a default: sinks that
/// predate the batch contract keep working unchanged, with
/// [`send_batch`](EventSink::send_batch) falling back to per-entry delivery.
pub trait EventSink {
    /// Prepares the sink for a replay run. Default: no-op.
    fn open(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Delivers one entry.
    fn send(&mut self, entry: &StreamEntry) -> io::Result<()>;

    /// Delivers a batch of entries that became due together (the session's
    /// emitter sends each run of due graph events as one slice of the
    /// chunk it holds). Default: per-entry [`send`](EventSink::send)
    /// fallback.
    fn send_batch(&mut self, batch: &[SharedEntry]) -> io::Result<()> {
        for entry in batch {
            self.send(entry)?;
        }
        Ok(())
    }

    /// Flushes buffered entries (called at markers, around pauses, and at
    /// replay end).
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Finishes a replay run. Default: [`flush`](EventSink::flush).
    fn close(&mut self) -> io::Result<()> {
        self.flush()
    }

    /// Takes the notable events accumulated since the last drain. Plain
    /// sinks have none.
    fn drain_events(&mut self) -> Vec<SinkEvent> {
        Vec::new()
    }
}

impl<S: EventSink + ?Sized> EventSink for &mut S {
    fn open(&mut self) -> io::Result<()> {
        (**self).open()
    }

    fn send(&mut self, entry: &StreamEntry) -> io::Result<()> {
        (**self).send(entry)
    }

    fn send_batch(&mut self, batch: &[SharedEntry]) -> io::Result<()> {
        (**self).send_batch(batch)
    }

    fn flush(&mut self) -> io::Result<()> {
        (**self).flush()
    }

    fn close(&mut self) -> io::Result<()> {
        (**self).close()
    }

    fn drain_events(&mut self) -> Vec<SinkEvent> {
        (**self).drain_events()
    }
}

impl<S: EventSink + ?Sized> EventSink for Box<S> {
    fn open(&mut self) -> io::Result<()> {
        (**self).open()
    }

    fn send(&mut self, entry: &StreamEntry) -> io::Result<()> {
        (**self).send(entry)
    }

    fn send_batch(&mut self, batch: &[SharedEntry]) -> io::Result<()> {
        (**self).send_batch(batch)
    }

    fn flush(&mut self) -> io::Result<()> {
        (**self).flush()
    }

    fn close(&mut self) -> io::Result<()> {
        (**self).close()
    }

    fn drain_events(&mut self) -> Vec<SinkEvent> {
        (**self).drain_events()
    }
}

/// Writes entries in the stream line format to any [`Write`] — pipes,
/// stdout, files.
pub struct WriterSink<W: Write> {
    inner: W,
    buf: String,
}

impl<W: Write> WriterSink<W> {
    /// Wraps a writer.
    pub fn new(inner: W) -> Self {
        WriterSink {
            inner,
            buf: String::with_capacity(64),
        }
    }
}

impl<W: Write> EventSink for WriterSink<W> {
    fn send(&mut self, entry: &StreamEntry) -> io::Result<()> {
        self.buf.clear();
        gt_core::format::write_line(entry, &mut self.buf);
        self.buf.push('\n');
        self.inner.write_all(self.buf.as_bytes())
    }

    fn send_batch(&mut self, batch: &[SharedEntry]) -> io::Result<()> {
        // Serialize the whole batch into the reused buffer and hand it to
        // the writer as one `write_all` — one syscall per burst instead of
        // one per event on unbuffered writers.
        self.buf.clear();
        for entry in batch {
            gt_core::format::write_line(entry, &mut self.buf);
            self.buf.push('\n');
        }
        self.inner.write_all(self.buf.as_bytes())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Streams entries over a buffered TCP connection.
pub struct TcpSink {
    inner: WriterSink<BufWriter<TcpStream>>,
}

impl TcpSink {
    /// Connects to the given address.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::connect_with(addr, None)
    }

    /// Connects with an optional write timeout, so a blackholed peer (e.g. a
    /// netem partition) surfaces as a `WouldBlock`/`TimedOut` write error
    /// instead of blocking the client forever.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        write_timeout: Option<std::time::Duration>,
    ) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(write_timeout)?;
        Ok(TcpSink {
            inner: WriterSink::new(BufWriter::with_capacity(64 * 1024, stream)),
        })
    }
}

impl EventSink for TcpSink {
    fn send(&mut self, entry: &StreamEntry) -> io::Result<()> {
        self.inner.send(entry)
    }

    fn send_batch(&mut self, batch: &[SharedEntry]) -> io::Result<()> {
        self.inner.send_batch(batch)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Collects entries in memory — test and measurement helper.
#[derive(Debug, Default)]
pub struct CollectSink {
    /// Everything received, in order.
    pub entries: Vec<StreamEntry>,
}

impl CollectSink {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Serialized view of what was received (for format assertions).
    pub fn lines(&self) -> Vec<String> {
        self.entries.iter().map(entry_to_line).collect()
    }
}

impl EventSink for CollectSink {
    fn send(&mut self, entry: &StreamEntry) -> io::Result<()> {
        self.entries.push(entry.clone());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    fn sample_entries() -> Vec<StreamEntry> {
        vec![
            StreamEntry::graph(GraphEvent::AddVertex {
                id: VertexId(1),
                state: State::new("a"),
            }),
            StreamEntry::marker("m"),
            StreamEntry::speed(2.0),
        ]
    }

    #[test]
    fn writer_sink_emits_lines() {
        let mut sink = WriterSink::new(Vec::new());
        for e in sample_entries() {
            sink.send(&e).unwrap();
        }
        sink.flush().unwrap();
        let text = String::from_utf8(sink.inner).unwrap();
        assert_eq!(text, "ADD_VERTEX,1,a\nMARKER,m,\nSPEED,,2\n");
    }

    #[test]
    fn writer_sink_batch_matches_per_event_bytes() {
        let batch: Vec<SharedEntry> = sample_entries().into_iter().map(SharedEntry::new).collect();
        let mut batched = WriterSink::new(Vec::new());
        batched.send_batch(&batch).unwrap();
        let mut single = WriterSink::new(Vec::new());
        for e in &batch {
            single.send(e).unwrap();
        }
        assert_eq!(batched.inner, single.inner);
    }

    #[test]
    fn default_batch_falls_back_to_per_event_send() {
        let mut sink = CollectSink::new();
        let batch: Vec<SharedEntry> = sample_entries().into_iter().map(SharedEntry::new).collect();
        sink.open().unwrap();
        sink.send_batch(&batch).unwrap();
        sink.close().unwrap();
        assert_eq!(sink.entries, sample_entries());
    }

    #[test]
    fn blanket_impls_forward_through_references_and_boxes() {
        let mut sink = CollectSink::new();
        {
            let by_ref: &mut CollectSink = &mut sink;
            by_ref.send(&StreamEntry::marker("ref")).unwrap();
        }
        let mut boxed: Box<dyn EventSink + Send> = Box::new(sink);
        boxed.send(&StreamEntry::marker("boxed")).unwrap();
        boxed
            .send_batch(&[SharedEntry::new(StreamEntry::marker("batched"))])
            .unwrap();
        boxed.close().unwrap();
    }

    #[test]
    fn tcp_sink_roundtrip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reader = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let reader = BufReader::new(stream);
            reader.lines().map(|l| l.unwrap()).collect::<Vec<_>>()
        });

        let mut sink = TcpSink::connect(addr).unwrap();
        for e in sample_entries() {
            sink.send(&e).unwrap();
        }
        sink.flush().unwrap();
        drop(sink);
        let lines = reader.join().unwrap();
        assert_eq!(lines, ["ADD_VERTEX,1,a", "MARKER,m,", "SPEED,,2"]);
    }

    #[test]
    fn collect_sink_records_everything() {
        let mut sink = CollectSink::new();
        for e in sample_entries() {
            sink.send(&e).unwrap();
        }
        assert_eq!(sink.entries.len(), 3);
        assert_eq!(sink.lines()[0], "ADD_VERTEX,1,a");
    }
}

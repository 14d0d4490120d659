//! The one stream reader and the one chunk queue.
//!
//! "Streaming is decoupled from reading the stream graph file. We use a
//! multi-threaded design to decouple both tasks and to ensure high
//! throughput" (§5.1). Every run reads its stream the same way, whatever
//! the stream is and whoever takes the entries:
//!
//! * **One source type.** A [`StreamSource`] borrows a stream file's path
//!   or an in-memory [`GraphStream`].
//! * **One reading function.** [`read_source`] parses a file line by line
//!   — through [`LineReader`], gt-core's one line reader, which the load
//!   listener and the netem bridge share — or walks an in-memory stream,
//!   and writes every entry to an [`EntryOut`]: the session's reader
//!   thread ([`crate::ReplaySession`]) or `gt-load`'s router, which sends
//!   each entry to one load client's queue.
//! * **One chunk queue.** Entries cross from the reading thread to the
//!   thread that uses them through a [`chunk_queue`]: a bounded queue of
//!   chunks, generic over the entry handle ([`SharedEntry`] for the
//!   session, [`StreamEntry`] for the load clients). It is `gt_core`'s
//!   one hand-off queue ([`gt_core::queue`]) with chunks for both its
//!   messages and its buffers; what is here is the filling in place.
//!
//! Entries travel in **chunks**: the reading side collects them into a
//! `Vec` of at most [`MAX_CHUNK`] and hands it over when it is full, at
//! the end, on an error, and whenever it has parsed everything its file
//! has delivered so far — so a source that trickles never parks an event
//! behind an unfilled chunk. One queue operation per chunk, not per
//! entry, is what keeps the hand-off cheaper than the work on either
//! side of it. The receiving side hands each chunk it has used up back
//! with its next take, as it is: the entries in it are the sending
//! side's to drop or to reuse. Handed-back chunks wait in the queue's
//! pool, and each send takes the one handed back last and fills it in place, slot
//! by slot from the first — an entry overwritten is dropped on the
//! sending thread, and what a partly filled chunk does not overwrite is
//! kept there, when it is sent, to fill the tail of the next chunk that
//! comes back short. The sender makes a new chunk only when the pool is
//! empty, so a queue of `depth` chunks makes at most
//! `depth + 2` over its life (the one being filled, the queued ones, the
//! one being used up), and how many it makes depends on how far the
//! sending side ever runs ahead. Once they are made a hand-off allocates
//! nothing, and an entry is freed by the thread that made it. A chunk
//! further down the pool keeps its used-up entries, and with them a
//! reference to any a sink kept, until a send takes it or the queue is
//! gone: at most the queue's own bound of entries. The session's
//! [`SharedEntry`] queue goes one step further: [`refill`] overwrites
//! each `Arc` no sink still holds in its own allocation, so the reader
//! allocates only for the entries a sink keeps. A queue of `depth` chunks
//! of `chunk_len` entries holds at most `depth * chunk_len` entries;
//! each send is weighted by its entries, and a take marks them done at
//! once, so the queue's account is what it holds. Dropping the sender
//! finishes the queue, dropping the receiver closes it. The load front's queues are bounded by
//! [`DEFAULT_BUFFER`] together; the session's by its `buffer`, 16 chunks
//! by default.

use std::io::{self, BufRead};
use std::mem;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use gt_core::event::refill;
use gt_core::prelude::*;
use gt_core::queue::{Consumer, Queue};

/// The bound of the load front's client queues, in entries, all of them
/// together. Its open-loop clients need the lead, and their queues hold
/// [`StreamEntry`] by value, one allocation per chunk. (The single-sink
/// session's queue is far smaller: see `ReplaySessionConfig::buffer`.)
pub const DEFAULT_BUFFER: usize = 64 * 1024;

/// Most entries in one chunk.
pub const MAX_CHUNK: usize = 256;

/// Where a stream comes from.
#[derive(Debug, Clone, Copy)]
pub enum StreamSource<'a> {
    /// A stream file, parsed as it is read.
    File(&'a Path),
    /// An in-memory stream, cloned entry by entry as it is read.
    Stream(&'a GraphStream),
}

impl<'a> From<&'a GraphStream> for StreamSource<'a> {
    fn from(stream: &'a GraphStream) -> Self {
        StreamSource::Stream(stream)
    }
}

impl<'a> From<&'a Path> for StreamSource<'a> {
    fn from(path: &'a Path) -> Self {
        StreamSource::File(path)
    }
}

impl<'a> From<&'a PathBuf> for StreamSource<'a> {
    fn from(path: &'a PathBuf) -> Self {
        StreamSource::File(path)
    }
}

/// Where [`read_source`] puts the entries it reads.
pub trait EntryOut {
    /// Takes one entry, in stream order. `false` once nobody takes
    /// entries any more, which ends the reading of an in-memory stream
    /// (a file's, at the end of the read buffer).
    fn push(&mut self, entry: StreamEntry) -> bool;

    /// Hands over whatever has collected; called before every read that
    /// may block, at the end and on an error. `false` once nobody takes
    /// entries any more, which ends the reading.
    fn flush(&mut self) -> bool;
}

/// The reading function: writes every entry of `source` to `out` and
/// returns the number of entries read. A file that cannot be opened is a
/// [`CoreError::Io`], as in `GraphStream::read_from_file`; a bad line
/// ends the reading with the line-numbered error `read_from_file` gives,
/// after every entry before it has been handed over.
pub fn read_source(source: StreamSource<'_>, mut out: impl EntryOut) -> Result<u64, CoreError> {
    match source {
        StreamSource::File(path) => {
            let file = std::fs::File::open(path)?;
            read_lines(io::BufReader::with_capacity(256 * 1024, file), out)
        }
        StreamSource::Stream(stream) => {
            let mut read = 0;
            for entry in stream.entries() {
                read += 1;
                if !out.push(entry.clone()) {
                    break; // the receiver is gone
                }
            }
            out.flush();
            Ok(read)
        }
    }
}

/// Parses `source` line by line ([`LineReader`]) into `out`. Each time the
/// source's buffer is used up the collected entries are handed over
/// before the next (possibly blocking) read; a hung-up receiver is
/// noticed there.
fn read_lines(source: impl BufRead, mut out: impl EntryOut) -> Result<u64, CoreError> {
    let mut lines = LineReader::new(source);
    let mut entries = 0;
    let result = loop {
        let pumped = lines.pump(|line| {
            if let Some(entry) = line? {
                entries += 1;
                out.push(entry.to_entry());
            }
            Ok::<_, CoreError>(())
        });
        match pumped {
            Ok(Ok(true)) => {
                if !out.flush() {
                    break Ok(entries); // the receiver is gone
                }
            }
            Ok(Ok(false)) => break Ok(entries),
            Ok(Err(e)) => break Err(e.into()),
            Err(e) => break Err(e),
        }
    };
    // On an error too: the valid prefix is delivered before it is reported.
    out.flush();
    result
}

/// A bounded queue of chunks from one sending to one receiving thread
/// (see the module docs): `gt_core`'s one [`Queue`], whose pool holds the
/// used-up chunks and whose account counts entries.
pub fn chunk_queue<T>(chunk_len: usize, depth: usize) -> (ChunkSender<T>, ChunkReceiver<T>) {
    let queue = Arc::new(Queue::new(depth, usize::MAX));
    let sender = ChunkSender {
        queue: Arc::clone(&queue),
        chunk: Vec::with_capacity(chunk_len),
        filled: 0,
        cut: Vec::new(),
        chunk_len: chunk_len.max(1),
    };
    (sender, ChunkReceiver(Consumer(queue)))
}

/// The session's reader→emitter queue: at most `buffer` entries, in
/// chunks of `min(256, buffer)`.
pub(crate) fn entry_queue(buffer: usize) -> (ChunkSender<SharedEntry>, ChunkReceiver<SharedEntry>) {
    let chunk_len = buffer.clamp(1, MAX_CHUNK);
    chunk_queue(chunk_len, buffer / chunk_len)
}

/// The sending end of a [`chunk_queue`]: fills one chunk at a time.
/// Dropping it finishes the queue.
pub struct ChunkSender<T> {
    queue: Arc<Queue<Vec<T>, Vec<T>>>,
    /// The chunk being filled: `filled` new entries, then what is left of
    /// the used-up entries it came back with, to be overwritten in order.
    chunk: Vec<T>,
    filled: usize,
    /// Used-up entries a partly filled chunk did not overwrite, to be
    /// overwritten past the end of a chunk that came back short.
    cut: Vec<T>,
    chunk_len: usize,
}

impl<T> ChunkSender<T> {
    /// Adds `entry` to the chunk being filled, dropping the used-up entry
    /// in its slot; `true` once that fills the chunk, and it is time to
    /// [`ChunkSender::send`]. Once the queue is closed the entry is
    /// dropped.
    pub fn put(&mut self, entry: T) -> bool {
        self.put_with(entry, |slot, entry| *slot = entry)
    }

    /// [`ChunkSender::put`], with `overwrite` writing `entry` over the
    /// used-up entry in the next slot, or past the chunk's end over one a
    /// partly filled chunk left; with none left, `entry` is pushed.
    fn put_with<E: Into<T>>(&mut self, entry: E, overwrite: impl FnOnce(&mut T, E)) -> bool {
        if !self.is_open() {
            return false;
        }
        match self.chunk.get_mut(self.filled) {
            Some(slot) => overwrite(slot, entry),
            None => match self.cut.pop() {
                Some(mut slot) => {
                    overwrite(&mut slot, entry);
                    self.chunk.push(slot);
                }
                None => self.chunk.push(entry.into()),
            },
        }
        self.filled += 1;
        self.filled == self.chunk_len
    }

    /// Hands the chunk over, waiting while the queue is full, and starts
    /// a new one in the chunk handed back last (a fresh one only when
    /// the pool is empty). `false` once the receiver is gone: the queue
    /// is then closed for good, and a send already waiting fails at once.
    pub fn send(&mut self) -> bool {
        if !self.is_open() {
            return false;
        }
        if self.filled == 0 {
            return true;
        }
        // Used-up entries the new ones did not overwrite stay on the
        // thread that made them.
        let filled = mem::take(&mut self.filled);
        self.cut.extend(self.chunk.drain(filled..));
        let chunk = mem::take(&mut self.chunk);
        let entries = chunk.len() as u64;
        let Ok(spent) = self.queue.exchange(chunk, entries) else {
            return false;
        };
        self.chunk = spent.unwrap_or_else(|| Vec::with_capacity(self.chunk_len));
        true
    }

    /// Whether the receiver may still take entries.
    pub fn is_open(&self) -> bool {
        self.queue.is_open()
    }
}

impl<T> Drop for ChunkSender<T> {
    fn drop(&mut self) {
        self.queue.finish();
    }
}

/// The receiving end of a [`chunk_queue`]: takes one chunk at a time, in
/// order. Dropping it closes the queue.
pub struct ChunkReceiver<T>(Consumer<Vec<T>, Vec<T>>);

impl<T> ChunkReceiver<T> {
    /// Hands `spent` back as it is — the sender drops or reuses its
    /// entries as it fills it again — and takes the next chunk, which is
    /// never empty; `None` once the sender is gone and the queue is
    /// drained. When no chunk is ready, `before_wait` runs and then the
    /// call blocks for one.
    pub fn recv(&mut self, spent: Vec<T>, before_wait: impl FnOnce()) -> Option<Vec<T>> {
        let spent = (spent.capacity() > 0).then_some(spent);
        let chunk = self.0.take(spent, || {
            before_wait();
            true
        })?;
        // Taken is done: the account counts what is queued.
        self.0.done(chunk.len() as u64);
        Some(chunk)
    }

    /// Entries sitting in the queue right now. (A chunk in the sender's
    /// or the receiver's hand is not queued.)
    pub(crate) fn queued(&self) -> usize {
        self.0.backlog() as usize
    }
}

impl EntryOut for ChunkSender<SharedEntry> {
    /// Adds one entry, in the allocation of the used-up entry in its slot
    /// if no sink still holds that one ([`refill`]), handing the chunk
    /// over if that fills it.
    fn push(&mut self, entry: StreamEntry) -> bool {
        !self.put_with(entry, refill) || self.send()
    }

    fn flush(&mut self) -> bool {
        self.send()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{sync_channel, Receiver};
    use std::time::Duration;

    /// Every entry `read` writes to a session queue of `buffer`, taken
    /// on this thread, and how the reading ended.
    fn through_queue(
        buffer: usize,
        read: impl FnOnce(ChunkSender<SharedEntry>) -> Result<u64, CoreError> + Send,
    ) -> (Vec<StreamEntry>, Result<u64, CoreError>) {
        let (tx, mut rx) = entry_queue(buffer);
        std::thread::scope(|scope| {
            let reader = scope.spawn(move || read(tx));
            let mut got = Vec::new();
            let mut chunk = Vec::new();
            while let Some(next) = rx.recv(chunk, || {}) {
                got.extend(next.iter().map(|entry| (**entry).clone()));
                chunk = next;
            }
            (got, reader.join().unwrap())
        })
    }

    fn temp_stream_file(content: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("gt-replayer-reader-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("stream-{:x}.csv", {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            content.hash(&mut h);
            h.finish()
        }));
        std::fs::write(&path, content).unwrap();
        path
    }

    #[test]
    fn reads_all_entries_from_either_source() {
        let path = temp_stream_file("ADD_VERTEX,1,\nADD_VERTEX,2,\nMARKER,end,\n");
        let stream = GraphStream::read_from_file(&path).unwrap();
        for source in [StreamSource::File(&path), StreamSource::Stream(&stream)] {
            let (entries, read) = through_queue(16, |tx| read_source(source, tx));
            assert_eq!(entries, stream.entries());
            assert!(entries[2].is_marker());
            assert_eq!(read.unwrap(), 3);
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn reports_parse_errors() {
        let path = temp_stream_file("ADD_VERTEX,1,\nGARBAGE\n");
        let (entries, read) = through_queue(16, |tx| read_source((&path).into(), tx));
        assert_eq!(entries.len(), 1);
        assert!(read.is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_errors() {
        let path = Path::new("/nonexistent/gt-stream.csv");
        let (entries, read) = through_queue(4, |tx| read_source(path.into(), tx));
        assert!(entries.is_empty());
        assert!(matches!(read, Err(CoreError::Io(_))));
    }

    #[test]
    fn dropping_the_receiver_stops_the_reader() {
        let content: String = (0..100_000).map(|i| format!("ADD_VERTEX,{i},\n")).collect();
        let path = temp_stream_file(&content);
        let stream = GraphStream::read_from_file(&path).unwrap();
        for source in [StreamSource::File(&path), StreamSource::Stream(&stream)] {
            let (tx, mut rx) = entry_queue(4);
            std::thread::scope(|scope| {
                let reader = scope.spawn(move || read_source(source, tx));
                // Take a chunk, then hang up.
                assert_eq!(rx.recv(Vec::new(), || {}).unwrap().len(), 4);
                drop(rx);
                // The reader notices the closed queue and exits cleanly,
                // long before the end of the stream.
                assert!(reader.join().unwrap().unwrap() < 100_000);
            });
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn lines_cut_by_the_read_buffer_and_odd_endings_parse() {
        // A 16-byte buffer cuts nearly every line; CRLF, a comment, a blank
        // line and a last line without newline ride along.
        let text = "ADD_VERTEX,1,state=one\r\n# note\n\nADD_EDGE,1-2,w\nMARKER,end,";
        let source = io::BufReader::with_capacity(16, text.as_bytes());
        let (got, read) = through_queue(4, |tx| read_lines(source, tx));
        assert_eq!(read.unwrap(), 3);
        let want = GraphStream::parse_csv(text).unwrap();
        assert_eq!(got, want.entries());
    }

    #[test]
    fn the_queue_holds_at_most_depth_chunks_and_recycles_them() {
        let (mut tx, mut rx) = chunk_queue::<u32>(4, 2);
        for i in 0..8 {
            if tx.put(i) {
                assert!(tx.send());
            }
        }
        assert_eq!(rx.queued(), 8);
        let first = rx.recv(Vec::new(), || {}).unwrap();
        assert_eq!(first, [0, 1, 2, 3]);
        let address = first.as_ptr();
        // The used-up chunk goes back; the sender fills it after the one
        // it holds now.
        let second = rx.recv(first, || {}).unwrap();
        assert_eq!(second, [4, 5, 6, 7]);
        for i in 8..16 {
            if tx.put(i) {
                assert!(tx.send());
            }
        }
        drop(tx);
        let third = rx.recv(second, || panic!("a chunk is ready")).unwrap();
        assert_eq!(third, [8, 9, 10, 11]);
        let fourth = rx.recv(third, || panic!("a chunk is ready")).unwrap();
        assert_eq!(
            (fourth.as_slice(), fourth.as_ptr()),
            (&[12, 13, 14, 15][..], address)
        );
        assert_eq!(rx.recv(fourth, || {}), None);
    }

    /// Yields one scripted line per `read` call, and only once the test
    /// has released it.
    struct ScriptedSource {
        lines: std::vec::IntoIter<String>,
        release: Receiver<()>,
    }

    impl io::Read for ScriptedSource {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.release.recv().is_err() {
                return Ok(0);
            }
            let Some(line) = self.lines.next() else {
                return Ok(0);
            };
            out[..line.len()].copy_from_slice(line.as_bytes());
            Ok(line.len())
        }
    }

    #[test]
    fn slow_source_is_not_parked_behind_an_unfilled_chunk() {
        let lines: Vec<String> = (0..20).map(|i| format!("ADD_VERTEX,{i},\n")).collect();
        let (release, gate) = sync_channel(0);
        let source = ScriptedSource {
            lines: lines.clone().into_iter(),
            release: gate,
        };
        // Room for a whole 256-entry chunk: only the drained-buffer rule
        // can hand these over one by one.
        let (tx, mut rx) = entry_queue(DEFAULT_BUFFER);
        let reader = std::thread::spawn(move || read_lines(io::BufReader::new(source), tx));
        // Forwarded through a channel with a timed receive, so that an
        // entry held back fails the test instead of hanging it.
        let (forward, arrivals) = sync_channel(0);
        let forwarder = std::thread::spawn(move || {
            while let Some(chunk) = rx.recv(Vec::new(), || {}) {
                forward.send(chunk).unwrap();
            }
        });
        for line in &lines {
            release.send(()).unwrap();
            // The next line is not released before this one has arrived.
            let chunk = arrivals
                .recv_timeout(Duration::from_secs(10))
                .expect("entry parked behind an unfilled chunk");
            assert_eq!(chunk.len(), 1);
            assert_eq!(gt_core::format::entry_to_line(&chunk[0]) + "\n", *line);
        }
        drop(release); // end of input
        forwarder.join().unwrap();
        assert_eq!(reader.join().unwrap().unwrap(), 20);
    }
}

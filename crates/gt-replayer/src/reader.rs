//! The decoupled reader thread.
//!
//! "Streaming is decoupled from reading the stream graph file. We use a
//! multi-threaded design to decouple both tasks and to ensure high
//! throughput" (§5.1). The reader parses the stream file on its own thread
//! — through [`LineReader`], gt-core's one line reader, which the load
//! listener and the netem bridge share — and feeds the emitter through a
//! bounded channel, so disk latency never stalls emission as long as the
//! buffer holds.
//!
//! Entries cross that channel in **chunks**: the reader collects parsed
//! entries into a `Vec` of at most `min(256, buffer)` and hands it over
//! when it is full, at end of input or on an error, and whenever it has
//! parsed everything its source has delivered so far — so a source that
//! trickles never parks an event behind an unfilled chunk. One channel
//! operation per chunk, not per entry, is what keeps the hand-off cheaper
//! than the work on either side of it. The channel has `buffer /
//! chunk_len` slots, so `buffer` remains a bound in *entries*, and an
//! entry-exact account of what is queued travels with the receiver
//! ([`EntryReceiver::queued`]).

use std::io::{self, BufRead};
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, Receiver, Sender};
use gt_core::prelude::*;

/// Default capacity, in entries, of the channel between reader and emitter.
pub const DEFAULT_BUFFER: usize = 64 * 1024;

/// Most entries handed over in one channel operation.
const MAX_CHUNK: usize = 256;

/// The receiving end of a reader thread: entries in file order, received a
/// chunk at a time.
pub struct EntryReceiver {
    rx: Receiver<Vec<SharedEntry>>,
    queued: Arc<AtomicI64>,
}

impl EntryReceiver {
    /// Blocks for the next chunk of entries (never empty); `None` once the
    /// reader is done and the channel is drained.
    pub fn recv_chunk(&self) -> Option<Vec<SharedEntry>> {
        let chunk = self.rx.recv().ok()?;
        self.queued.fetch_sub(chunk.len() as i64, Ordering::Relaxed);
        Some(chunk)
    }

    /// Entries sitting in the channel right now. (A chunk in the reader's
    /// or the consumer's hand is not queued.) Each end books its chunk
    /// after its channel operation, so to the thread that calls
    /// [`EntryReceiver::recv_chunk`] this never exceeds the `buffer` the
    /// reader was spawned with — it can lag a chunk the reader has sent
    /// but not booked yet.
    pub fn queued(&self) -> usize {
        // A take can be booked before the matching put.
        self.queued.load(Ordering::Relaxed).max(0) as usize
    }

    /// Iterates the entries in file order, blocking like
    /// [`EntryReceiver::recv_chunk`], until the reader is done. The
    /// iterator holds the chunk it is working through: dropping it
    /// mid-chunk drops the rest of that chunk.
    pub fn iter(&self) -> impl Iterator<Item = SharedEntry> + '_ {
        std::iter::from_fn(|| self.recv_chunk()).flatten()
    }
}

/// The reader's end: collects entries and sends them a chunk at a time.
pub(crate) struct ChunkSender {
    tx: Sender<Vec<SharedEntry>>,
    queued: Arc<AtomicI64>,
    chunk: Vec<SharedEntry>,
    chunk_len: usize,
}

/// A reader→emitter channel that holds at most `buffer` entries.
pub(crate) fn entry_channel(buffer: usize) -> (ChunkSender, EntryReceiver) {
    let chunk_len = buffer.clamp(1, MAX_CHUNK);
    let (tx, rx) = bounded((buffer / chunk_len).max(1));
    let queued = Arc::new(AtomicI64::new(0));
    let sender = ChunkSender {
        tx,
        queued: Arc::clone(&queued),
        chunk: Vec::with_capacity(chunk_len),
        chunk_len,
    };
    (sender, EntryReceiver { rx, queued })
}

impl ChunkSender {
    /// Adds one entry, handing the chunk over if that fills it.
    fn push(&mut self, entry: StreamEntry) {
        self.chunk.push(SharedEntry::new(entry));
        if self.chunk.len() == self.chunk_len {
            self.flush();
        }
    }

    /// Hands over whatever has collected. `false` once the receiver is
    /// gone.
    fn flush(&mut self) -> bool {
        if self.chunk.is_empty() {
            return true;
        }
        let len = self.chunk.len() as i64;
        let chunk = std::mem::replace(&mut self.chunk, Vec::with_capacity(self.chunk_len));
        let sent = self.tx.send(chunk).is_ok();
        if sent {
            self.queued.fetch_add(len, Ordering::Relaxed);
        }
        sent
    }
}

/// Spawns a reader thread over a stream file. Entries arrive through the
/// returned receiver as [`SharedEntry`] handles — allocated once on the
/// reader thread, then only `Arc`-cloned along the batched ingest path.
/// The thread ends at EOF, on the first bad line (the entries before it
/// are still delivered; the error is the thread's result), or when the
/// receiver is dropped.
pub fn spawn_file_reader(
    path: impl Into<PathBuf>,
    buffer: usize,
) -> (EntryReceiver, JoinHandle<Result<u64, CoreError>>) {
    let path = path.into();
    let (tx, rx) = entry_channel(buffer);
    let handle = std::thread::Builder::new()
        .name("gt-stream-reader".into())
        .spawn(move || {
            let file = std::fs::File::open(&path)?;
            read_entries(io::BufReader::with_capacity(256 * 1024, file), tx)
        })
        .expect("spawning reader thread");
    (rx, handle)
}

/// The reader body: parses `source` line by line ([`LineReader`]) into
/// `tx` and returns the number of entries parsed. Each time the source's
/// buffer is used up the collected entries are handed over before the
/// next (possibly blocking) read; a hung-up receiver is noticed there.
pub(crate) fn read_entries(source: impl BufRead, mut tx: ChunkSender) -> Result<u64, CoreError> {
    let mut lines = LineReader::new(source);
    let mut entries = 0;
    let result = loop {
        let pumped = lines.pump(|line| {
            if let Some(entry) = line? {
                entries += 1;
                tx.push(entry.to_entry());
            }
            Ok::<_, CoreError>(())
        });
        match pumped {
            Ok(Ok(true)) => {
                if !tx.flush() {
                    break Ok(entries); // the receiver is gone
                }
            }
            Ok(Ok(false)) => break Ok(entries),
            Ok(Err(e)) => break Err(e.into()),
            Err(e) => break Err(e),
        }
    };
    // On an error too: the valid prefix is delivered before it is reported.
    tx.flush();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn reads_all_entries() {
        let path = temp_stream_file("ADD_VERTEX,1,\nADD_VERTEX,2,\nMARKER,end,\n");
        let (rx, handle) = spawn_file_reader(&path, 16);
        let entries: Vec<SharedEntry> = rx.iter().collect();
        assert_eq!(entries.len(), 3);
        assert!(entries[2].is_marker());
        assert_eq!(handle.join().unwrap().unwrap(), 3);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn reports_parse_errors() {
        let path = temp_stream_file("ADD_VERTEX,1,\nGARBAGE\n");
        let (rx, handle) = spawn_file_reader(&path, 16);
        let entries: Vec<SharedEntry> = rx.iter().collect();
        assert_eq!(entries.len(), 1);
        assert!(handle.join().unwrap().is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_errors() {
        let (rx, handle) = spawn_file_reader("/nonexistent/gt-stream.csv", 4);
        assert!(rx.iter().next().is_none());
        assert!(handle.join().unwrap().is_err());
    }

    #[test]
    fn dropping_receiver_stops_reader() {
        let content: String = (0..100_000).map(|i| format!("ADD_VERTEX,{i},\n")).collect();
        let path = temp_stream_file(&content);
        let (rx, handle) = spawn_file_reader(&path, 4);
        // Take a few entries, then hang up.
        let taken: Vec<SharedEntry> = rx.iter().take(5).collect();
        assert_eq!(taken.len(), 5);
        drop(rx);
        // The reader notices the closed channel and exits cleanly.
        assert!(handle.join().unwrap().is_ok());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn lines_cut_by_the_read_buffer_and_odd_endings_parse() {
        // A 16-byte buffer cuts nearly every line; CRLF, a comment, a blank
        // line and a last line without newline ride along.
        let text = "ADD_VERTEX,1,state=one\r\n# note\n\nADD_EDGE,1-2,w\nMARKER,end,";
        let (tx, rx) = entry_channel(4);
        let source = io::BufReader::with_capacity(16, text.as_bytes());
        let reader = std::thread::spawn(move || read_entries(source, tx));
        let got: Vec<StreamEntry> = rx.iter().map(|e| (*e).clone()).collect();
        assert_eq!(reader.join().unwrap().unwrap(), 3);
        let want = GraphStream::parse_csv(text).unwrap();
        assert_eq!(got, want.entries());
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
        let (release, gate) = bounded(0);
        let source = ScriptedSource {
            lines: lines.clone().into_iter(),
            release: gate,
        };
        // Room for a whole 256-entry chunk: only the drained-buffer rule
        // can hand these over one by one.
        let (tx, rx) = entry_channel(DEFAULT_BUFFER);
        let reader = std::thread::spawn(move || read_entries(io::BufReader::new(source), tx));
        // Forwarded through a channel with a timed receive, so that an
        // entry held back fails the test instead of hanging it.
        let (forward, arrivals) = bounded(0);
        let forwarder = std::thread::spawn(move || {
            while let Some(chunk) = rx.recv_chunk() {
                forward.send(chunk).unwrap();
            }
        });
        for line in &lines {
            release.send(()).unwrap();
            // The next line is not released before this one has arrived.
            let chunk = arrivals
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("entry parked behind an unfilled chunk");
            assert_eq!(chunk.len(), 1);
            assert_eq!(gt_core::format::entry_to_line(&chunk[0]) + "\n", *line);
        }
        drop(release); // end of input
        forwarder.join().unwrap();
        assert_eq!(reader.join().unwrap().unwrap(), 20);
    }
}

//! The routing pass: the stream read once and routed, as it is read, to
//! one bounded queue per load client.
//!
//! [`Router::route`] runs on the thread that calls [`crate::run_load`]. It
//! reads entries from a [`LoadSource`] — a stream file through the
//! replayer's own parsing loop
//! ([`gt_replayer::reader::read_file_entries`]), or an in-memory stream
//! entry by entry — and sends each one on: a graph
//! event to the client the [`SeededPartitioner`] assigns it, a marker or
//! control entry to every client. Neither the stream nor its split is
//! ever materialised.
//!
//! * **Bounded.** Entries travel in chunks, and a client's [`FeedQueue`]
//!   holds a fixed number of them. Counting the chunk the router is
//!   filling and the one the client is working through, all queues
//!   together hold at most [`DEFAULT_BUFFER`] entries (64 Ki, 3 MiB of
//!   entries; up to 21 845 clients). A client hands each chunk it has
//!   used up back to the router, so a routed event costs no allocation
//!   once every chunk has been made.
//! * **In order, markers first.** A marker or control entry is pushed to
//!   every queue and then every queue's chunk is handed over, before the
//!   router reads on: the listener's marker barrier waits for each marker
//!   on every connection, so no client may be left without one while the
//!   router waits on another's full queue.
//! * **No hang.** A client that dies drops its queue. The router then
//!   treats that queue as closed — a send to it fails at once, even one
//!   already waiting — and routes nothing more to it. Once every queue is
//!   closed the router stops reading.
//! * **Head-of-line blocking.** The router waits whenever the queue an
//!   entry is for is full, so a slow client can leave the others without
//!   entries. A client counts the time it waited on an empty queue while
//!   an arrival was due ([`crate::ClientReport::feed_stall_micros`]).

use std::mem;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError};
use std::sync::Arc;

use gt_core::prelude::*;
use gt_replayer::reader::{read_file_entries, EntryOut, DEFAULT_BUFFER};

use crate::partition::SeededPartitioner;

/// Most entries in one chunk.
const MAX_CHUNK: usize = 256;

/// Where a load run's stream comes from.
#[derive(Debug, Clone, Copy)]
pub enum LoadSource<'a> {
    /// A stream file, parsed as it is routed.
    File(&'a Path),
    /// An in-memory stream, cloned entry by entry as it is routed.
    Stream(&'a GraphStream),
}

impl<'a> From<&'a GraphStream> for LoadSource<'a> {
    fn from(stream: &'a GraphStream) -> Self {
        LoadSource::Stream(stream)
    }
}

impl<'a> From<&'a Path> for LoadSource<'a> {
    fn from(path: &'a Path) -> Self {
        LoadSource::File(path)
    }
}

/// Chunk length and queue depth, in chunks, for `lanes` queues: per lane,
/// `depth` queued chunks, one being filled and one in the client's hand
/// share [`DEFAULT_BUFFER`] evenly.
fn queue_shape(lanes: usize) -> (usize, usize) {
    let per_lane = DEFAULT_BUFFER / lanes;
    let chunk_len = (per_lane / 4).clamp(1, MAX_CHUNK);
    let depth = (per_lane / chunk_len).saturating_sub(2).max(1);
    (chunk_len, depth)
}

/// The router's end of one client's queue.
struct Lane {
    /// `None` once the client is gone.
    tx: Option<SyncSender<Vec<StreamEntry>>>,
    /// The chunk being filled.
    chunk: Vec<StreamEntry>,
    /// Graph events in `chunk`.
    events: u64,
    /// Graph events handed over so far, shared with the queue.
    handed: Arc<AtomicU64>,
}

/// The routing pass's sending end (see the module docs).
pub struct Router {
    partitioner: SeededPartitioner,
    lanes: Vec<Lane>,
    /// Used-up chunks the clients hand back.
    spent: Receiver<Vec<StreamEntry>>,
    chunk_len: usize,
}

/// One client's end: its entries in stream order, a chunk at a time.
pub struct FeedQueue {
    rx: Receiver<Vec<StreamEntry>>,
    spent: SyncSender<Vec<StreamEntry>>,
    chunk: Vec<StreamEntry>,
    handed: Arc<AtomicU64>,
}

impl Router {
    /// A router over the partitioner's partitions, and one queue per
    /// partition, in partition order.
    pub fn new(partitioner: SeededPartitioner) -> (Router, Vec<FeedQueue>) {
        let lanes = partitioner.partitions();
        let (chunk_len, depth) = queue_shape(lanes);
        // Room for every chunk there can be, so handing one back never
        // blocks.
        let (spent_tx, spent) = mpsc::sync_channel(lanes * (depth + 2));
        let (lanes, queues) = (0..lanes)
            .map(|_| {
                let (tx, rx) = mpsc::sync_channel(depth);
                let handed = Arc::new(AtomicU64::new(0));
                let lane = Lane {
                    tx: Some(tx),
                    chunk: Vec::with_capacity(chunk_len),
                    events: 0,
                    handed: Arc::clone(&handed),
                };
                let queue = FeedQueue {
                    rx,
                    spent: spent_tx.clone(),
                    chunk: Vec::new(),
                    handed,
                };
                (lane, queue)
            })
            .unzip();
        let router = Router {
            partitioner,
            lanes,
            spent,
            chunk_len,
        };
        (router, queues)
    }

    /// Routes every entry of `source`, then closes every queue, and
    /// returns the number of entries read. A bad line ends the pass with
    /// the line-numbered error `GraphStream::read_from_file` gives; every
    /// entry before it has been routed.
    pub fn route(mut self, source: LoadSource<'_>) -> Result<u64, CoreError> {
        match source {
            LoadSource::File(path) => read_file_entries(path, &mut self),
            LoadSource::Stream(stream) => {
                let mut read = 0;
                for entry in stream.entries() {
                    if self.lanes.iter().all(|lane| lane.tx.is_none()) {
                        break;
                    }
                    self.push(entry.clone());
                    read += 1;
                }
                self.flush();
                Ok(read)
            }
        }
    }

    /// Adds `entry` to lane `lane`'s chunk, handing the chunk over if that
    /// fills it.
    fn put(&mut self, lane: usize, entry: StreamEntry) {
        let Lane {
            tx, chunk, events, ..
        } = &mut self.lanes[lane];
        if tx.is_none() {
            return;
        }
        *events += u64::from(entry.is_graph());
        chunk.push(entry);
        if chunk.len() == self.chunk_len {
            self.hand_over(lane);
        }
    }

    /// Sends lane `lane`'s chunk, waiting while its queue is full, and
    /// starts a new one from a chunk handed back (a fresh one only when
    /// none is).
    fn hand_over(&mut self, lane: usize) {
        let Lane {
            tx,
            chunk,
            events,
            handed,
        } = &mut self.lanes[lane];
        let Some(sender) = tx else { return };
        if chunk.is_empty() {
            return;
        }
        let fresh = self
            .spent
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(self.chunk_len));
        // Counted before the send, so a client never holds an event its
        // count does not include.
        handed.fetch_add(mem::take(events), Ordering::Release);
        if sender.send(mem::replace(chunk, fresh)).is_err() {
            // The client is gone: its queue is closed for good.
            *tx = None;
            *chunk = Vec::new();
        }
    }
}

impl EntryOut for Router {
    fn push(&mut self, entry: StreamEntry) {
        if let StreamEntry::Graph(event) = &entry {
            let lane = self.partitioner.owner_of(event);
            return self.put(lane, entry);
        }
        for lane in 0..self.lanes.len() {
            self.put(lane, entry.clone());
        }
        self.flush();
    }

    fn flush(&mut self) -> bool {
        for lane in 0..self.lanes.len() {
            self.hand_over(lane);
        }
        self.lanes.iter().any(|lane| lane.tx.is_some())
    }
}

impl FeedQueue {
    /// The chunk the last [`FeedQueue::refill`] received.
    pub fn chunk(&self) -> &[StreamEntry] {
        &self.chunk
    }

    /// Graph events routed to this queue so far: those received and those
    /// still queued, or about to be.
    pub(crate) fn routed_events(&self) -> u64 {
        self.handed.load(Ordering::Acquire)
    }

    /// Hands the current chunk back and moves to the next one; `false`
    /// once the router is done and the queue is drained. When no chunk is
    /// ready, `before_wait` runs and then the call blocks for one.
    pub fn refill(&mut self, before_wait: impl FnOnce()) -> bool {
        let mut spent = mem::take(&mut self.chunk);
        if spent.capacity() > 0 {
            spent.clear();
            // Fails only once the router is gone; the chunk is freed then.
            let _ = self.spent.try_send(spent);
        }
        let next = match self.rx.try_recv() {
            Ok(chunk) => Ok(chunk),
            Err(TryRecvError::Disconnected) => return false,
            Err(TryRecvError::Empty) => {
                before_wait();
                self.rx.recv()
            }
        };
        match next {
            Ok(chunk) => {
                self.chunk = chunk;
                true
            }
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn stream(n: u64, marker_every: u64) -> GraphStream {
        let mut stream = GraphStream::new();
        for i in 0..n {
            if i % marker_every == 0 {
                stream.push(StreamEntry::marker(format!("m{i}")));
            }
            stream.push(StreamEntry::graph(GraphEvent::AddVertex {
                id: VertexId(i),
                state: State::empty(),
            }));
        }
        stream.push(StreamEntry::Control(ControlEvent::SetSpeed(2.0)));
        stream
    }

    fn drain(mut queue: FeedQueue) -> Vec<StreamEntry> {
        let mut got = Vec::new();
        while queue.refill(|| {}) {
            got.extend_from_slice(queue.chunk());
        }
        got
    }

    /// Every queue's entries, each drained on its own thread.
    fn routed(partitions: usize, source: &GraphStream) -> Vec<Vec<StreamEntry>> {
        let (router, queues) = Router::new(SeededPartitioner::new(partitions, 5));
        let drains: Vec<_> = queues
            .into_iter()
            .map(|queue| thread::spawn(move || drain(queue)))
            .collect();
        assert_eq!(router.route(source.into()).unwrap(), source.len() as u64);
        drains.into_iter().map(|d| d.join().unwrap()).collect()
    }

    #[test]
    fn queues_carry_the_split_in_order() {
        let source = stream(20_000, 1_000);
        for partitions in [1, 3, 64] {
            let want = SeededPartitioner::new(partitions, 5).split(&source);
            let got = routed(partitions, &source);
            assert_eq!(got.len(), partitions);
            for (got, want) in got.iter().zip(&want) {
                assert_eq!(got.as_slice(), want.entries(), "{partitions} queues");
            }
        }
    }

    #[test]
    fn chunks_stay_inside_the_bound() {
        assert_eq!(queue_shape(2), (MAX_CHUNK, 126));
        for lanes in [1, 2, 7, 256, 1_000, 21_845] {
            let (chunk_len, depth) = queue_shape(lanes);
            let chunks = lanes * (depth + 2);
            assert!(
                chunks * chunk_len <= DEFAULT_BUFFER,
                "{lanes} lanes: {chunks} chunks of {chunk_len}"
            );
        }
    }

    #[test]
    fn a_dropped_queue_is_closed_and_never_blocks_the_router() {
        let source = stream(50_000, 1_000);
        let (router, mut queues) = Router::new(SeededPartitioner::new(3, 5));
        // Queue 0 takes one chunk and its client dies; the router must
        // route the rest without waiting on it.
        let mut dead = queues.remove(0);
        let killer = thread::spawn(move || {
            assert!(dead.refill(|| {}));
            drop(dead);
        });
        let drains: Vec<_> = queues
            .into_iter()
            .map(|queue| thread::spawn(move || drain(queue)))
            .collect();
        router.route((&source).into()).unwrap();
        killer.join().unwrap();
        let want = SeededPartitioner::new(3, 5).split(&source);
        for (drain, want) in drains.into_iter().zip(&want[1..]) {
            assert_eq!(drain.join().unwrap().as_slice(), want.entries());
        }
    }

    // The listener's barrier holds a connection at a marker until every
    // connection has reached it. A marker left in the router's hand for
    // one queue, while the router waits on another queue whose client is
    // held at that marker, would hang the run.
    #[test]
    fn a_marker_reaches_every_queue_before_the_router_reads_on() {
        let partitioner = SeededPartitioner::new(2, 5);
        let vertex = |id| {
            StreamEntry::graph(GraphEvent::AddVertex {
                id: VertexId(id),
                state: State::empty(),
            })
        };
        let on_lane = |lane| {
            (0..).find(|&id| {
                let StreamEntry::Graph(event) = vertex(id) else {
                    unreachable!()
                };
                partitioner.owner_of(&event) == lane
            })
        };
        // One event for queue 1, the marker, then far more events for
        // queue 0 than its queue holds.
        let mut source = GraphStream::new();
        source.push(vertex(on_lane(1).unwrap()));
        source.push(StreamEntry::marker("m"));
        let first = on_lane(0).unwrap();
        for _ in 0..DEFAULT_BUFFER {
            source.push(vertex(first));
        }
        let (router, queues) = Router::new(partitioner);
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
        let drains: Vec<_> = queues
            .into_iter()
            .map(|mut queue| {
                let barrier = std::sync::Arc::clone(&barrier);
                thread::spawn(move || {
                    let mut entries = 0;
                    while queue.refill(|| {}) {
                        for entry in queue.chunk() {
                            entries += 1;
                            if entry.is_marker() {
                                barrier.wait();
                            }
                        }
                    }
                    entries
                })
            })
            .collect();
        let (done, routed) = mpsc::channel();
        thread::spawn(move || done.send(router.route((&source).into())));
        let routed = routed
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("the router waits on a queue whose client waits for a marker");
        assert_eq!(routed.unwrap(), DEFAULT_BUFFER as u64 + 2);
        let entries: Vec<u64> = drains.into_iter().map(|d| d.join().unwrap()).collect();
        assert_eq!(entries, [DEFAULT_BUFFER as u64 + 1, 2]);
    }

    #[test]
    fn the_router_stops_once_every_queue_is_closed() {
        let (router, queues) = Router::new(SeededPartitioner::new(2, 5));
        drop(queues);
        // The first entry is a marker: handing it over finds both queues
        // closed.
        let source = stream(10_000, 100);
        assert_eq!(router.route((&source).into()).unwrap(), 1);
    }
}

//! The routing pass: the stream read once and routed, as it is read, to
//! one bounded queue per load client.
//!
//! [`Router::route`] runs on the thread that calls [`crate::run_load`]. It
//! reads a [`StreamSource`] — a stream file or an in-memory stream —
//! through the replayer's one reading function
//! ([`gt_replayer::reader::read_source`]), the one the replay session's
//! reader thread uses, and sends each entry on: a graph
//! event to the client the [`SeededPartitioner`] assigns it, a marker or
//! control entry to every client. Neither the stream nor its split is
//! ever materialised.
//!
//! * **Bounded.** Entries travel in chunks, through the replayer's one
//!   chunk queue ([`gt_replayer::reader::chunk_queue`]), and a client's
//!   [`FeedQueue`] holds a fixed number of them. Counting the chunk the
//!   router is filling and the one the client is working through, all
//!   queues together hold at most [`DEFAULT_BUFFER`] entries (64 Ki,
//!   3 MiB of entries; up to 21 845 clients). A client hands each chunk
//!   it has used up back to the router, so a routed event costs no
//!   allocation once every chunk has been made.
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gt_core::prelude::*;
use gt_replayer::reader::{
    chunk_queue, read_source, ChunkReceiver, ChunkSender, EntryOut, StreamSource, DEFAULT_BUFFER,
    MAX_CHUNK,
};

use crate::partition::SeededPartitioner;

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
    tx: ChunkSender<StreamEntry>,
    /// Graph events in the chunk being filled.
    events: u64,
    /// Graph events handed over so far, shared with the queue.
    handed: Arc<AtomicU64>,
}

impl Lane {
    /// Sends the chunk being filled (see [`ChunkSender::send`]).
    fn hand_over(&mut self) {
        // Counted before the send, so a client never holds an event its
        // count does not include.
        if self.events > 0 {
            self.handed
                .fetch_add(mem::take(&mut self.events), Ordering::Release);
        }
        self.tx.send();
    }
}

/// The routing pass's sending end (see the module docs).
pub struct Router {
    partitioner: SeededPartitioner,
    lanes: Vec<Lane>,
}

/// One client's end: its entries in stream order, a chunk at a time.
pub struct FeedQueue {
    rx: ChunkReceiver<StreamEntry>,
    chunk: Vec<StreamEntry>,
    handed: Arc<AtomicU64>,
}

impl Router {
    /// A router over the partitioner's partitions, and one queue per
    /// partition, in partition order.
    pub fn new(partitioner: SeededPartitioner) -> (Router, Vec<FeedQueue>) {
        let (chunk_len, depth) = queue_shape(partitioner.partitions());
        let (lanes, queues) = (0..partitioner.partitions())
            .map(|_| {
                let (tx, rx) = chunk_queue(chunk_len, depth);
                let handed = Arc::new(AtomicU64::new(0));
                let lane = Lane {
                    tx,
                    events: 0,
                    handed: Arc::clone(&handed),
                };
                let queue = FeedQueue {
                    rx,
                    chunk: Vec::new(),
                    handed,
                };
                (lane, queue)
            })
            .unzip();
        (Router { partitioner, lanes }, queues)
    }

    /// Routes every entry of `source`, then closes every queue, and
    /// returns the number of entries read. A bad line ends the pass with
    /// the line-numbered error `GraphStream::read_from_file` gives; every
    /// entry before it has been routed.
    pub fn route(self, source: StreamSource<'_>) -> Result<u64, CoreError> {
        read_source(source, self)
    }

    /// Whether any client still takes entries.
    fn is_open(&self) -> bool {
        self.lanes.iter().any(|lane| lane.tx.is_open())
    }

    /// Adds `entry` to lane `lane`'s chunk, handing the chunk over if that
    /// fills it.
    fn put(&mut self, lane: usize, entry: StreamEntry) {
        let lane = &mut self.lanes[lane];
        lane.events += u64::from(entry.is_graph());
        if lane.tx.put(entry) {
            lane.hand_over();
        }
    }
}

impl EntryOut for Router {
    fn push(&mut self, entry: StreamEntry) -> bool {
        if let StreamEntry::Graph(event) = &entry {
            let lane = self.partitioner.owner_of(event);
            self.put(lane, entry);
            return self.is_open();
        }
        for lane in 0..self.lanes.len() {
            self.put(lane, entry.clone());
        }
        self.flush()
    }

    fn flush(&mut self) -> bool {
        self.lanes.iter_mut().for_each(Lane::hand_over);
        self.is_open()
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
        let spent = mem::take(&mut self.chunk);
        let next = self.rx.recv(spent, before_wait);
        next.map(|chunk| self.chunk = chunk).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
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

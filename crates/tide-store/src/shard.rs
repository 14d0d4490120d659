//! The shard side of the store: one queue per shard, the shard threads,
//! their supervisor, the state both sequencers share, and the final
//! statistics read off the shards.
//!
//! The timestamper and the router differ only in *who sequences*; what
//! happens to a sequenced event is the same — it travels, with the rest of
//! its transaction's share for that shard, as one `ShardMsg::Batch`, and
//! is applied to the shard's [`PartitionState`], exactly: the
//! sequencer has already decided what the shard cannot see (whether an
//! edge's endpoints are live, which foreign vertices were removed). Each
//! shard's queue is `gt_core`'s one [`Queue`]: a slot holds a batch, not
//! an event, so each push is weighted by the batch's *events*, and the
//! queue's item-exact account is what `quiesce` and a crash's loss count
//! read. Purges and markers are control traffic outside that account. The
//! queue's pool carries each emptied batch back to the routing thread
//! that allocated it. The timestamper's ingestion queue is the same type:
//! transactions weighted 1, its pool carrying each routed transaction's
//! emptied event buffer back to the clients.
//!
//! The shards are one `gt_core` [`WorkerSet`], which crashes, restarts
//! and stops them as it does `tide-graph`'s workers (DESIGN.md §9,
//! "One worker set"). What is the store's own: each slot's log keeps the
//! batches posted to it and a `Cut` for each marker, and a restart holds
//! the routing lock.
//!
//! No shard keeps a record per event: at shutdown each one hands over its
//! state, its event and dangling counts, and (only when windows are
//! recorded) its adjacency at each marker; the router's shards also hand
//! over the commit timestamps they applied (`per_shard_seqs`).

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gt_core::hash::shard_of;
use gt_core::prelude::*;
use gt_core::queue::{Consumer, Queue};
use gt_core::sync::{lock, read};
use gt_core::workers::{abandon, Run, Slots, WorkerSet};
use gt_metrics::hub::{Counter, MicrosCounter};
use gt_metrics::MetricsHub;
use gt_sut::{busy_work, Adjacency, WindowDigest, WorkerSupervisor};
use gt_trace::{Probe, Stage, TracerCell};

use crate::partition::{PartitionState, ShardedGraph};
use crate::store::{ClientMsg, Router, StoreConfig, StoreStats};

/// `(commit timestamp, entry)` pairs in commit order: the payload of one
/// queue message, which a shard's log keeps whole in supervised mode. An
/// entry is one of the shard's events to apply; `None` for one of its
/// `AddEdge`s whose destination was not live at that timestamp (counted,
/// not applied); or, to a shard that does not own it, a `RemoveVertex` of a
/// live vertex — a *purge*, which drops the edges into that vertex held
/// there and is not one of the shard's events.
pub(crate) type Batch = Vec<(u64, Option<GraphEvent>)>;

/// Whether `event`, on `shard`'s queue, is a purge rather than one of the
/// shard's events (see [`Batch`]).
fn is_purge(event: &GraphEvent, shard: usize, shards: usize) -> bool {
    matches!(event, GraphEvent::RemoveVertex { .. }) && shard_of(event.home(), shards) != shard
}

/// A shard's queue: batches weighted by their events, emptied batches
/// going back to the router.
pub(crate) type Route = Queue<ShardMsg, Batch>;

/// The timestamper's ingestion queue: transactions weighted 1, emptied
/// event buffers going back to the clients.
pub(crate) type Ingest = Queue<ClientMsg, Vec<GraphEvent>>;

/// Work delivered to a shard's queue.
#[derive(Clone)]
pub(crate) enum ShardMsg {
    /// One transaction's share for this shard, timestamps assigned.
    Batch(Batch),
    /// A broadcast watermark. The name is interned: the per-shard fan-out
    /// bumps a refcount instead of cloning a `String` per queue.
    Marker(Arc<str>),
    /// A marker cut a restart replays: the window is dumped again (when
    /// windows are recorded), but no sighting is booked.
    Cut,
    /// A simulated shard kill: discard state and exit immediately, as if
    /// the process died. Queued like any message, so the crash lands at a
    /// deterministic position in the shard's message stream.
    Crash,
}

/// The store's counters on its hub: `store.tx` / `store.events`
/// (committed), `store.marker_skips`, and the fault/recovery counters
/// `store.crashes`, `store.restarts`, `store.events_lost`,
/// `store.events_discarded`, `store.events_replayed`.
#[derive(Clone)]
pub(crate) struct Counters {
    pub(crate) tx: Counter,
    pub(crate) events: Counter,
    pub(crate) marker_skips: Counter,
    pub(crate) crashes: Counter,
    pub(crate) restarts: Counter,
    pub(crate) events_lost: Counter,
    pub(crate) events_discarded: Counter,
    pub(crate) events_replayed: Counter,
}

/// What a shard that stopped (rather than crashed) leaves behind.
#[derive(Default)]
pub(crate) struct ShardEnd {
    slot: usize,
    state: PartitionState,
    /// Its adjacency at each marker cut, in sequencing order — only when
    /// windows are recorded.
    windows: Vec<Adjacency>,
    /// Events applied or counted dangling.
    events: u64,
    dangling: u64,
    /// Commit timestamps in apply order — behind the router only.
    seqs: Vec<u64>,
}

/// The running shards and everything needed to sequence into, kill and
/// resurrect them; shared by the store handle, its clients, its
/// timestamper and its supervisor, never by a shard.
pub(crate) struct ShardPool {
    /// The sequencer's state. Routing a transaction, marking and a
    /// restart each hold it throughout, so they never interleave: every
    /// shard applies in commit order, and a marker reaches each shard
    /// behind exactly the events below its cut. (A crash's loss count
    /// needs no lock: its queue books a post only while open.) Taken
    /// before the slot table's lock, never after it.
    pub(crate) router: Mutex<Router>,
    /// The shards. Their slot table is write-locked only while a restart
    /// swaps a queue, holding the router lock too; the sequencers read it
    /// under the router lock, `quiesce` and `finish` without it.
    pub(crate) shards: WorkerSet<ShardMsg, Batch, ShardEnd>,
    /// The timestamper's ingestion queue; `None` behind the router, which
    /// has no ingestion stage.
    pub(crate) ingest: Option<Arc<Ingest>>,
    pub(crate) config: StoreConfig,
    /// Whether shards dump their adjacency at each marker.
    pub(crate) windows: Arc<AtomicBool>,
    hub: MetricsHub,
    pub(crate) tracer_cell: TracerCell,
    pub(crate) counters: Counters,
}

/// How often [`ShardPool::quiesce`] re-reads the accounts: fine enough not
/// to quantise a sub-second measurement window.
const QUIESCE_POLL: Duration = Duration::from_micros(50);

impl ShardPool {
    /// Starts `config.shards` shard threads behind bounded queues, behind
    /// the router if `routed`, else behind the timestamper's ingestion
    /// queue. Registers `shard-N.busy_micros`, `shard-N.events` and the
    /// [`Counters`] on `hub`.
    pub(crate) fn start(config: StoreConfig, routed: bool, hub: &MetricsHub) -> Arc<Self> {
        assert!(config.shards >= 1, "at least one shard required");
        assert!(config.queue_capacity > 0, "queue capacity must be > 0");
        // A queue's pool has room for every buffer the queue can hold and
        // the one being emptied.
        let capacity = config.queue_capacity;
        let queue = move || Queue::new(capacity, capacity + 1);
        let pool = Arc::new(ShardPool {
            router: Mutex::new(Router::new(config.shards)),
            shards: WorkerSet::new("tide-store-shard", config.shards, queue, config.supervised),
            ingest: (!routed).then(|| Arc::new(Queue::new(capacity, capacity + 1))),
            config,
            windows: Arc::new(AtomicBool::new(false)),
            hub: hub.clone(),
            tracer_cell: TracerCell::new(),
            counters: Counters {
                tx: hub.counter("store.tx"),
                events: hub.counter("store.events"),
                marker_skips: hub.counter("store.marker_skips"),
                crashes: hub.counter("store.crashes"),
                restarts: hub.counter("store.restarts"),
                events_lost: hub.counter("store.events_lost"),
                events_discarded: hub.counter("store.events_discarded"),
                events_replayed: hub.counter("store.events_replayed"),
            },
        });
        pool.shards.start(|slot| pool.shard(slot));
        pool
    }

    /// What the thread of a slot's (re)spawned shard runs. Its two
    /// counters are looked up by name here, before the thread runs: a
    /// sampler started after the store lists them from its first sample,
    /// and a restarted shard keeps accumulating on the same series.
    fn shard(&self, slot: usize) -> Run<ShardMsg, Batch, ShardEnd> {
        let shard = Shard {
            slot,
            routed: self.ingest.is_none(),
            config: self.config.clone(),
            slots: Arc::clone(&self.shards.slots),
            windows: Arc::clone(&self.windows),
            tracer_cell: self.tracer_cell.clone(),
            counters: self.counters.clone(),
            busy: MicrosCounter::new(self.hub.counter(&format!("shard-{slot}.busy_micros"))),
            applied: self.hub.counter(&format!("shard-{slot}.events")),
        };
        Box::new(move |queue| shard.run(queue))
    }

    /// Logs `part` in supervised mode and sends it, weighted by its
    /// events, to `shard`'s `queue`, leaving in `part` the emptied batch
    /// the shard handed back last (or an empty one). Blocks while the
    /// queue is full — the backpressure that reaches clients through the
    /// sequencer — and fails fast on a dead shard. Returns the batch's
    /// event count, `Err` if it was not delivered.
    pub(crate) fn post(&self, queue: &Route, shard: usize, part: &mut Batch) -> Result<u64, u64> {
        let shards = self.config.shards;
        let purges = (part.iter().flat_map(|(_, entry)| entry))
            .filter(|event| is_purge(event, shard, shards));
        let events = (part.len() - purges.count()) as u64;
        let batch = || ShardMsg::Batch(part.clone());
        self.shards.log(shard, events, batch);
        match queue.exchange(ShardMsg::Batch(std::mem::take(part)), events) {
            Ok(spare) => {
                *part = spare.unwrap_or_default();
                Ok(events)
            }
            Err(_) => Err(events),
        }
    }

    /// Blocks until no transaction waits for the timestamper and every
    /// shard has applied every event enqueued to it, or the timeout
    /// elapses. A crashed shard's backlog is written off as lost when it
    /// dies, so it does not hold the wait; a shard that panicked does.
    ///
    /// A poll reads the queues without the router lock, so it never waits
    /// behind a sequencer that is blocked on a full shard queue.
    pub(crate) fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            // Ingestion first: once it is idle every share of every
            // submitted transaction is on a shard's account.
            let ingested = (self.ingest.as_ref()).is_none_or(|queue| queue.backlog() == 0);
            let idle = |queue: &Arc<Route>| queue.backlog() == 0;
            if ingested && read(&self.shards.slots.queues).iter().all(idle) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(QUIESCE_POLL);
        }
    }

    /// Stops all shards behind their backlogs and reads the final
    /// statistics off what they left behind: their states joined into the
    /// graph, their counts summed, their window dumps united per marker. A
    /// crashed shard leaves nothing, and one that *panicked* is counted as
    /// a crash instead of poisoning the run. A slot whose shard died for
    /// good contributes nothing, and an edge into one of its vertices is
    /// dropped and counted dangling (see [`ShardedGraph`]).
    pub(crate) fn finish(&self) -> StoreStats {
        let (ends, panicked) = self.shards.shutdown();
        self.counters.crashes.add(panicked);
        let shards = self.config.shards;
        let mut parts: Vec<PartitionState> = (0..shards).map(|_| PartitionState::new()).collect();
        let mut per_shard_seqs = vec![Vec::new(); shards];
        let mut dumps = Vec::with_capacity(shards);
        let (mut events, mut dangling) = (0, 0);
        for end in ends {
            events += end.events;
            dangling += end.dangling;
            parts[end.slot] = end.state;
            per_shard_seqs[end.slot] = end.seqs;
            dumps.push(end.windows.into_iter());
        }
        let markers = std::mem::take(&mut lock(&self.router).cuts);
        let windows = match self.windows.load(Ordering::SeqCst) {
            true => (markers.iter())
                .map(|(marker, _)| WindowDigest {
                    marker: marker.clone(),
                    adjacency: union(dumps.iter_mut().filter_map(Iterator::next)),
                })
                .collect(),
            false => Vec::new(),
        };
        let (graph, dropped) = ShardedGraph::join(parts);
        StoreStats {
            transactions: self.counters.tx.get(),
            events,
            graph,
            dangling_edges_dropped: dangling + dropped,
            crashes: self.counters.crashes.get(),
            restarts: self.counters.restarts.get(),
            events_lost: self.counters.events_lost.get(),
            events_discarded: self.counters.events_discarded.get(),
            events_replayed: self.counters.events_replayed.get(),
            markers,
            windows,
            per_shard_seqs,
            shard_markers: lock(&self.shards.slots.sightings)
                .iter()
                .map(|(name, shard, _)| (name.to_string(), *shard))
                .collect(),
            marker_skips: self.counters.marker_skips.get(),
        }
    }
}

/// One shard thread's share of the pool. It holds the slot table, not the
/// pool: a store dropped without a shutdown drops its pool, whose worker
/// set then closes the shards' queues.
struct Shard {
    slot: usize,
    /// Behind the router (no ingestion queue) the shard pays the ordering
    /// cost per received batch and records the commit timestamps it
    /// applies.
    routed: bool,
    config: StoreConfig,
    slots: Arc<Slots<ShardMsg, Batch>>,
    windows: Arc<AtomicBool>,
    tracer_cell: TracerCell,
    counters: Counters,
    busy: MicrosCounter,
    applied: Counter,
}

impl Shard {
    /// Runs the shard until its queue is finished and drained (returns
    /// what it built) or `Crash` (returns nothing — the state dies with
    /// it).
    ///
    /// A batch applies in order: the shard pays the simulated costs,
    /// applies, counts or purges each entry, and stamps each event at
    /// [`Stage::EngineApply`] with its commit timestamp — the event's
    /// global stream position, carried explicitly because shards apply out
    /// of order. The clock is read only when there is simulated work to
    /// account for.
    fn run(self, queue: Consumer<ShardMsg, Batch>) -> Option<ShardEnd> {
        let mut end = ShardEnd {
            slot: self.slot,
            ..ShardEnd::default()
        };
        let batch_cost = match self.routed {
            true => self.config.timestamper_cost_per_tx,
            false => Duration::ZERO,
        };
        let event_cost = self.config.shard_cost_per_event;
        let shards = self.config.shards;
        let costed = !(batch_cost.is_zero() && event_cost.is_zero());
        // Lazily acquired: the thread outlives tracer installation, so it
        // polls the pool's cell (one atomic load per batch while empty).
        let mut trace_probe: Option<Probe> = None;
        // The batch last emptied, handed back with the next take.
        let mut spent = None;
        while let Some(msg) = queue.take(spent.take(), || true) {
            match msg {
                ShardMsg::Batch(mut batch) => {
                    let started = costed.then(Instant::now);
                    busy_work(batch_cost);
                    if trace_probe.is_none() {
                        trace_probe = self.tracer_cell.probe(Stage::EngineApply);
                    }
                    let mut events = 0;
                    for (ts, entry) in batch.drain(..) {
                        match entry {
                            // Another shard's removal: drop the edges into
                            // its vertex held here.
                            Some(event) if is_purge(&event, self.slot, shards) => {
                                end.state.apply(&event);
                                continue;
                            }
                            Some(event) => {
                                busy_work(event_cost);
                                end.dangling += u64::from(!end.state.apply(&event));
                            }
                            None => {
                                busy_work(event_cost);
                                end.dangling += 1;
                            }
                        }
                        events += 1;
                        if self.routed {
                            end.seqs.push(ts);
                        }
                        if let Some(probe) = &trace_probe {
                            probe.stamp_seq(ts);
                        }
                    }
                    spent = Some(batch);
                    end.events += events;
                    self.applied.add(events);
                    if let Some(started) = started {
                        self.busy.add(started.elapsed());
                    }
                    queue.done(events);
                }
                ShardMsg::Marker(name) => {
                    let (_, position) = queue.account();
                    lock(&self.slots.sightings).push((name, self.slot, position));
                    self.dump(&mut end);
                }
                ShardMsg::Cut => self.dump(&mut end),
                ShardMsg::Crash => {
                    // Die like a killed process: the backlog behind the
                    // crash is written off as lost, so `quiesce` does not
                    // wait for it, and every later post fails and is
                    // counted lost by its sender. The applied events die
                    // with the state and are counted discarded.
                    self.counters.events_lost.add(abandon(&queue, 0));
                    self.counters.events_discarded.add(end.events);
                    self.counters.crashes.inc();
                    return None;
                }
            }
        }
        Some(end)
    }

    /// Takes the shard's window dump at a marker cut, if windows are
    /// recorded.
    fn dump(&self, end: &mut ShardEnd) {
        if self.windows.load(Ordering::SeqCst) {
            end.windows.push(end.state.adjacency());
        }
    }
}

/// One window's adjacency from the shards' dumps at its cut, in canonical
/// order. As in the final graph, an edge into a vertex no dump holds (a
/// dead shard's) is dropped.
fn union(dumps: impl Iterator<Item = Adjacency>) -> Adjacency {
    let mut adjacency: Adjacency = dumps.flatten().collect();
    let held: HashSet<u64> = adjacency.iter().map(|(v, _)| *v).collect();
    for (_, out) in &mut adjacency {
        out.retain(|(dst, _)| held.contains(dst));
    }
    adjacency.sort_unstable_by_key(|(v, _)| *v);
    adjacency
}

/// The store's [`WorkerSupervisor`]: kills and resurrects individual
/// shards behind either sequencer. Obtained from `supervisor()` on the
/// store.
impl WorkerSupervisor for ShardPool {
    /// Enqueues a crash on the shard's queue, behind every transaction
    /// routed so far; the shard then discards its state and exits. Like a
    /// marker, the crash is control traffic outside the event account.
    fn inject_crash(&self, worker: usize) -> bool {
        let _routing = lock(&self.router);
        self.shards.inject(worker, ShardMsg::Crash, 0)
    }

    /// Restarts a crashed shard (supervised mode only), with routing
    /// locked out: the fresh shard's queue replays every batch and marker
    /// cut posted to the slot, so its state and its window dumps are
    /// rebuilt.
    fn restart_worker(&self, worker: usize) -> bool {
        let (exclude, events) = (|| lock(&self.router), |_: &ShardMsg, events| events);
        let restart = (self.shards).restart(worker, exclude, |slot| self.shard(slot), events);
        let Some(replayed) = restart else {
            return false;
        };
        self.counters.restarts.inc();
        self.counters.events_replayed.add(replayed);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A message is the hop's per-slot cost: moving the queue onto
    /// `gt_core::queue` adds no byte to it (24 before the move).
    #[test]
    fn a_shard_message_is_three_words() {
        assert!(std::mem::size_of::<ShardMsg>() <= 24);
    }
}

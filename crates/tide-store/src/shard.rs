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
//! emptied event buffer back to the clients. A shutdown finishes every
//! queue (each shard stops behind its backlog); a crash closes its
//! shard's.
//!
//! No shard keeps a record per event: at shutdown each one hands over its
//! state, its event and dangling counts, and (only when windows are
//! recorded) its adjacency at each marker; the router's shards also hand
//! over the commit timestamps they applied (`per_shard_seqs`).

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gt_core::hash::shard_of;
use gt_core::prelude::*;
use gt_core::queue::{Consumer, Queue};
use gt_core::sync::{lock, read, write};
use gt_metrics::hub::{Counter, MicrosCounter};
use gt_metrics::MetricsHub;
use gt_sut::{busy_work, Adjacency, WindowDigest, WorkerSupervisor};
use gt_trace::{Probe, Stage, TracerCell};

use crate::partition::{PartitionState, ShardedGraph};
use crate::store::{ClientMsg, Router, StoreConfig, StoreStats};

/// `(commit timestamp, entry)` pairs in commit order: the payload of one
/// queue message, and a shard's retained share in supervised mode. An
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
pub(crate) type Route = Arc<Queue<ShardMsg, Batch>>;

/// The timestamper's ingestion queue: transactions weighted 1, emptied
/// event buffers going back to the clients.
pub(crate) type Ingest = Queue<ClientMsg, Vec<GraphEvent>>;

/// A fresh shard or ingestion queue of `queue_capacity` messages. Its
/// pool has room for every buffer the queue can hold and the one being
/// emptied.
fn bounded<M, B>(config: &StoreConfig) -> Arc<Queue<M, B>> {
    Arc::new(Queue::new(config.queue_capacity, config.queue_capacity + 1))
}

/// Work delivered to a shard's queue.
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
/// timestamper and its supervisor.
pub(crate) struct ShardPool {
    /// The sequencer's state. Routing a transaction, marking and a
    /// restart each hold it throughout, so they never interleave: every
    /// shard applies in commit order, and a marker reaches each shard
    /// behind exactly the events below its cut. (A crash's loss count
    /// needs no lock: its queue books a post only while open.)
    pub(crate) router: Mutex<Router>,
    /// Every slot's current queue. A restart swaps one, holding the
    /// router lock too; the sequencers read them under the router lock,
    /// `quiesce` and `finish` without it.
    pub(crate) routes: RwLock<Vec<Route>>,
    /// The timestamper's ingestion queue; `None` behind the router, which
    /// has no ingestion stage.
    pub(crate) ingest: Option<Arc<Ingest>>,
    handles: Mutex<Vec<JoinHandle<Option<ShardEnd>>>>,
    /// Marker sightings `(interned name, shard, events the shard had
    /// applied)` in processing order.
    pub(crate) shard_markers: Mutex<Vec<(Arc<str>, usize, u64)>>,
    pub(crate) config: StoreConfig,
    /// Whether shards dump their adjacency at each marker.
    windows: AtomicBool,
    hub: MetricsHub,
    pub(crate) tracer_cell: TracerCell,
    /// Set by shutdown; blocks further restarts, crashes and routed
    /// traffic.
    pub(crate) stopping: AtomicBool,
    pub(crate) counters: Counters,
}

/// How often [`ShardPool::quiesce`] re-reads the accounts: fine enough not
/// to quantise a sub-second measurement window.
const QUIESCE_POLL: Duration = Duration::from_micros(50);

/// Entries per queue message when a restart replays the retained ones.
const REPLAY_BATCH: usize = 64;

impl ShardPool {
    /// Starts `config.shards` shard threads behind bounded queues, behind
    /// the router if `routed`, else behind the timestamper's ingestion
    /// queue. Registers `shard-N.busy_micros`, `shard-N.events` and the
    /// [`Counters`] on `hub`.
    pub(crate) fn start(config: StoreConfig, routed: bool, hub: &MetricsHub) -> Arc<Self> {
        assert!(config.shards >= 1, "at least one shard required");
        assert!(config.queue_capacity > 0, "queue capacity must be > 0");
        let routes: Vec<Route> = (0..config.shards).map(|_| bounded(&config)).collect();
        let pool = Arc::new(ShardPool {
            router: Mutex::new(Router::new(config.shards)),
            routes: RwLock::new(routes.clone()),
            ingest: (!routed).then(|| bounded(&config)),
            handles: Mutex::new(Vec::with_capacity(config.shards)),
            shard_markers: Mutex::new(Vec::new()),
            config,
            windows: AtomicBool::new(false),
            hub: hub.clone(),
            tracer_cell: TracerCell::new(),
            stopping: AtomicBool::new(false),
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
        let handles = routes
            .into_iter()
            .enumerate()
            .map(|(shard_id, route)| pool.spawn_shard(shard_id, route))
            .collect();
        *lock(&pool.handles) = handles;
        pool
    }

    /// Spawns (or respawns) the shard for a slot, as the consumer of its
    /// fresh queue. Its two counters are looked up by name
    /// here, before the thread runs: a sampler started after the store
    /// lists them from its first sample, and a restarted shard keeps
    /// accumulating on the same series.
    fn spawn_shard(
        self: &Arc<Self>,
        shard_id: usize,
        route: Route,
    ) -> JoinHandle<Option<ShardEnd>> {
        let pool = Arc::clone(self);
        let busy = MicrosCounter::new(self.hub.counter(&format!("shard-{shard_id}.busy_micros")));
        let applied = self.hub.counter(&format!("shard-{shard_id}.events"));
        std::thread::Builder::new()
            .name(format!("tide-store-shard-{shard_id}"))
            .spawn(move || pool.run_shard(shard_id, Consumer(route), busy, applied))
            .expect("spawn shard")
    }

    /// Makes every shard dump its adjacency at each marker from now on,
    /// for [`StoreStats::windows`].
    pub(crate) fn record_windows(&self) {
        self.windows.store(true, Ordering::SeqCst);
    }

    /// Sends `part`, weighted by its events, to `shard`'s queue, and
    /// leaves in `part` the emptied batch the shard handed back last (or
    /// an empty one). Blocks while the shard's queue is full — the
    /// backpressure that reaches clients through the sequencer — and fails
    /// fast on a dead shard. Returns the batch's event count, `Err` if it
    /// was not delivered.
    pub(crate) fn post(&self, route: &Route, shard: usize, part: &mut Batch) -> Result<u64, u64> {
        let shards = self.config.shards;
        let purges = (part.iter().flat_map(|(_, entry)| entry))
            .filter(|event| is_purge(event, shard, shards));
        let events = (part.len() - purges.count()) as u64;
        match route.exchange(ShardMsg::Batch(std::mem::take(part)), events) {
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
            if ingested && read(&self.routes).iter().all(|route| route.backlog() == 0) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(QUIESCE_POLL);
        }
    }

    /// Stops all shards behind their backlogs, joins them tolerantly, and
    /// reads the final statistics off what they left behind: their states
    /// joined into the graph, their counts summed, their window dumps
    /// united per marker. A crashed shard leaves nothing (a restarted slot
    /// joins twice, dead thread first), and a shard that *panicked* is
    /// contained and counted as a crash instead of poisoning the run. A
    /// slot whose shard died for good contributes nothing, and an edge
    /// into one of its vertices is dropped and counted dangling (see
    /// [`ShardedGraph`]).
    pub(crate) fn finish(&self) -> StoreStats {
        read(&self.routes).iter().for_each(|route| route.finish());
        let shards = self.config.shards;
        let mut parts: Vec<PartitionState> = (0..shards).map(|_| PartitionState::new()).collect();
        let mut per_shard_seqs = vec![Vec::new(); shards];
        let mut dumps = Vec::with_capacity(shards);
        let (mut events, mut dangling) = (0, 0);
        let handles = std::mem::take(&mut *lock(&self.handles));
        for handle in handles {
            let end = match handle.join() {
                Ok(Some(end)) => end,
                Ok(None) => continue,
                Err(_) => {
                    self.counters.crashes.inc();
                    continue;
                }
            };
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
        let shard_markers = lock(&self.shard_markers);
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
            shard_markers: shard_markers
                .iter()
                .map(|(name, shard, _)| (name.to_string(), *shard))
                .collect(),
            marker_skips: self.counters.marker_skips.get(),
        }
    }

    /// Runs one shard until its queue is finished and drained (returns
    /// what it built) or `Crash` (returns nothing — the state dies with
    /// it).
    ///
    /// A batch applies in order: the shard pays the simulated costs,
    /// applies, counts or purges each entry, and stamps each event at
    /// [`Stage::EngineApply`] with its commit timestamp — the event's
    /// global stream position, carried explicitly because shards apply out
    /// of order. The clock is read only when there is simulated work to
    /// account for.
    fn run_shard(
        &self,
        shard_id: usize,
        queue: Consumer<ShardMsg, Batch>,
        busy: MicrosCounter,
        applied: Counter,
    ) -> Option<ShardEnd> {
        let mut end = ShardEnd {
            slot: shard_id,
            state: PartitionState::new(),
            windows: Vec::new(),
            events: 0,
            dangling: 0,
            seqs: Vec::new(),
        };
        // Behind the router (no ingestion queue) the shard pays the ordering
        // cost per received batch and records the commit timestamps it
        // applies.
        let routed = self.ingest.is_none();
        let batch_cost = match routed {
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
                            Some(event) if is_purge(&event, shard_id, shards) => {
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
                        if routed {
                            end.seqs.push(ts);
                        }
                        if let Some(probe) = &trace_probe {
                            probe.stamp_seq(ts);
                        }
                    }
                    spent = Some(batch);
                    end.events += events;
                    applied.add(events);
                    if let Some(started) = started {
                        busy.add(started.elapsed());
                    }
                    queue.done(events);
                }
                ShardMsg::Marker(name) => {
                    let (_, position) = queue.account();
                    lock(&self.shard_markers).push((name, shard_id, position));
                    self.dump(&mut end);
                }
                ShardMsg::Cut => self.dump(&mut end),
                ShardMsg::Crash => {
                    // Die like a killed process: state abandoned, queued
                    // messages dropped with the closed queue, so a
                    // sequencer waiting on it fails out. A post is booked
                    // only while the queue is open, so after `close` what
                    // is enqueued but unapplied is exactly the abandoned
                    // backlog — written off as lost, so `quiesce` does not
                    // wait for it — and every later post fails and is
                    // counted lost by its sender. The applied events die
                    // with the state and are counted discarded. The closed
                    // queue tells routers (and a waiting supervisor) that
                    // this partition is vacant.
                    queue.close();
                    let abandoned = queue.backlog();
                    queue.done(abandoned);
                    self.counters.events_lost.add(abandoned);
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
pub(crate) struct StoreSupervisor(pub(crate) Arc<ShardPool>);

impl WorkerSupervisor for StoreSupervisor {
    fn worker_count(&self) -> usize {
        self.0.config.shards
    }

    /// Enqueues a crash on the shard's queue. The kill lands behind the
    /// shard's current backlog — a deterministic position in its message
    /// stream — and the shard then discards its state and exits.
    fn inject_crash(&self, worker: usize) -> bool {
        let pool = &self.0;
        if worker >= pool.config.shards || pool.stopping.load(Ordering::SeqCst) {
            return false;
        }
        let _routing = lock(&pool.router);
        read(&pool.routes)[worker].push(ShardMsg::Crash, 0).is_ok()
    }

    /// Restarts a crashed shard (supervised mode only): waits briefly for
    /// the crash to land, then — with routing locked out — spawns a fresh
    /// shard and replays into its new queue, in commit order, every entry
    /// retained for it with the marker cuts in between, so its state and
    /// its window dumps are rebuilt.
    fn restart_worker(&self, worker: usize) -> bool {
        let pool = &self.0;
        let config = &pool.config;
        if worker >= config.shards || !config.supervised {
            return false;
        }
        // The crash message travels through the shard's backlog; give it
        // time to land before declaring the restart impossible.
        let deadline = Instant::now() + Duration::from_secs(5);
        while read(&pool.routes)[worker].is_open() {
            if Instant::now() > deadline || pool.stopping.load(Ordering::SeqCst) {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }

        let router = lock(&pool.router);
        if pool.stopping.load(Ordering::SeqCst) {
            return false;
        }
        // A fresh queue starts a fresh account: what the dead shard left
        // unapplied was written off when it died. Spawn first so the
        // bounded queue drains while replay fills it.
        let route = bounded(config);
        let handle = pool.spawn_shard(worker, Arc::clone(&route));
        write(&pool.routes)[worker] = Arc::clone(&route);
        let mut cuts = router.cuts.iter().map(|&(_, cut)| cut).peekable();
        let (mut batch, mut replayed) = (Batch::with_capacity(REPLAY_BATCH), 0);
        let mut flush = |batch: &mut Batch| {
            if !batch.is_empty() {
                let posted = pool.post(&route, worker, batch);
                replayed += posted.unwrap_or_else(|lost| lost);
            }
        };
        for (ts, entry) in &router.retained[worker] {
            while cuts.next_if(|&cut| cut <= *ts).is_some() {
                flush(&mut batch);
                let _ = route.push(ShardMsg::Cut, 0);
            }
            batch.push((*ts, entry.clone()));
            if batch.len() == REPLAY_BATCH {
                flush(&mut batch);
            }
        }
        flush(&mut batch);
        for _ in cuts {
            let _ = route.push(ShardMsg::Cut, 0);
        }
        lock(&pool.handles).push(handle);
        pool.counters.restarts.inc();
        pool.counters.events_replayed.add(replayed);
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

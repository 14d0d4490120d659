//! The shard side of the store: the queue fabric with its per-slot event
//! account, the shard threads, their supervisor, the state both
//! sequencers share, and the final statistics read off the shards.
//!
//! The timestamper and the router differ only in *who sequences*; what
//! happens to a sequenced event is the same — it travels, with the rest of
//! its transaction's share for that shard, as one `ShardMsg::Batch`, and
//! is applied to the shard's [`PartitionState`], exactly: the
//! sequencer has already decided what the shard cannot see (whether an
//! edge's endpoints are live, which foreign vertices were removed). A
//! queue slot therefore holds a batch, not an event, and the channel's
//! length says nothing about events: each slot keeps an item-exact
//! `enqueued`/`applied` pair of *events* from which `quiesce` and a
//! crash's loss count are derived. Purges and markers are control traffic
//! outside that account.
//!
//! No shard keeps a record per event: at shutdown each one hands over its
//! state, its event and dangling counts, and (only when windows are
//! recorded) its adjacency at each marker; the router's shards also hand
//! over the commit timestamps they applied (`per_shard_seqs`).

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gt_core::prelude::*;
use gt_core::sync::lock;
use gt_metrics::hub::{Counter, MicrosCounter};
use gt_metrics::MetricsHub;
use gt_sut::{busy_work, Adjacency, WindowDigest, WorkerSupervisor};
use gt_trace::{Probe, Stage, TracerCell};

use crate::partition::{PartitionState, ShardedGraph};
use crate::store::{shard_for, Router, StoreConfig, StoreStats};

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
fn is_purge(event: &GraphEvent, shard: usize, shards: u64) -> bool {
    matches!(event, GraphEvent::RemoveVertex { .. }) && shard_for(event, shards) != shard as u64
}

/// The sending end of a shard's queue.
pub(crate) type Route = SyncSender<ShardMsg>;

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
    Stop,
}

/// One shard slot's liveness and event account: `enqueued` advances by a
/// batch's event count before it is sent (and steps back if the send
/// fails), `applied` once the shard has applied it.
struct Slot {
    alive: AtomicBool,
    enqueued: AtomicU64,
    applied: AtomicU64,
}

impl Slot {
    fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Events queued on or being applied by this slot. `applied` is read
    /// first: both only grow between crashes, so a zero means every event
    /// enqueued before the call has been applied.
    fn backlog(&self) -> u64 {
        let applied = self.applied.load(Ordering::SeqCst);
        self.enqueued.load(Ordering::SeqCst).saturating_sub(applied)
    }
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
    /// The sequencer's state. Routing a transaction, marking, a restart
    /// and a crash's accounting each hold it throughout, so they never
    /// interleave: every shard applies in commit order, a marker reaches
    /// each shard behind exactly the events below its cut, and a crash's
    /// loss count is exact.
    pub(crate) router: Mutex<Router>,
    /// Where shards hand emptied batches back to the router, and routed
    /// transactions' emptied event buffers wait for the clients. Each
    /// buffer goes back to the thread that allocated it: the allocator
    /// returns a chunk freed on another thread to the allocating thread's
    /// arena, under the lock that thread takes on its own allocations, and
    /// on the store's hot path that contention cost more than the apply.
    spare_batches: SyncSender<Batch>,
    spare_events: SyncSender<Vec<GraphEvent>>,
    spare_events_rx: Mutex<Receiver<Vec<GraphEvent>>>,
    slots: Vec<Slot>,
    handles: Mutex<Vec<JoinHandle<Option<ShardEnd>>>>,
    /// Marker sightings `(interned name, shard, events the shard had
    /// applied)` in processing order.
    pub(crate) shard_markers: Mutex<Vec<(Arc<str>, usize, u64)>>,
    /// Transactions queued for the timestamper but not yet routed;
    /// advanced before the client's send so [`Self::quiesce`] never sees
    /// the ingestion stage idle with a transaction inside it. Always zero
    /// behind the router, which has no ingestion stage.
    pub(crate) unsequenced: AtomicU64,
    pub(crate) config: StoreConfig,
    /// Behind the router: each shard pays the ordering cost per received
    /// batch and records the commit timestamps it applies.
    routed: bool,
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
    /// the router if `routed`, else behind the timestamper. Registers
    /// `shard-N.busy_micros`, `shard-N.events` and the [`Counters`] on
    /// `hub`.
    pub(crate) fn start(config: StoreConfig, routed: bool, hub: &MetricsHub) -> Arc<Self> {
        assert!(config.shards >= 1, "at least one shard required");
        assert!(config.queue_capacity > 0, "queue capacity must be > 0");
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..config.shards)
            .map(|_| sync_channel::<ShardMsg>(config.queue_capacity))
            .unzip();
        // Room for every batch that can be in flight, and for every
        // transaction the ingestion queue can hold.
        let (spare_batches, spare_rx) = sync_channel(config.shards * (config.queue_capacity + 1));
        let (spare_events, spare_events_rx) = sync_channel(config.queue_capacity + 1);
        let pool = Arc::new(ShardPool {
            router: Mutex::new(Router::new(txs, spare_rx)),
            spare_batches,
            spare_events,
            spare_events_rx: Mutex::new(spare_events_rx),
            slots: (0..config.shards)
                .map(|_| Slot {
                    alive: AtomicBool::new(true),
                    enqueued: AtomicU64::new(0),
                    applied: AtomicU64::new(0),
                })
                .collect(),
            handles: Mutex::new(Vec::with_capacity(config.shards)),
            shard_markers: Mutex::new(Vec::new()),
            unsequenced: AtomicU64::new(0),
            config,
            routed,
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
        let handles = rxs
            .into_iter()
            .enumerate()
            .map(|(shard_id, rx)| pool.spawn_shard(shard_id, rx))
            .collect();
        *lock(&pool.handles) = handles;
        pool
    }

    /// Spawns (or respawns) the shard for a slot, consuming the receiver
    /// side of its fresh queue. Its two counters are looked up by name
    /// here, before the thread runs: a sampler started after the store
    /// lists them from its first sample, and a restarted shard keeps
    /// accumulating on the same series.
    fn spawn_shard(
        self: &Arc<Self>,
        shard_id: usize,
        rx: Receiver<ShardMsg>,
    ) -> JoinHandle<Option<ShardEnd>> {
        let pool = Arc::clone(self);
        let busy = MicrosCounter::new(self.hub.counter(&format!("shard-{shard_id}.busy_micros")));
        let applied = self.hub.counter(&format!("shard-{shard_id}.events"));
        std::thread::Builder::new()
            .name(format!("tide-store-shard-{shard_id}"))
            .spawn(move || pool.run_shard(shard_id, rx, busy, applied))
            .expect("spawn shard")
    }

    /// Makes every shard dump its adjacency at each marker from now on,
    /// for [`StoreStats::windows`].
    pub(crate) fn record_windows(&self) {
        self.windows.store(true, Ordering::SeqCst);
    }

    /// An emptied event buffer a routed transaction left behind, or a new
    /// one.
    pub(crate) fn spare_events(&self) -> Vec<GraphEvent> {
        let spares = self.spare_events_rx.try_lock().ok();
        spares.and_then(|rx| rx.try_recv().ok()).unwrap_or_default()
    }

    /// Keeps a routed transaction's emptied buffer for a client's next
    /// transaction, if there is room.
    pub(crate) fn recycle_events(&self, events: Vec<GraphEvent>) {
        let _ = self.spare_events.try_send(events);
    }

    /// Accounts `batch`'s events on `shard` and sends it. Blocks while the
    /// shard's queue is full — the backpressure that reaches clients
    /// through the sequencer — and fails fast on a dead shard. Returns the
    /// batch's event count, `Err` if it was not delivered.
    pub(crate) fn post(&self, routes: &[Route], shard: usize, batch: Batch) -> Result<u64, u64> {
        let shards = self.config.shards as u64;
        let purges = (batch.iter().flat_map(|(_, entry)| entry))
            .filter(|event| is_purge(event, shard, shards));
        let events = (batch.len() - purges.count()) as u64;
        let enqueued = &self.slots[shard].enqueued;
        enqueued.fetch_add(events, Ordering::SeqCst);
        if routes[shard].send(ShardMsg::Batch(batch)).is_ok() {
            return Ok(events);
        }
        enqueued.fetch_sub(events, Ordering::SeqCst);
        Err(events)
    }

    /// Blocks until no transaction waits for the timestamper and every
    /// live shard has applied every event enqueued to it, or the timeout
    /// elapses. A dead shard's backlog is lost, not pending, so it does
    /// not hold the wait.
    pub(crate) fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let settled = |slot: &Slot| !slot.is_alive() || slot.backlog() == 0;
        loop {
            // Ingestion first: once it is idle every share of every
            // submitted transaction is on a slot's account.
            if self.unsequenced.load(Ordering::SeqCst) == 0 && self.slots.iter().all(settled) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(QUIESCE_POLL);
        }
    }

    /// Stops all shards and joins them tolerantly: what each shard thread
    /// that stopped left behind. A crashed shard leaves nothing (a
    /// restarted slot joins twice, dead thread first); a shard that
    /// *panicked* is contained and counted as a crash instead of
    /// poisoning the run.
    pub(crate) fn join(&self) -> Vec<ShardEnd> {
        self.stopping.store(true, Ordering::SeqCst);
        // Every shard stops behind its backlog.
        for tx in &lock(&self.router).routes {
            let _ = tx.send(ShardMsg::Stop);
        }
        let handles = std::mem::take(&mut *lock(&self.handles));
        let mut ends = Vec::with_capacity(handles.len());
        for handle in handles {
            match handle.join() {
                Ok(end) => ends.extend(end),
                Err(_) => self.counters.crashes.inc(),
            }
        }
        ends
    }

    /// The final statistics, read off what the joined shards left behind:
    /// their states joined into the graph, their counts summed, their
    /// window dumps united per marker. A slot whose shard died for good
    /// contributes nothing, and an edge into one of its vertices is
    /// dropped and counted dangling (see [`ShardedGraph`]).
    pub(crate) fn finish(&self, ends: Vec<ShardEnd>) -> StoreStats {
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

    /// Runs one shard until `Stop` or channel disconnect (returns what it
    /// built) or `Crash` (returns nothing — the state dies with it).
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
        rx: Receiver<ShardMsg>,
        busy: MicrosCounter,
        applied: Counter,
    ) -> Option<ShardEnd> {
        let slot = &self.slots[shard_id];
        let mut end = ShardEnd {
            slot: shard_id,
            state: PartitionState::new(),
            windows: Vec::new(),
            events: 0,
            dangling: 0,
            seqs: Vec::new(),
        };
        let batch_cost = match self.routed {
            true => self.config.timestamper_cost_per_tx,
            false => Duration::ZERO,
        };
        let event_cost = self.config.shard_cost_per_event;
        let shards = self.config.shards as u64;
        let costed = !(batch_cost.is_zero() && event_cost.is_zero());
        // Lazily acquired: the thread outlives tracer installation, so it
        // polls the pool's cell (one atomic load per batch while empty).
        let mut trace_probe: Option<Probe> = None;
        while let Ok(msg) = rx.recv() {
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
                        if self.routed {
                            end.seqs.push(ts);
                        }
                        if let Some(probe) = &trace_probe {
                            probe.stamp_seq(ts);
                        }
                    }
                    let _ = self.spare_batches.try_send(batch);
                    end.events += events;
                    applied.add(events);
                    if let Some(started) = started {
                        busy.add(started.elapsed());
                    }
                    slot.applied.fetch_add(events, Ordering::SeqCst);
                }
                ShardMsg::Marker(name) => {
                    let position = slot.applied.load(Ordering::SeqCst);
                    lock(&self.shard_markers).push((name, shard_id, position));
                    self.dump(&mut end);
                }
                ShardMsg::Cut => self.dump(&mut end),
                ShardMsg::Crash => {
                    // Die like a killed process: state abandoned, queued
                    // messages dropped with the receiver — dropped first,
                    // so a sequencer blocked on this queue under the router
                    // lock fails out instead of deadlocking the lock below.
                    // With routing excluded no post is in flight: what is
                    // enqueued but unapplied is exactly the abandoned
                    // backlog, and every later post fails and is counted
                    // lost by its sender. The applied events die with the
                    // state and are counted discarded. The alive flag tells
                    // routers (and a waiting supervisor) that this
                    // partition is vacant.
                    drop(rx);
                    let _routing_excluded = lock(&self.router);
                    self.counters.events_lost.add(slot.backlog());
                    self.counters.events_discarded.add(end.events);
                    let applied = slot.applied.load(Ordering::SeqCst);
                    slot.enqueued.store(applied, Ordering::SeqCst);
                    slot.alive.store(false, Ordering::SeqCst);
                    self.counters.crashes.inc();
                    return None;
                }
                ShardMsg::Stop => break,
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
        if worker >= pool.config.shards
            || pool.stopping.load(Ordering::SeqCst)
            || !pool.slots[worker].is_alive()
        {
            return false;
        }
        lock(&pool.router).routes[worker]
            .send(ShardMsg::Crash)
            .is_ok()
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
        while pool.slots[worker].is_alive() {
            if Instant::now() > deadline || pool.stopping.load(Ordering::SeqCst) {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }

        let mut router = lock(&pool.router);
        if pool.stopping.load(Ordering::SeqCst) {
            return false;
        }
        let (tx, rx) = sync_channel::<ShardMsg>(config.queue_capacity);
        // Spawn first so the bounded queue drains while replay fills it.
        let handle = pool.spawn_shard(worker, rx);
        router.routes[worker] = tx;
        let router = &*router;
        let mut cuts = router.cuts.iter().map(|&(_, cut)| cut).peekable();
        let (mut batch, mut replayed) = (Batch::with_capacity(REPLAY_BATCH), 0);
        let mut flush = |batch: &mut Batch| {
            if !batch.is_empty() {
                let posted = pool.post(&router.routes, worker, std::mem::take(batch));
                replayed += posted.unwrap_or_else(|lost| lost);
            }
        };
        for (ts, entry) in &router.retained[worker] {
            while cuts.next_if(|&cut| cut <= *ts).is_some() {
                flush(&mut batch);
                let _ = router.routes[worker].send(ShardMsg::Cut);
            }
            batch.push((*ts, entry.clone()));
            if batch.len() == REPLAY_BATCH {
                flush(&mut batch);
            }
        }
        flush(&mut batch);
        for _ in cuts {
            let _ = router.routes[worker].send(ShardMsg::Cut);
        }
        pool.slots[worker].alive.store(true, Ordering::SeqCst);
        lock(&pool.handles).push(handle);
        pool.counters.restarts.inc();
        pool.counters.events_replayed.add(replayed);
        true
    }
}

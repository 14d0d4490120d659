//! The shard side of the store: the queue fabric with its per-slot event
//! account, the shard threads, their supervisor, and the state both
//! sequencers share (the commit-timestamp counter, marker cuts, counters).
//!
//! The timestamper and the router differ only in *who sequences*; what
//! happens to a sequenced event is the same — it travels, with the rest of
//! its transaction's share for that shard, as one `ShardMsg::Batch`, is
//! applied to the shard's [`PartitionState`] and appended to its log. A
//! queue slot therefore holds a batch, not an event, and the channel's
//! length says nothing about events: each slot keeps an item-exact
//! `enqueued`/`applied` pair from which `quiesce` and a crash's loss count
//! are derived.

use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender};
use gt_core::prelude::*;
use gt_graph::{ApplyPolicy, EvolvingGraph};
use gt_metrics::hub::{Counter, MicrosCounter};
use gt_metrics::MetricsHub;
use gt_sut::WorkerSupervisor;
use gt_trace::{Probe, Stage, TracerCell};
use parking_lot::{Mutex, RwLock};

use crate::partition::PartitionState;
use crate::store::{shard_for, shard_for_key, StoreConfig, StoreStats};

/// `(commit timestamp, event)` pairs: a shard's write log in apply order,
/// and the payload of one queue message.
pub(crate) type ShardLog = Vec<(u64, SharedGraphEvent)>;

/// Work delivered to a shard's queue.
pub(crate) enum ShardMsg {
    /// One transaction's share for this shard, timestamps assigned.
    Batch(ShardLog),
    /// A broadcast watermark. The name is interned: the per-shard fan-out
    /// bumps a refcount instead of cloning a `String` per queue.
    Marker(Arc<str>),
    ReadVertex(VertexId, Sender<Option<State>>),
    ReadEdge(EdgeId, Sender<Option<State>>),
    /// A simulated shard kill: discard state and log and exit immediately,
    /// as if the process died. Queued like any message, so the crash lands
    /// at a deterministic position in the shard's message stream.
    Crash,
    Stop,
}

/// One shard slot's liveness and event account: `enqueued` advances by a
/// batch's length before it is sent (and steps back if the send fails),
/// `applied` once the shard has applied it.
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
/// `store.events_replayed`.
pub(crate) struct Counters {
    pub(crate) tx: Counter,
    pub(crate) events: Counter,
    pub(crate) marker_skips: Counter,
    pub(crate) crashes: Counter,
    pub(crate) restarts: Counter,
    pub(crate) events_lost: Counter,
    pub(crate) events_replayed: Counter,
}

/// The running shards and everything needed to sequence into, kill and
/// resurrect them; shared by the store handle, its clients, its
/// timestamper and its supervisor.
pub(crate) struct ShardPool {
    /// The current sender of every slot. Write-locked while a restart
    /// swaps a sender or a crash closes a slot's account — which excludes
    /// routing, so recovery never interleaves with the commit order and a
    /// crash's loss count is exact.
    txs: RwLock<Vec<Sender<ShardMsg>>>,
    slots: Vec<Slot>,
    handles: Mutex<Vec<JoinHandle<(usize, ShardLog)>>>,
    /// Every sequenced `(timestamp, event)` pair, pushed by the routing
    /// body under its [`Self::routes`] guard — in supervised mode only.
    pub(crate) retained: Mutex<ShardLog>,
    /// Marker sightings `(interned name, shard)` in processing order.
    shard_markers: Mutex<Vec<(Arc<str>, usize)>>,
    /// The next commit timestamp: advanced by a transaction's length when
    /// it is routed, so timestamps are stream positions.
    pub(crate) next_ts: AtomicU64,
    /// Transactions queued for the timestamper but not yet routed;
    /// advanced before the client's send so [`Self::quiesce`] never sees
    /// the ingestion stage idle with a transaction inside it. Always zero
    /// behind the router, which has no ingestion stage.
    pub(crate) unsequenced: AtomicU64,
    /// Marker cuts in sequencing order: `(name, commit timestamp)`.
    cuts: Mutex<Vec<(String, u64)>>,
    pub(crate) config: StoreConfig,
    /// The ordering cost a shard pays per received batch: zero behind the
    /// timestamper (it already paid), the sequencing cost behind the
    /// router.
    batch_cost: Duration,
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

/// Events per queue message when a restart replays the retained log.
const REPLAY_BATCH: usize = 64;

impl ShardPool {
    /// Starts `config.shards` shard threads behind bounded queues.
    /// Registers `shard-N.busy_micros`, `shard-N.events` and the
    /// [`Counters`] on `hub`.
    pub(crate) fn start(config: StoreConfig, batch_cost: Duration, hub: &MetricsHub) -> Arc<Self> {
        assert!(config.shards >= 1, "at least one shard required");
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..config.shards)
            .map(|_| bounded::<ShardMsg>(config.queue_capacity))
            .unzip();
        let pool = Arc::new(ShardPool {
            txs: RwLock::new(txs),
            slots: (0..config.shards)
                .map(|_| Slot {
                    alive: AtomicBool::new(true),
                    enqueued: AtomicU64::new(0),
                    applied: AtomicU64::new(0),
                })
                .collect(),
            handles: Mutex::new(Vec::with_capacity(config.shards)),
            retained: Mutex::new(Vec::new()),
            shard_markers: Mutex::new(Vec::new()),
            next_ts: AtomicU64::new(0),
            unsequenced: AtomicU64::new(0),
            cuts: Mutex::new(Vec::new()),
            config,
            batch_cost,
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
                events_replayed: hub.counter("store.events_replayed"),
            },
        });
        let handles = rxs
            .into_iter()
            .enumerate()
            .map(|(shard_id, rx)| pool.spawn_shard(shard_id, rx))
            .collect();
        *pool.handles.lock() = handles;
        pool
    }

    /// Spawns (or respawns) the shard for a slot, consuming the receiver
    /// side of its fresh queue. Hub metrics are looked up by name, so a
    /// restarted shard keeps accumulating on the same series.
    fn spawn_shard(
        self: &Arc<Self>,
        shard_id: usize,
        rx: Receiver<ShardMsg>,
    ) -> JoinHandle<(usize, ShardLog)> {
        let writer = ShardWriter {
            state: PartitionState::new(),
            log: Vec::new(),
            batch_cost: self.batch_cost,
            event_cost: self.config.shard_cost_per_event,
            busy: MicrosCounter::new(self.hub.counter(&format!("shard-{shard_id}.busy_micros"))),
            applied: self.hub.counter(&format!("shard-{shard_id}.events")),
            trace_probe: None,
        };
        let pool = Arc::clone(self);
        std::thread::Builder::new()
            .name(format!("tide-store-shard-{shard_id}"))
            .spawn(move || shard_loop(shard_id, rx, writer, &pool))
            .expect("spawn shard")
    }

    /// The senders of every slot, read-locked. The routing body holds the
    /// guard across stamping, retaining and delivering one transaction,
    /// so a restart (write lock) can never observe it half-routed or
    /// snapshot the retained log with its delivery still in flight, which
    /// would replay it twice.
    pub(crate) fn routes(&self) -> impl Deref<Target = Vec<Sender<ShardMsg>>> + '_ {
        self.txs.read()
    }

    /// Accounts `batch` on `shard` and sends it. Blocks while the shard's
    /// queue is full — the backpressure that reaches clients through the
    /// sequencer — and fails fast on a dead shard. Returns whether the
    /// batch was delivered.
    pub(crate) fn post(&self, routes: &[Sender<ShardMsg>], shard: usize, batch: ShardLog) -> bool {
        let events = batch.len() as u64;
        let enqueued = &self.slots[shard].enqueued;
        enqueued.fetch_add(events, Ordering::SeqCst);
        let delivered = routes[shard].send(ShardMsg::Batch(batch)).is_ok();
        if !delivered {
            enqueued.fetch_sub(events, Ordering::SeqCst);
        }
        delivered
    }

    /// Sends a read to the shard owning `key`. A dead shard's queue
    /// rejects it; dropping the reply sender with it turns the reader's
    /// wait into `StoreClosed` instead of a hang.
    pub(crate) fn read(&self, key: u64, msg: ShardMsg) {
        let routes = self.routes();
        let _ = routes[shard_for_key(key, routes.len() as u64) as usize].send(msg);
    }

    /// Records a marker's cut — the commit timestamp every event sequenced
    /// before it is below — and broadcasts the marker to every shard,
    /// behind the batches already queued there. The cut lives here, not in
    /// any shard, so it survives shard crashes; a dead shard is skipped and
    /// counted (`store.marker_skips`), never waited for.
    pub(crate) fn mark(&self, name: &str) {
        let cut = self.next_ts.load(Ordering::SeqCst);
        self.cuts.lock().push((name.to_owned(), cut));
        // Intern once; the per-shard fan-out clones refcounts, not Strings.
        let name = gt_core::intern::intern(name);
        for tx in self.routes().iter() {
            if tx.send(ShardMsg::Marker(Arc::clone(&name))).is_err() {
                self.counters.marker_skips.inc();
            }
        }
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

    /// Stops all shards and joins them tolerantly: returns `(slot, log)`
    /// per shard thread in spawn order. A crashed shard's log is empty (a
    /// restarted slot joins twice, dead thread first); a shard that
    /// *panicked* is contained and counted as a crash instead of
    /// poisoning the run.
    pub(crate) fn join(&self) -> Vec<(usize, ShardLog)> {
        self.stopping.store(true, Ordering::SeqCst);
        // Every shard stops behind its backlog.
        for tx in self.routes().iter() {
            let _ = tx.send(ShardMsg::Stop);
        }
        let handles = std::mem::take(&mut *self.handles.lock());
        let mut logs = Vec::with_capacity(handles.len());
        for handle in handles {
            match handle.join() {
                Ok(log) => logs.push(log),
                Err(_) => self.counters.crashes.inc(),
            }
        }
        logs
    }

    /// Merges the joined shard logs in timestamp order and reconstructs
    /// the committed graph from the merged log. Crashed shards' events
    /// are simply absent (unless a supervised restart replayed them).
    /// `per_shard` fills [`StoreStats::per_shard_seqs`] from the logs
    /// before the merge: 8 bytes per event, live through the
    /// reconstruction.
    pub(crate) fn stats(&self, logs: Vec<(usize, ShardLog)>, per_shard: bool) -> StoreStats {
        let mut per_shard_seqs = vec![Vec::new(); self.config.shards];
        if per_shard {
            // A restarted slot appends to its dead thread's (empty) list,
            // which keeps the rebuilt order.
            for (shard, log) in &logs {
                per_shard_seqs[*shard].extend(log.iter().map(|(ts, _)| *ts));
            }
        }
        let mut log: ShardLog = Vec::with_capacity(logs.iter().map(|(_, l)| l.len()).sum());
        for (_, shard_log) in logs {
            log.extend(shard_log);
        }
        log.sort_by_key(|(ts, _)| *ts);
        let mut graph = EvolvingGraph::new();
        let mut dangling_edges_dropped = 0;
        for (_, event) in &log {
            if let GraphEvent::AddEdge { id, .. } = event.event() {
                let endpoints_exist = graph.has_vertex(id.src) && graph.has_vertex(id.dst);
                dangling_edges_dropped += u64::from(!id.is_self_loop() && !endpoints_exist);
            }
            let _ = graph.apply_with(event.event(), ApplyPolicy::Lenient);
        }
        let shard_markers = self.shard_markers.lock();
        StoreStats {
            transactions: self.counters.tx.get(),
            events: log.len() as u64,
            graph,
            dangling_edges_dropped,
            crashes: self.counters.crashes.get(),
            restarts: self.counters.restarts.get(),
            events_lost: self.counters.events_lost.get(),
            events_replayed: self.counters.events_replayed.get(),
            markers: std::mem::take(&mut *self.cuts.lock()),
            log,
            per_shard_seqs,
            shard_markers: shard_markers
                .iter()
                .map(|(name, shard)| (name.to_string(), *shard))
                .collect(),
            marker_skips: self.counters.marker_skips.get(),
        }
    }
}

/// One shard thread's write side: partition state, commit log, simulated
/// costs, counters and apply tracepoint.
struct ShardWriter {
    state: PartitionState,
    log: ShardLog,
    batch_cost: Duration,
    event_cost: Duration,
    /// `shard-N.busy_micros`.
    busy: MicrosCounter,
    /// `shard-N.events`.
    applied: Counter,
    /// Lazily acquired: the thread outlives tracer installation, so it
    /// polls the pool's cell (one atomic load per batch while empty).
    trace_probe: Option<Probe>,
}

impl ShardWriter {
    /// Applies one batch in order: pays the simulated costs, updates the
    /// partition state, appends to the log and stamps each event at
    /// [`Stage::EngineApply`] with its commit timestamp — the event's
    /// global stream position, carried explicitly because shards apply
    /// out of order. The clock is read only when there is simulated work
    /// to account for.
    fn apply_batch(&mut self, batch: ShardLog, tracer_cell: &TracerCell) {
        let costed = !(self.batch_cost.is_zero() && self.event_cost.is_zero());
        let started = costed.then(Instant::now);
        busy_work(self.batch_cost);
        if self.trace_probe.is_none() {
            self.trace_probe = tracer_cell.probe(Stage::EngineApply);
        }
        let events = batch.len() as u64;
        for (ts, event) in batch {
            busy_work(self.event_cost);
            self.state.apply(&event);
            self.log.push((ts, event));
            if let Some(probe) = &self.trace_probe {
                probe.stamp_seq(ts);
            }
        }
        self.applied.add(events);
        if let Some(started) = started {
            self.busy.add(started.elapsed());
        }
    }
}

/// Burns CPU for the given duration (simulated component work). Spinning —
/// not sleeping — so the busy time is real CPU time that a Level-0
/// process sampler can observe.
pub(crate) fn busy_work(cost: Duration) {
    if cost.is_zero() {
        return;
    }
    let end = Instant::now() + cost;
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}

/// Runs one shard until `Stop` or channel disconnect (returns its log) or
/// `Crash` (returns an empty one — the log dies with the state).
fn shard_loop(
    shard_id: usize,
    rx: Receiver<ShardMsg>,
    mut writer: ShardWriter,
    pool: &ShardPool,
) -> (usize, ShardLog) {
    let slot = &pool.slots[shard_id];
    while let Ok(msg) = rx.recv() {
        match msg {
            ShardMsg::Batch(batch) => {
                let events = batch.len() as u64;
                writer.apply_batch(batch, &pool.tracer_cell);
                slot.applied.fetch_add(events, Ordering::SeqCst);
            }
            ShardMsg::Marker(name) => pool.shard_markers.lock().push((name, shard_id)),
            ShardMsg::ReadVertex(id, reply) => {
                let _ = reply.send(writer.state.read_vertex(id));
            }
            ShardMsg::ReadEdge(id, reply) => {
                let _ = reply.send(writer.state.read_edge(id));
            }
            ShardMsg::Crash => {
                // Die like a killed process: state and log abandoned,
                // queued messages dropped with the receiver — dropped
                // first, so a router blocked on this queue under the read
                // lock fails out instead of deadlocking the write lock
                // below. With routing excluded no post is in flight: what
                // is enqueued but unapplied is exactly the abandoned
                // backlog, and every later post fails and is counted lost
                // by its sender. The alive flag tells routers (and a
                // waiting supervisor) that this partition is vacant.
                drop(rx);
                let _routing_excluded = pool.txs.write();
                pool.counters.events_lost.add(slot.backlog());
                let applied = slot.applied.load(Ordering::SeqCst);
                slot.enqueued.store(applied, Ordering::SeqCst);
                slot.alive.store(false, Ordering::SeqCst);
                pool.counters.crashes.inc();
                return (shard_id, Vec::new());
            }
            ShardMsg::Stop => break,
        }
    }
    (shard_id, writer.log)
}

/// The store's [`WorkerSupervisor`]: kills and resurrects individual
/// shards behind either sequencer. Obtained from `supervisor()` on the
/// store.
pub struct StoreSupervisor(pub(crate) Arc<ShardPool>);

impl WorkerSupervisor for StoreSupervisor {
    fn worker_count(&self) -> usize {
        self.0.config.shards
    }

    /// Enqueues a crash on the shard's queue. The kill lands behind the
    /// shard's current backlog — a deterministic position in its message
    /// stream — and the shard then discards its state and log and exits.
    fn inject_crash(&self, worker: usize) -> bool {
        let pool = &self.0;
        if worker >= pool.config.shards
            || pool.stopping.load(Ordering::SeqCst)
            || !pool.slots[worker].is_alive()
        {
            return false;
        }
        pool.routes()[worker].send(ShardMsg::Crash).is_ok()
    }

    /// Restarts a crashed shard (supervised mode only): waits briefly for
    /// the crash to land, then — with routing write-locked out — spawns a
    /// fresh shard and replays its share of the retained commit log, in
    /// timestamp order, into its new queue.
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

        let mut txs = pool.txs.write();
        if pool.stopping.load(Ordering::SeqCst) {
            return false;
        }
        let (tx, rx) = bounded::<ShardMsg>(config.queue_capacity);
        // Spawn first so the bounded queue drains while replay fills it.
        let handle = pool.spawn_shard(worker, rx);
        let shards = config.shards as u64;
        let mut replay: ShardLog = {
            let retained = pool.retained.lock();
            retained
                .iter()
                .filter(|(_, event)| shard_for(event.event(), shards) == worker as u64)
                .cloned()
                .collect()
        };
        // Concurrent router clients retain in lock order, not in
        // timestamp order; the rebuilt shard log keeps the latter.
        replay.sort_by_key(|(ts, _)| *ts);
        txs[worker] = tx;
        for chunk in replay.chunks(REPLAY_BATCH) {
            pool.post(&txs, worker, chunk.to_vec());
        }
        pool.slots[worker].alive.store(true, Ordering::SeqCst);
        pool.handles.lock().push(handle);
        pool.counters.restarts.inc();
        pool.counters.events_replayed.add(replay.len() as u64);
        true
    }
}

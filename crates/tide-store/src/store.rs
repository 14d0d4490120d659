//! The store runtime: client → timestamper → shards.
//!
//! A transaction's events travel as [`SharedGraphEvent`] handles from the
//! connector through the timestamper into the shard logs *and* the shard
//! state — no per-event payload copies anywhere on the path. The
//! timestamper hands each shard its share of a transaction as one queue
//! message (see [`crate::shard`] for the shard side, which the sharded
//! runtime shares).
//!
//! # Crash containment and supervised recovery
//!
//! Shards are *crash-containable*: a crash message delivered through
//! the store's [`gt_sut::WorkerSupervisor`] (see [`TideStore::supervisor`])
//! makes the shard discard its state and log and exit, like a killed
//! process. The timestamper keeps sequencing — events routed to a dead
//! shard, and the backlog a dying shard abandons, are counted as lost
//! (`store.events_lost`, by event) instead of silently ending the run,
//! reads routed to a dead shard fail with [`StoreClosed`] rather than
//! hanging, and shutdown joins dead shards tolerantly. In *supervised* mode
//! ([`StoreConfig::supervised`]) the timestamper additionally retains
//! every committed `(timestamp, event)` pair, so a crashed shard can be
//! restarted and rebuilt by replaying its share of the retained log with
//! the original timestamps.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender};
use gt_core::prelude::*;
use gt_graph::EvolvingGraph;
use gt_metrics::hub::{Counter, Gauge, MicrosCounter};
use gt_metrics::MetricsHub;
use gt_sut::WorkerSupervisor;
use gt_trace::TracerCell;
use parking_lot::Mutex;

use crate::shard::{busy_work, ShardLog, ShardMsg, ShardPool, StoreSupervisor};

/// Store configuration.
///
/// The two cost knobs model where a Weaver-class system spends its time:
/// global transaction ordering (timestamper, per transaction) and
/// partition writes (shards, per event). The throughput ceiling for a
/// batch size `k` is approximately
/// `k / max(timestamper_cost_per_tx, k * shard_cost_per_event / shards)`.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Number of shard worker threads.
    pub shards: usize,
    /// Simulated ordering cost per transaction at the timestamper.
    pub timestamper_cost_per_tx: Duration,
    /// Simulated write cost per event at a shard.
    pub shard_cost_per_event: Duration,
    /// Capacity of the client→timestamper queue (in transactions) and of
    /// each timestamper→shard queue (in transaction shares: one slot holds
    /// the events of one transaction owed to that shard); full queues
    /// backpressure the sender (the paper's "backthrottling").
    pub queue_capacity: usize,
    /// Retain every committed `(timestamp, event)` pair so crashed shards
    /// can be restarted with their state rebuilt by replay (the
    /// single-process stand-in for a durable write-ahead log). Costs
    /// memory proportional to the stream length; off by default.
    pub supervised: bool,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            shards: 2,
            timestamper_cost_per_tx: Duration::from_micros(800),
            shard_cost_per_event: Duration::from_micros(20),
            queue_capacity: 256,
            supervised: false,
        }
    }
}

/// A write transaction: a batch of graph events committed atomically under
/// one global timestamp.
///
/// Events are carried as [`SharedGraphEvent`] handles: a transaction built
/// from the batched connector path shares the replayer's allocations all
/// the way into the shard logs and the shard state — no per-event payload
/// copies.
#[derive(Debug, Clone, PartialEq)]
pub struct Transaction {
    /// The events of the transaction, applied in order.
    pub events: Vec<SharedGraphEvent>,
}

impl Transaction {
    /// A single-event transaction.
    pub fn single(event: impl Into<SharedGraphEvent>) -> Self {
        Transaction {
            events: vec![event.into()],
        }
    }

    /// A transaction over owned events (wraps each in a shared handle).
    pub fn from_events(events: impl IntoIterator<Item = GraphEvent>) -> Self {
        Transaction {
            events: events.into_iter().map(SharedGraphEvent::new).collect(),
        }
    }
}

/// Ingestion-channel message: client traffic or the shutdown sentinel.
/// The sentinel (rather than channel disconnect) ends the timestamper, so
/// shutdown completes even while client handles are still alive.
enum ClientMsg {
    Tx(Transaction),
    /// A read transaction: routed through the timestamper like any other
    /// transaction, so reads are ordered against writes (the refinable-
    /// timestamp discipline, simplified to a single global sequencer).
    ReadVertex(VertexId, Sender<Option<State>>),
    ReadEdge(EdgeId, Sender<Option<State>>),
    /// A watermark: the timestamper records the current commit timestamp
    /// as the marker's *cut* — every event sequenced before the marker
    /// has a smaller timestamp, so the cut slices the merged log into
    /// the marker window's consistent prefix.
    Marker(String),
    Shutdown,
}

/// A client handle; cloneable, blocking on backpressure.
#[derive(Clone)]
pub struct StoreClient {
    tx: Sender<ClientMsg>,
    /// Transactions submitted but not yet routed to their shards; advanced
    /// before the send so [`TideStore::quiesce`] never sees the ingestion
    /// stage idle with a transaction inside it.
    unsequenced: Arc<AtomicU64>,
}

impl StoreClient {
    /// Submits a transaction, blocking while the ingestion queue is full.
    /// Errors when the store has shut down.
    pub fn submit(&self, transaction: Transaction) -> Result<(), Transaction> {
        self.unsequenced.fetch_add(1, Ordering::SeqCst);
        self.tx
            .send(ClientMsg::Tx(transaction))
            .map_err(|e| self.refused(e.0))
    }

    /// Non-blocking submit; returns the transaction back on a full queue.
    pub fn try_submit(&self, transaction: Transaction) -> Result<(), Transaction> {
        self.unsequenced.fetch_add(1, Ordering::SeqCst);
        self.tx
            .try_send(ClientMsg::Tx(transaction))
            .map_err(|e| self.refused(e.into_inner()))
    }

    /// Takes a transaction the ingestion queue refused off the account.
    fn refused(&self, msg: ClientMsg) -> Transaction {
        self.unsequenced.fetch_sub(1, Ordering::SeqCst);
        match msg {
            ClientMsg::Tx(tx) => tx,
            _ => unreachable!("clients only send transactions"),
        }
    }

    /// Reads a vertex's current state as a transaction: the read is
    /// ordered behind every write submitted before it on this client.
    /// `None` if the vertex does not exist; `Err(StoreClosed)` if the
    /// store has shut down — or if the owning shard has crashed (its
    /// partition is unavailable until a supervised restart).
    pub fn read_vertex(&self, id: VertexId) -> Result<Option<State>, StoreClosed> {
        let (reply_tx, reply_rx) = bounded(1);
        self.tx
            .send(ClientMsg::ReadVertex(id, reply_tx))
            .map_err(|_| StoreClosed)?;
        reply_rx.recv().map_err(|_| StoreClosed)
    }

    /// Reads an edge's current state; same semantics as
    /// [`Self::read_vertex`].
    pub fn read_edge(&self, id: EdgeId) -> Result<Option<State>, StoreClosed> {
        let (reply_tx, reply_rx) = bounded(1);
        self.tx
            .send(ClientMsg::ReadEdge(id, reply_tx))
            .map_err(|_| StoreClosed)?;
        reply_rx.recv().map_err(|_| StoreClosed)
    }

    /// Submits a watermark. The timestamper records the commit timestamp
    /// current when the marker is sequenced as the marker's cut — the
    /// boundary of that marker window in the merged commit log (see
    /// [`StoreStats::markers`]).
    pub fn marker(&self, name: &str) -> Result<(), StoreClosed> {
        self.tx
            .send(ClientMsg::Marker(name.to_owned()))
            .map_err(|_| StoreClosed)
    }
}

/// The store has shut down and can no longer serve reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreClosed;

impl std::fmt::Display for StoreClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "store has shut down")
    }
}

impl std::error::Error for StoreClosed {}

/// Final statistics and state after shutdown.
#[derive(Debug)]
pub struct StoreStats {
    /// Transactions committed.
    pub transactions: u64,
    /// Events applied across all shards (merged log entries; a crashed,
    /// un-restarted shard's events are missing here). Counted by event:
    /// a transaction's share that a dead shard refused or abandoned adds
    /// its length to `events_lost`, not one per queue message.
    pub events: u64,
    /// The reconstructed graph (all shard logs merged in timestamp order).
    pub graph: EvolvingGraph,
    /// `AddEdge`s (not self-loops) the reconstruction dropped because an
    /// endpoint did not exist at the edge's commit timestamp — an edge
    /// that overtook its endpoint's `AddVertex`. Still counted in
    /// `events`, absent from `graph`.
    pub dangling_edges_dropped: u64,
    /// Shard deaths (injected crashes plus contained panics).
    pub crashes: u64,
    /// Supervised shard restarts.
    pub restarts: u64,
    /// Events that could not be delivered because their shard was dead,
    /// plus those a crashing shard left unapplied on its queue.
    pub events_lost: u64,
    /// Events re-enqueued from the retained log on restarts.
    pub events_replayed: u64,
    /// Marker cuts, in sequencing order: `(marker name, commit timestamp
    /// at the cut)`. Log entries with a smaller timestamp belong to the
    /// window the marker closes.
    pub markers: Vec<(String, u64)>,
    /// The merged commit log the graph was reconstructed from, in
    /// timestamp order. Slicing it at a marker cut reproduces that
    /// window's graph state (the digest/differential path).
    pub log: Vec<(u64, SharedGraphEvent)>,
}

/// The running store.
pub struct TideStore {
    client_tx: Option<Sender<ClientMsg>>,
    /// Shared with every [`StoreClient`] and the timestamper.
    unsequenced: Arc<AtomicU64>,
    timestamper: Option<JoinHandle<u64>>,
    pool: Arc<ShardPool>,
    events_counter: Counter,
    tx_counter: Counter,
    /// Marker cuts recorded by the timestamper: `(name, commit ts)`.
    marker_cuts: Arc<Mutex<Vec<(String, u64)>>>,
}

impl TideStore {
    /// Starts the store: one timestamper thread and `config.shards` shard
    /// threads. Metrics are registered on `hub`:
    ///
    /// * `store.tx` / `store.events` — committed counts,
    /// * `timestamper.busy_micros`, `shard-N.busy_micros` — per-component
    ///   simulated CPU time,
    /// * `timestamper.queue` — ingestion queue length gauge,
    /// * `store.crashes` / `store.restarts` / `store.events_lost` /
    ///   `store.events_replayed` — fault and recovery activity.
    pub fn start(config: StoreConfig, hub: &MetricsHub) -> Self {
        let (client_tx, client_rx) = bounded::<ClientMsg>(config.queue_capacity);
        // The timestamper pays for ordering; its shards pay per event only.
        let pool = ShardPool::start(config.clone(), Duration::ZERO, hub);
        let events_counter = hub.counter("store.events");
        let tx_counter = hub.counter("store.tx");
        let unsequenced = Arc::new(AtomicU64::new(0));
        let marker_cuts: Arc<Mutex<Vec<(String, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let timestamper = Timestamper {
            client_rx,
            pool: Arc::clone(&pool),
            cost: config.timestamper_cost_per_tx,
            busy: MicrosCounter::new(hub.counter("timestamper.busy_micros")),
            queue: hub.gauge("timestamper.queue"),
            unsequenced: Arc::clone(&unsequenced),
            tx_counter: tx_counter.clone(),
            events_counter: events_counter.clone(),
            marker_cuts: Arc::clone(&marker_cuts),
        };
        let timestamper = std::thread::Builder::new()
            .name("tide-store-timestamper".into())
            .spawn(move || timestamper.run())
            .expect("spawn timestamper");

        TideStore {
            client_tx: Some(client_tx),
            unsequenced,
            timestamper: Some(timestamper),
            pool,
            events_counter,
            tx_counter,
            marker_cuts,
        }
    }

    /// The tracer slot shared with the shard threads. Installing a
    /// [`gt_trace::Tracer`] here makes every shard stamp applied events
    /// at [`gt_trace::Stage::EngineApply`], keyed by their global commit
    /// timestamp — which equals the event's global stream position, so
    /// the stamps match the replayer-side stages without any event
    /// metadata.
    pub fn tracer_cell(&self) -> &TracerCell {
        &self.pool.tracer_cell
    }

    /// The store's crash/restart control surface, for chaos runs. The
    /// handle shares the store's internals (not the store itself), so it
    /// stays valid until shutdown.
    pub fn supervisor(&self) -> Arc<dyn WorkerSupervisor> {
        Arc::new(StoreSupervisor(Arc::clone(&self.pool)))
    }

    /// A new client handle.
    pub fn client(&self) -> StoreClient {
        StoreClient {
            tx: self
                .client_tx
                .as_ref()
                .expect("store not shut down")
                .clone(),
            unsequenced: Arc::clone(&self.unsequenced),
        }
    }

    /// Events committed so far (live).
    pub fn events_committed(&self) -> u64 {
        self.events_counter.get()
    }

    /// Transactions committed so far (live).
    pub fn transactions_committed(&self) -> u64 {
        self.tx_counter.get()
    }

    /// Blocks until every transaction submitted before the call has been
    /// *applied* — the ingestion queue is empty, the timestamper is
    /// between transactions, and every live shard has applied every event
    /// enqueued to it — or the timeout elapses. A dead shard's backlog is
    /// lost, not pending, so it does not hold the wait.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        self.pool
            .quiesce(timeout, || self.unsequenced.load(Ordering::SeqCst) == 0)
    }

    /// Stops ingestion, drains all queues, joins all threads, and
    /// reconstructs the committed graph from the shard logs.
    ///
    /// Everything enqueued before this call commits; client handles that
    /// outlive the store receive errors on subsequent submits. Crashed
    /// shards are joined tolerantly — their events are simply absent from
    /// the reconstruction (unless a supervised restart replayed them) —
    /// and a shard that *panicked* is contained and counted as a crash
    /// instead of poisoning the run.
    pub fn shutdown(mut self) -> StoreStats {
        self.pool.stopping.store(true, Ordering::SeqCst);
        let client_tx = self.client_tx.take().expect("not yet shut down");
        // A sentinel (not channel disconnect) ends the timestamper, so
        // shutdown completes even while client clones are still alive.
        let _ = client_tx.send(ClientMsg::Shutdown);
        drop(client_tx);
        let transactions = match self.timestamper.take().expect("not yet shut down").join() {
            Ok(committed) => committed,
            // Contained timestamper panic: the run survives with the
            // live-counter value standing in for the return.
            Err(_) => self.tx_counter.get(),
        };
        // The timestamper stops the shards on its normal exit; the pool
        // repeats it, so a panicked timestamper cannot leave them running
        // (the duplicate is harmless — a stopped shard's channel rejects
        // it).
        let markers = std::mem::take(&mut *self.marker_cuts.lock());
        self.pool.stats(transactions, markers, self.pool.join())
    }
}

/// The timestamper thread's state: the ingestion queue, the shard pool
/// and the counters it advances.
struct Timestamper {
    client_rx: Receiver<ClientMsg>,
    pool: Arc<ShardPool>,
    cost: Duration,
    busy: MicrosCounter,
    queue: Gauge,
    unsequenced: Arc<AtomicU64>,
    tx_counter: Counter,
    events_counter: Counter,
    marker_cuts: Arc<Mutex<Vec<(String, u64)>>>,
}

impl Timestamper {
    /// Pays the serial ordering cost of one transaction (or read).
    fn order(&self) {
        if !self.cost.is_zero() {
            let start = Instant::now();
            busy_work(self.cost);
            self.busy.add(start.elapsed());
        }
    }

    /// Routes one read to the owner of `key`, at the ordering cost of a
    /// transaction. A dead shard's queue rejects the send; dropping the
    /// reply sender with it turns the client's wait into `StoreClosed`
    /// instead of a hang.
    fn read(&self, key: u64, msg: ShardMsg) {
        self.order();
        let shard = shard_for_key(key, self.pool.config.shards as u64);
        let _ = self.pool.routes()[shard as usize].send(msg);
    }

    /// Sequences client traffic until the shutdown sentinel, then stops
    /// the shards. Returns the number of transactions committed.
    fn run(self) -> u64 {
        let pool = &*self.pool;
        let shards = pool.config.shards;
        let mut next_ts = 0u64;
        let mut committed = 0u64;
        // Routing scratch, reused across transactions: each event's owner
        // shard, the events owed to each shard, and the batch being filled
        // for it (taken by the send, so empty between transactions).
        let mut owners: Vec<usize> = Vec::new();
        let mut counts = vec![0usize; shards];
        let mut parts: Vec<ShardLog> = (0..shards).map(|_| Vec::new()).collect();
        while let Ok(msg) = self.client_rx.recv() {
            let transaction = match msg {
                ClientMsg::Tx(tx) => tx,
                ClientMsg::Marker(name) => {
                    // The cut: every event sequenced before this marker has a
                    // timestamp below `next_ts`. Markers are control traffic —
                    // they pay no ordering cost.
                    self.marker_cuts.lock().push((name, next_ts));
                    continue;
                }
                ClientMsg::ReadVertex(id, reply) => {
                    self.read(id.0, ShardMsg::ReadVertex(id, reply));
                    continue;
                }
                ClientMsg::ReadEdge(id, reply) => {
                    self.read(id.src.0, ShardMsg::ReadEdge(id, reply));
                    continue;
                }
                ClientMsg::Shutdown => break,
            };
            self.queue.set(self.client_rx.len() as i64);
            // Global ordering: the serial, per-transaction cost.
            self.order();

            // Count, then fit: one exactly-sized batch per owner shard.
            owners.clear();
            for event in &transaction.events {
                let shard = shard_for(event.event(), shards as u64) as usize;
                owners.push(shard);
                counts[shard] += 1;
            }
            for (part, count) in parts.iter_mut().zip(&mut counts) {
                part.reserve_exact(std::mem::take(count));
            }
            let routes = pool.routes();
            let mut retained = pool.config.supervised.then(|| pool.retained.lock());
            for (event, &shard) in transaction.events.into_iter().zip(&owners) {
                if let Some(retained) = &mut retained {
                    retained.push((next_ts, event.clone()));
                }
                parts[shard].push((next_ts, event));
                next_ts += 1;
            }
            drop(retained);
            for (shard, part) in parts.iter_mut().enumerate() {
                if part.is_empty() {
                    continue;
                }
                // A dead shard fails fast — its share is counted lost and
                // sequencing continues (a dead partition must not end the
                // whole store).
                let events = part.len() as u64;
                if pool.post(&routes, shard, std::mem::take(part)) {
                    self.events_counter.add(events);
                } else {
                    pool.counters.events_lost.add(events);
                }
            }
            drop(routes);
            committed += 1;
            self.tx_counter.inc();
            self.unsequenced.fetch_sub(1, Ordering::SeqCst);
        }
        pool.stop_all();
        committed
    }
}

/// Routing: vertex events go to the owner of the vertex, edge events to
/// the owner of the source vertex.
///
/// Public because the routing function is part of the store's sharding
/// *contract*: it must be a pure function of the entity id (the shard
/// contract tests pin this), and the supervisor's replay and the sharded
/// sequencer must agree with it exactly.
pub fn shard_for(event: &GraphEvent, shards: u64) -> u64 {
    let key = match event {
        GraphEvent::AddVertex { id, .. }
        | GraphEvent::RemoveVertex { id }
        | GraphEvent::UpdateVertex { id, .. } => id.0,
        GraphEvent::AddEdge { id, .. }
        | GraphEvent::RemoveEdge { id }
        | GraphEvent::UpdateEdge { id, .. } => id.src.0,
    };
    shard_for_key(key, shards)
}

/// Fibonacci hashing for an even spread of sequential ids.
pub fn shard_for_key(key: u64, shards: u64) -> u64 {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % shards
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> StoreConfig {
        StoreConfig {
            shards: 2,
            timestamper_cost_per_tx: Duration::ZERO,
            shard_cost_per_event: Duration::ZERO,
            queue_capacity: 64,
            supervised: false,
        }
    }

    fn vertex_events(n: u64) -> Vec<GraphEvent> {
        (0..n)
            .map(|i| GraphEvent::AddVertex {
                id: VertexId(i),
                state: State::empty(),
            })
            .collect()
    }

    #[test]
    fn commits_all_events_and_reconstructs_graph() {
        let hub = MetricsHub::new();
        let store = TideStore::start(fast_config(), &hub);
        let client = store.client();
        for event in vertex_events(100) {
            client.submit(Transaction::single(event)).unwrap();
        }
        // Edges between the vertices (cross-shard order must hold).
        for i in 1..100u64 {
            client
                .submit(Transaction::single(GraphEvent::AddEdge {
                    id: EdgeId::from((i - 1, i)),
                    state: State::empty(),
                }))
                .unwrap();
        }
        let stats = store.shutdown();
        assert_eq!(stats.transactions, 199);
        assert_eq!(stats.events, 199);
        assert_eq!(stats.graph.vertex_count(), 100);
        assert_eq!(stats.graph.edge_count(), 99);
        assert_eq!(stats.crashes, 0);
        assert_eq!(stats.events_lost, 0);
        stats.graph.check_invariants().unwrap();
    }

    #[test]
    fn batched_transactions_commit_atomically_in_order() {
        let hub = MetricsHub::new();
        let store = TideStore::start(fast_config(), &hub);
        let client = store.client();
        for chunk in vertex_events(100).chunks(10) {
            client
                .submit(Transaction::from_events(chunk.iter().cloned()))
                .unwrap();
        }
        let stats = store.shutdown();
        assert_eq!(stats.transactions, 10);
        assert_eq!(stats.events, 100);
        assert_eq!(stats.graph.vertex_count(), 100);
    }

    #[test]
    fn live_counters_advance() {
        let hub = MetricsHub::new();
        let store = TideStore::start(fast_config(), &hub);
        let client = store.client();
        for event in vertex_events(10) {
            client.submit(Transaction::single(event)).unwrap();
        }
        // Drain by shutting down, then check hub counters.
        let stats = store.shutdown();
        assert_eq!(stats.events, 10);
        assert_eq!(hub.counter("store.events").get(), 10);
        assert_eq!(hub.counter("store.tx").get(), 10);
        let shard_total: u64 =
            hub.counter("shard-0.events").get() + hub.counter("shard-1.events").get();
        assert_eq!(shard_total, 10);
    }

    #[test]
    fn timestamper_cost_caps_throughput() {
        // 2 ms per tx ⇒ ceiling ≈ 500 tx/s. Offer far more for ~300 ms and
        // verify the commit rate respects the ceiling.
        let hub = MetricsHub::new();
        let store = TideStore::start(
            StoreConfig {
                shards: 2,
                timestamper_cost_per_tx: Duration::from_millis(2),
                shard_cost_per_event: Duration::ZERO,
                queue_capacity: 16,
                supervised: false,
            },
            &hub,
        );
        let client = store.client();
        let start = Instant::now();
        let mut submitted = 0u64;
        while start.elapsed() < Duration::from_millis(300) {
            if client
                .try_submit(Transaction::single(GraphEvent::AddVertex {
                    id: VertexId(submitted),
                    state: State::empty(),
                }))
                .is_ok()
            {
                submitted += 1;
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        let committed_during = store.transactions_committed();
        let rate = committed_during as f64 / elapsed;
        assert!(
            rate < 750.0,
            "ceiling should hold near 500 tx/s, measured {rate}"
        );
        // And backpressure must have rejected most of the offered load.
        let stats = store.shutdown();
        assert!(stats.transactions >= committed_during);
    }

    #[test]
    fn batching_raises_event_ceiling() {
        // Same timestamper cost; 10 events per tx must commit far more
        // events in the same wall time than 1 event per tx.
        let run = |batch: usize| -> u64 {
            let hub = MetricsHub::new();
            let store = TideStore::start(
                StoreConfig {
                    shards: 2,
                    timestamper_cost_per_tx: Duration::from_micros(1_000),
                    shard_cost_per_event: Duration::ZERO,
                    queue_capacity: 16,
                    supervised: false,
                },
                &hub,
            );
            let client = store.client();
            let start = Instant::now();
            let mut next_id = 0u64;
            while start.elapsed() < Duration::from_millis(250) {
                let events: Vec<GraphEvent> = (0..batch)
                    .map(|_| {
                        let id = next_id;
                        next_id += 1;
                        GraphEvent::AddVertex {
                            id: VertexId(id),
                            state: State::empty(),
                        }
                    })
                    .collect();
                let _ = client.try_submit(Transaction::from_events(events));
            }
            let committed = store.events_committed();
            store.shutdown();
            committed
        };
        let single = run(1);
        let batched = run(10);
        assert!(
            batched as f64 > single as f64 * 4.0,
            "batched {batched} vs single {single}"
        );
    }

    #[test]
    fn busy_accounting_shows_timestamper_dominating() {
        let hub = MetricsHub::new();
        let store = TideStore::start(
            StoreConfig {
                shards: 2,
                timestamper_cost_per_tx: Duration::from_micros(500),
                shard_cost_per_event: Duration::from_micros(10),
                queue_capacity: 16,
                supervised: false,
            },
            &hub,
        );
        let client = store.client();
        for event in vertex_events(200) {
            client.submit(Transaction::single(event)).unwrap();
        }
        store.shutdown();
        let ts_busy = hub.counter("timestamper.busy_micros").get();
        let shard_busy =
            hub.counter("shard-0.busy_micros").get() + hub.counter("shard-1.busy_micros").get();
        assert!(
            ts_busy > shard_busy * 5,
            "timestamper {ts_busy}µs vs shards {shard_busy}µs"
        );
    }

    #[test]
    fn reads_are_ordered_behind_writes() {
        let hub = MetricsHub::new();
        let store = TideStore::start(fast_config(), &hub);
        let client = store.client();
        client
            .submit(Transaction::single(GraphEvent::AddVertex {
                id: VertexId(7),
                state: State::new("v1"),
            }))
            .unwrap();
        // Read-your-writes: the read is sequenced behind the write above.
        assert_eq!(
            client.read_vertex(VertexId(7)).unwrap(),
            Some(State::new("v1"))
        );
        assert_eq!(client.read_vertex(VertexId(8)).unwrap(), None);

        client
            .submit(Transaction::single(GraphEvent::UpdateVertex {
                id: VertexId(7),
                state: State::new("v2"),
            }))
            .unwrap();
        assert_eq!(
            client.read_vertex(VertexId(7)).unwrap(),
            Some(State::new("v2"))
        );
        store.shutdown();
    }

    #[test]
    fn edge_reads() {
        let hub = MetricsHub::new();
        let store = TideStore::start(fast_config(), &hub);
        let client = store.client();
        for event in vertex_events(2) {
            client.submit(Transaction::single(event)).unwrap();
        }
        let edge = EdgeId::from((0, 1));
        client
            .submit(Transaction::single(GraphEvent::AddEdge {
                id: edge,
                state: State::weight(2.5),
            }))
            .unwrap();
        assert_eq!(client.read_edge(edge).unwrap(), Some(State::weight(2.5)));
        client
            .submit(Transaction::single(GraphEvent::RemoveEdge { id: edge }))
            .unwrap();
        assert_eq!(client.read_edge(edge).unwrap(), None);
        store.shutdown();
    }

    #[test]
    fn reads_after_shutdown_error() {
        let hub = MetricsHub::new();
        let store = TideStore::start(fast_config(), &hub);
        let client = store.client();
        store.shutdown();
        assert!(client.read_vertex(VertexId(0)).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        TideStore::start(
            StoreConfig {
                shards: 0,
                ..fast_config()
            },
            &MetricsHub::new(),
        );
    }

    /// Which shard owns a vertex id — helper for crash tests that need to
    /// know where events land.
    fn shard_of(id: u64, shards: u64) -> u64 {
        shard_for_key(id, shards)
    }

    /// Waits for an injected crash to land (the kill travels through the
    /// shard's queue behind its backlog).
    fn wait_dead(supervisor: &Arc<dyn WorkerSupervisor>, shard: usize) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while supervisor.inject_crash(shard) {
            assert!(Instant::now() < deadline, "shard {shard} never died");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn shard_crash_is_contained_without_supervision() {
        let hub = MetricsHub::new();
        let store = TideStore::start(fast_config(), &hub);
        let client = store.client();
        for event in vertex_events(50) {
            client.submit(Transaction::single(event)).unwrap();
        }
        let supervisor = store.supervisor();
        assert_eq!(supervisor.worker_count(), 2);
        assert!(supervisor.inject_crash(0));
        assert!(!supervisor.restart_worker(0), "unsupervised restart");
        wait_dead(&supervisor, 0);

        // The timestamper keeps sequencing: events to the dead shard are
        // lost, events to the survivor commit, and reads to the dead
        // shard fail instead of hanging.
        for event in vertex_events(50).into_iter().map(|e| match e {
            GraphEvent::AddVertex { id, state } => GraphEvent::AddVertex {
                id: VertexId(id.0 + 100),
                state,
            },
            other => other,
        }) {
            client.submit(Transaction::single(event)).unwrap();
        }
        let dead_vertex = (0..50u64).find(|&i| shard_of(i, 2) == 0).unwrap();
        assert_eq!(client.read_vertex(VertexId(dead_vertex)), Err(StoreClosed));

        let stats = store.shutdown();
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.restarts, 0);
        assert!(stats.events_lost > 0, "no events routed to the dead shard");
        // The survivor's share of the second wave made it in.
        let survivor_second_wave = (100..150u64).filter(|&i| shard_of(i, 2) == 1).count();
        assert!(stats.graph.vertex_count() >= survivor_second_wave);
        // And the dead shard's state is gone from the reconstruction.
        assert!(stats.graph.vertex_count() < 100);
    }

    #[test]
    fn a_crashed_shards_abandoned_backlog_is_counted_lost_by_event() {
        let hub = MetricsHub::new();
        let store = TideStore::start(
            StoreConfig {
                shard_cost_per_event: Duration::from_millis(1),
                ..fast_config()
            },
            &hub,
        );
        let client = store.client();
        // The first wave keeps both shards busy for ~20 ms, so the second
        // wave queues up *behind* the crash and is abandoned with it.
        for chunk in vertex_events(40).chunks(4) {
            client
                .submit(Transaction::from_events(chunk.iter().cloned()))
                .unwrap();
        }
        // Routed (microseconds), not yet applied (milliseconds): the crash
        // lands behind the whole first wave.
        while store.transactions_committed() < 10 {
            std::thread::yield_now();
        }
        let supervisor = store.supervisor();
        assert!(supervisor.inject_crash(0));
        let second: Vec<GraphEvent> = (100..140u64)
            .map(|i| GraphEvent::AddVertex {
                id: VertexId(i),
                state: State::empty(),
            })
            .collect();
        for chunk in second.chunks(4) {
            client
                .submit(Transaction::from_events(chunk.iter().cloned()))
                .unwrap();
        }
        wait_dead(&supervisor, 0);
        // The dead shard's backlog is lost, not pending: only the
        // survivor's share holds the wait.
        assert!(store.quiesce(Duration::from_secs(10)));
        let stats = store.shutdown();
        let owed_to_dead = (100..140u64).filter(|&i| shard_of(i, 2) == 0).count() as u64;
        assert!(owed_to_dead > 4, "second wave missed the dead shard");
        assert_eq!(stats.events_lost, owed_to_dead);
        // The survivor applied its whole share; the dead shard's log (its
        // share of the first wave) died with it.
        let survivor = (0..40u64).chain(100..140).filter(|&i| shard_of(i, 2) == 1);
        assert_eq!(stats.events, survivor.count() as u64);
    }

    #[test]
    fn quiesce_waits_for_the_shards_to_apply() {
        let hub = MetricsHub::new();
        let store = TideStore::start(
            StoreConfig {
                shard_cost_per_event: Duration::from_millis(2),
                ..fast_config()
            },
            &hub,
        );
        let client = store.client();
        for chunk in vertex_events(40).chunks(5) {
            client
                .submit(Transaction::from_events(chunk.iter().cloned()))
                .unwrap();
        }
        let applied = || hub.counter("shard-0.events").get() + hub.counter("shard-1.events").get();
        // ~40 ms of shard work is queued: a timeout shorter than that
        // reports "not drained" instead of pretending.
        assert!(!store.quiesce(Duration::from_millis(1)));
        assert!(applied() < 40);
        assert!(store.quiesce(Duration::from_secs(10)));
        assert_eq!(applied(), 40);
        assert_eq!(hub.counter("store.events").get(), 40);
        store.shutdown();
    }

    #[test]
    fn supervised_restart_rebuilds_shard_by_replay() {
        let hub = MetricsHub::new();
        let store = TideStore::start(
            StoreConfig {
                supervised: true,
                ..fast_config()
            },
            &hub,
        );
        let client = store.client();
        for event in vertex_events(60) {
            client.submit(Transaction::single(event)).unwrap();
        }
        // `submit` returns before the timestamper routes, while the crash
        // goes straight onto shard 1's queue: without this wait the crash
        // can overtake every event, leaving nothing to replay.
        assert!(store.quiesce(Duration::from_secs(10)));
        let supervisor = store.supervisor();
        assert!(supervisor.inject_crash(1));
        assert!(supervisor.restart_worker(1));

        // Post-restart traffic lands normally again, including reads
        // served from the replayed state.
        for i in 60..80u64 {
            client
                .submit(Transaction::single(GraphEvent::AddVertex {
                    id: VertexId(i),
                    state: State::empty(),
                }))
                .unwrap();
        }
        let replayed_vertex = (0..60u64).find(|&i| shard_of(i, 2) == 1).unwrap();
        assert_eq!(
            client.read_vertex(VertexId(replayed_vertex)).unwrap(),
            Some(State::empty())
        );

        let stats = store.shutdown();
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.restarts, 1);
        assert_eq!(stats.events_lost, 0);
        let owed_to_crashed = (0..60u64).filter(|&i| shard_of(i, 2) == 1).count() as u64;
        assert_eq!(stats.events_replayed, owed_to_crashed);
        // Replay rebuilt the crashed shard's log: the reconstruction is
        // complete.
        assert_eq!(stats.graph.vertex_count(), 80);
    }

    #[test]
    fn restart_out_of_range_or_alive_refuses() {
        let hub = MetricsHub::new();
        let store = TideStore::start(
            StoreConfig {
                supervised: true,
                ..fast_config()
            },
            &hub,
        );
        let supervisor = store.supervisor();
        assert!(!supervisor.inject_crash(9));
        assert!(!supervisor.restart_worker(9));
        store.shutdown();
    }
}

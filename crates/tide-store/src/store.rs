//! The store runtime: client → sequencer → shards.
//!
//! There is one [`TideStore`] and one [`StoreClient`]; the constructor
//! chooses who sequences:
//!
//! * [`TideStore::start`] — the **timestamper**: clients queue their
//!   traffic for one thread, which pays the ordering cost per transaction
//!   and routes it. This is the Weaver-style bottleneck the paper measures
//!   (figs 3b/3c).
//! * [`TideStore::start_sharded`] — the **router**: each client routes its
//!   own transactions on the submitting thread, and every shard pays the
//!   ordering cost once per batch it receives, concurrently with its
//!   peers — the scaling counter-move.
//!
//! Both run one routing body: stamp each event with the next commit
//! timestamp, split the transaction per owner shard ([`shard_for`]),
//! retain it in supervised mode, post one batch per shard and book each
//! share delivered or lost (see [`crate::shard`] for the shard side).
//! Events travel as [`SharedGraphEvent`] handles from the connector into
//! the shard logs *and* the shard state — no per-event payload copies
//! anywhere on the path. One entity's events always meet the same shard in
//! submission order, and with a single client the commit timestamps are
//! the stream positions behind either sequencer, so both reconstruct a
//! bit-identical graph (the differential oracle pins it).
//!
//! # Markers
//!
//! A marker records its *cut* — the commit timestamp current when it is
//! sequenced, so log entries below the cut are exactly the events
//! sequenced before it — and is then broadcast to every shard behind the
//! batches already queued there. The cut is recorded by the sequencer,
//! not inside any shard, so it survives shard crashes; a dead shard is
//! skipped and counted (`store.marker_skips`).
//!
//! # Crash containment and supervised recovery
//!
//! Shards are *crash-containable*: a crash message delivered through
//! the store's [`gt_sut::WorkerSupervisor`] (see [`TideStore::supervisor`])
//! makes the shard discard its state and log and exit, like a killed
//! process. Sequencing continues — events routed to a dead shard, and the
//! backlog a dying shard abandons, are counted as lost
//! (`store.events_lost`, by event) instead of silently ending the run,
//! reads routed to a dead shard fail with [`StoreClosed`] rather than
//! hanging, and shutdown joins dead shards tolerantly. In *supervised* mode
//! ([`StoreConfig::supervised`]) the routing body additionally retains
//! every committed `(timestamp, event)` pair, so a crashed shard can be
//! restarted and rebuilt by replaying its share of the retained log with
//! the original timestamps.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender};
use gt_core::prelude::*;
use gt_graph::EvolvingGraph;
use gt_metrics::hub::{Gauge, MicrosCounter};
use gt_metrics::MetricsHub;
use gt_sut::WorkerSupervisor;
use gt_trace::TracerCell;

use crate::shard::{busy_work, ShardLog, ShardMsg, ShardPool, StoreSupervisor};

/// Store configuration.
///
/// The two cost knobs model where a Weaver-class system spends its time:
/// global transaction ordering (per transaction at the timestamper, per
/// received batch at each shard behind the router) and partition writes
/// (shards, per event). Behind the timestamper the throughput ceiling for
/// a batch size `k` is approximately
/// `k / max(timestamper_cost_per_tx, k * shard_cost_per_event / shards)`.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Number of shard worker threads.
    pub shards: usize,
    /// Simulated ordering cost: per transaction at the timestamper, per
    /// received batch at each shard behind the router.
    pub timestamper_cost_per_tx: Duration,
    /// Simulated write cost per event at a shard.
    pub shard_cost_per_event: Duration,
    /// Capacity of the client→timestamper queue (in transactions) and of
    /// each shard queue (in transaction shares: one slot holds the events
    /// of one transaction owed to that shard); full queues backpressure
    /// the sender (the paper's "backthrottling").
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
/// consecutive commit timestamps.
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

/// Client traffic queued for the timestamper. The shutdown sentinel
/// (rather than channel disconnect) ends it, so shutdown completes even
/// while client handles are still alive.
enum ClientMsg {
    Tx(Transaction),
    /// A read for the shard owning the key: sequenced like a transaction,
    /// so reads are ordered against writes (the refinable-timestamp
    /// discipline, simplified to a single global sequencer).
    Read(u64, ShardMsg),
    Marker(String),
    Shutdown,
}

/// Where a client's traffic is sequenced.
#[derive(Clone)]
enum Sequencer {
    /// Queued for the timestamper thread.
    Timestamper(Sender<ClientMsg>),
    /// Routed on the submitting thread, through this client's own scratch.
    Router(Router),
}

/// A client handle; cloneable, blocking on backpressure.
#[derive(Clone)]
pub struct StoreClient {
    pool: Arc<ShardPool>,
    sequencer: Sequencer,
}

impl StoreClient {
    /// Submits a transaction, blocking on backpressure — a full ingestion
    /// queue behind the timestamper, a full owner-shard queue behind the
    /// router. Returns the transaction back when the store has shut down.
    pub fn submit(&mut self, transaction: Transaction) -> Result<(), Transaction> {
        let pool = &self.pool;
        match &mut self.sequencer {
            Sequencer::Timestamper(queue) => {
                pool.unsequenced.fetch_add(1, Ordering::SeqCst);
                queue.send(ClientMsg::Tx(transaction)).map_err(|refused| {
                    pool.unsequenced.fetch_sub(1, Ordering::SeqCst);
                    match refused.0 {
                        ClientMsg::Tx(transaction) => transaction,
                        _ => unreachable!("a transaction was sent"),
                    }
                })
            }
            Sequencer::Router(_) if pool.stopping.load(Ordering::SeqCst) => Err(transaction),
            Sequencer::Router(router) => {
                router.route(pool, transaction.events);
                Ok(())
            }
        }
    }

    /// Reads a vertex's current state, ordered behind every write this
    /// client submitted before it. `None` if the vertex does not exist;
    /// `Err(StoreClosed)` if the store has shut down — or if the owning
    /// shard has crashed (its partition is unavailable until a supervised
    /// restart).
    pub fn read_vertex(&self, id: VertexId) -> Result<Option<State>, StoreClosed> {
        self.read(id.0, |reply| ShardMsg::ReadVertex(id, reply))
    }

    /// Reads an edge's current state from the shard owning its source;
    /// same semantics as [`Self::read_vertex`].
    pub fn read_edge(&self, id: EdgeId) -> Result<Option<State>, StoreClosed> {
        self.read(id.src.0, |reply| ShardMsg::ReadEdge(id, reply))
    }

    /// Sends a read for the owner of `key` through the sequencer — behind
    /// the timestamper at the ordering cost of a transaction — and waits
    /// for the reply.
    fn read(
        &self,
        key: u64,
        msg: impl FnOnce(Sender<Option<State>>) -> ShardMsg,
    ) -> Result<Option<State>, StoreClosed> {
        let (reply_tx, reply_rx) = bounded(1);
        match &self.sequencer {
            Sequencer::Timestamper(queue) => queue
                .send(ClientMsg::Read(key, msg(reply_tx)))
                .map_err(|_| StoreClosed)?,
            Sequencer::Router(_) => self.pool.read(key, msg(reply_tx)),
        }
        reply_rx.recv().map_err(|_| StoreClosed)
    }

    /// Submits a watermark: the store records its cut and broadcasts it to
    /// every shard (see [`StoreStats::markers`]).
    pub fn marker(&self, name: &str) -> Result<(), StoreClosed> {
        match &self.sequencer {
            Sequencer::Timestamper(queue) => queue
                .send(ClientMsg::Marker(name.to_owned()))
                .map_err(|_| StoreClosed),
            Sequencer::Router(_) if self.pool.stopping.load(Ordering::SeqCst) => Err(StoreClosed),
            Sequencer::Router(_) => {
                self.pool.mark(name);
                Ok(())
            }
        }
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
    /// Commit timestamps per shard slot, in apply order. With a single
    /// client and no faults each list is strictly increasing and equals
    /// the input positions routed to that shard. Recorded behind the
    /// router only, where that order is the clients' doing; behind the
    /// timestamper it holds by construction (one thread posts every
    /// share in commit order), and the lists stay empty rather than add
    /// 8 bytes per event to the shutdown's peak.
    pub per_shard_seqs: Vec<Vec<u64>>,
    /// Marker sightings `(name, shard)` in processing order: each marker
    /// appears once per shard that was alive to receive it.
    pub shard_markers: Vec<(String, usize)>,
    /// Marker deliveries skipped because the shard was dead.
    pub marker_skips: u64,
}

/// The running store.
pub struct TideStore {
    pool: Arc<ShardPool>,
    /// The timestamper's ingestion queue and thread; `None` behind the
    /// router.
    timestamper: Option<(Sender<ClientMsg>, JoinHandle<()>)>,
}

impl TideStore {
    /// Starts the store behind the **timestamper**: one thread orders every
    /// transaction at `config.timestamper_cost_per_tx` and routes it to
    /// `config.shards` shard threads. Metrics are registered on `hub`:
    ///
    /// * `store.tx` / `store.events` — committed counts,
    /// * `timestamper.busy_micros`, `shard-N.busy_micros` — per-component
    ///   simulated CPU time,
    /// * `timestamper.queue` — ingestion queue length gauge,
    /// * `store.crashes` / `store.restarts` / `store.events_lost` /
    ///   `store.events_replayed` / `store.marker_skips` — fault and
    ///   recovery activity.
    pub fn start(config: StoreConfig, hub: &MetricsHub) -> Self {
        let (queue, queue_rx) = bounded::<ClientMsg>(config.queue_capacity);
        let timestamper = Timestamper {
            cost: config.timestamper_cost_per_tx,
            // The timestamper pays for ordering; its shards pay per event
            // only.
            pool: ShardPool::start(config, Duration::ZERO, hub),
            queue: queue_rx,
            busy: MicrosCounter::new(hub.counter("timestamper.busy_micros")),
            queue_len: hub.gauge("timestamper.queue"),
        };
        let pool = Arc::clone(&timestamper.pool);
        let thread = std::thread::Builder::new()
            .name("tide-store-timestamper".into())
            .spawn(move || timestamper.run())
            .expect("spawn timestamper");
        TideStore {
            pool,
            timestamper: Some((queue, thread)),
        }
    }

    /// Starts the store behind the **router**: no central stage — each
    /// client routes its own transactions on the submitting thread, and
    /// each of the `config.shards` shards pays `timestamper_cost_per_tx`
    /// once per batch it receives. The metrics of [`Self::start`] without
    /// the two `timestamper.*` ones.
    pub fn start_sharded(config: StoreConfig, hub: &MetricsHub) -> Self {
        let batch_cost = config.timestamper_cost_per_tx;
        TideStore {
            pool: ShardPool::start(config, batch_cost, hub),
            timestamper: None,
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
        let sequencer = match &self.timestamper {
            Some((queue, _)) => Sequencer::Timestamper(queue.clone()),
            None => Sequencer::Router(Router::new(self.pool.config.shards)),
        };
        StoreClient {
            pool: Arc::clone(&self.pool),
            sequencer,
        }
    }

    /// Events committed so far (live).
    pub fn events_committed(&self) -> u64 {
        self.pool.counters.events.get()
    }

    /// Transactions committed so far (live).
    pub fn transactions_committed(&self) -> u64 {
        self.pool.counters.tx.get()
    }

    /// Blocks until every transaction submitted before the call has been
    /// *applied* — none waits for the timestamper, and every live shard
    /// has applied every event enqueued to it — or the timeout elapses. A
    /// dead shard's backlog is lost, not pending, so it does not hold the
    /// wait.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        self.pool.quiesce(timeout)
    }

    /// Stops ingestion, drains all queues, joins all threads, and
    /// reconstructs the committed graph from the shard logs.
    ///
    /// Everything sequenced before this call commits; client handles that
    /// outlive the store receive errors on subsequent submits. Crashed
    /// shards are joined tolerantly — their events are simply absent from
    /// the reconstruction (unless a supervised restart replayed them) —
    /// and a shard that *panicked* is contained and counted as a crash
    /// instead of poisoning the run.
    pub fn shutdown(self) -> StoreStats {
        self.pool.stopping.store(true, Ordering::SeqCst);
        let routed = self.timestamper.is_none();
        if let Some((queue, thread)) = self.timestamper {
            let _ = queue.send(ClientMsg::Shutdown);
            // A panicked timestamper is contained: the join below still
            // stops the shards, and the counters stand in for it.
            let _ = thread.join();
        }
        self.pool.stats(self.pool.join(), routed)
    }
}

/// The timestamper thread: the ingestion queue, and the ordering cost it
/// pays per transaction and per read.
struct Timestamper {
    queue: Receiver<ClientMsg>,
    pool: Arc<ShardPool>,
    cost: Duration,
    busy: MicrosCounter,
    queue_len: Gauge,
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

    /// Sequences client traffic until the shutdown sentinel.
    fn run(self) {
        let pool = &*self.pool;
        let mut router = Router::new(pool.config.shards);
        while let Ok(msg) = self.queue.recv() {
            match msg {
                ClientMsg::Tx(transaction) => {
                    self.queue_len.set(self.queue.len() as i64);
                    // Global ordering: the serial, per-transaction cost.
                    self.order();
                    router.route(pool, transaction.events);
                    pool.unsequenced.fetch_sub(1, Ordering::SeqCst);
                }
                ClientMsg::Read(key, msg) => {
                    self.order();
                    pool.read(key, msg);
                }
                // Markers are control traffic: they pay no ordering cost.
                ClientMsg::Marker(name) => pool.mark(&name),
                ClientMsg::Shutdown => break,
            }
        }
    }
}

/// The routing body both sequencers run, and its scratch, reused across
/// transactions: each event's owner shard, the events owed to each shard,
/// and the batch being filled for it (taken by the post, so empty between
/// transactions).
#[derive(Clone)]
struct Router {
    owners: Vec<usize>,
    counts: Vec<usize>,
    parts: Vec<ShardLog>,
}

impl Router {
    fn new(shards: usize) -> Self {
        Router {
            owners: Vec::new(),
            counts: vec![0; shards],
            parts: vec![Vec::new(); shards],
        }
    }

    /// Stamps a transaction's events with consecutive commit timestamps,
    /// retains them in supervised mode, posts one exactly-sized batch per
    /// owner shard and books each share delivered or lost.
    fn route(&mut self, pool: &ShardPool, events: Vec<SharedGraphEvent>) {
        let shards = self.parts.len() as u64;
        // Count, then fit: one exactly-sized batch per owner shard.
        self.owners.clear();
        for event in &events {
            let shard = shard_for(event.event(), shards) as usize;
            self.owners.push(shard);
            self.counts[shard] += 1;
        }
        for (part, count) in self.parts.iter_mut().zip(&mut self.counts) {
            part.reserve_exact(std::mem::take(count));
        }
        let routes = pool.routes();
        let first = pool
            .next_ts
            .fetch_add(events.len() as u64, Ordering::SeqCst);
        let mut retained = pool.config.supervised.then(|| pool.retained.lock());
        for (ts, (event, &shard)) in (first..).zip(events.into_iter().zip(&self.owners)) {
            if let Some(retained) = &mut retained {
                retained.push((ts, event.clone()));
            }
            self.parts[shard].push((ts, event));
        }
        drop(retained);
        for (shard, part) in self.parts.iter_mut().enumerate() {
            if part.is_empty() {
                continue;
            }
            // A dead shard fails fast — its share is counted lost and
            // sequencing continues (a dead partition must not end the
            // whole store).
            let events = part.len() as u64;
            if pool.post(&routes, shard, std::mem::take(part)) {
                pool.counters.events.add(events);
            } else {
                pool.counters.events_lost.add(events);
            }
        }
        pool.counters.tx.inc();
    }
}

/// Routing: vertex events go to the owner of the vertex, edge events to
/// the owner of the source vertex.
///
/// Public because the routing function is part of the store's sharding
/// *contract*: it must be a pure function of the entity id (the shard
/// contract tests pin this), and the supervisor's replay must agree with
/// the routing body exactly.
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

    type Start = fn(StoreConfig, &MetricsHub) -> TideStore;

    /// Both sequencers, for every behaviour that is not about the
    /// timestamper's own ordering cost.
    const SEQUENCERS: [(&str, Start); 2] = [
        ("timestamper", TideStore::start),
        ("router", TideStore::start_sharded),
    ];

    fn fast_config() -> StoreConfig {
        StoreConfig {
            shards: 2,
            timestamper_cost_per_tx: Duration::ZERO,
            shard_cost_per_event: Duration::ZERO,
            queue_capacity: 64,
            supervised: false,
        }
    }

    fn vertex_events(ids: std::ops::Range<u64>) -> Vec<GraphEvent> {
        ids.map(|i| GraphEvent::AddVertex {
            id: VertexId(i),
            state: State::empty(),
        })
        .collect()
    }

    #[test]
    fn commits_all_events_and_reconstructs_graph() {
        for (name, start) in SEQUENCERS {
            let hub = MetricsHub::new();
            let store = start(fast_config(), &hub);
            let mut client = store.client();
            for event in vertex_events(0..100) {
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
            assert_eq!(stats.transactions, 199, "{name}");
            assert_eq!(stats.events, 199, "{name}");
            assert_eq!(stats.graph.vertex_count(), 100, "{name}");
            assert_eq!(stats.graph.edge_count(), 99, "{name}");
            assert_eq!(stats.crashes, 0, "{name}");
            assert_eq!(stats.events_lost, 0, "{name}");
            // Timestamps cover the stream positions exactly once.
            let timestamps: Vec<u64> = stats.log.iter().map(|(ts, _)| *ts).collect();
            assert_eq!(timestamps, (0..199).collect::<Vec<_>>(), "{name}");
            stats.graph.check_invariants().unwrap();
        }
    }

    #[test]
    fn batched_transactions_commit_atomically_in_order() {
        for (name, start) in SEQUENCERS {
            let hub = MetricsHub::new();
            let store = start(fast_config(), &hub);
            let mut client = store.client();
            for chunk in vertex_events(0..100).chunks(10) {
                client
                    .submit(Transaction::from_events(chunk.iter().cloned()))
                    .unwrap();
            }
            let stats = store.shutdown();
            assert_eq!(stats.transactions, 10, "{name}");
            assert_eq!(stats.events, 100, "{name}");
            assert_eq!(stats.graph.vertex_count(), 100, "{name}");
        }
    }

    #[test]
    fn live_counters_advance() {
        for (name, start) in SEQUENCERS {
            let hub = MetricsHub::new();
            let store = start(fast_config(), &hub);
            let mut client = store.client();
            for event in vertex_events(0..10) {
                client.submit(Transaction::single(event)).unwrap();
            }
            // Drain by shutting down, then check hub counters.
            let stats = store.shutdown();
            assert_eq!(stats.events, 10, "{name}");
            assert_eq!(hub.counter("store.events").get(), 10, "{name}");
            assert_eq!(hub.counter("store.tx").get(), 10, "{name}");
            let shard_total: u64 =
                hub.counter("shard-0.events").get() + hub.counter("shard-1.events").get();
            assert_eq!(shard_total, 10, "{name}");
        }
    }

    #[test]
    fn per_shard_logs_preserve_submission_order() {
        let hub = MetricsHub::new();
        let store = TideStore::start_sharded(
            StoreConfig {
                shards: 3,
                ..fast_config()
            },
            &hub,
        );
        let mut client = store.client();
        let events = vertex_events(0..200);
        for event in &events {
            client.submit(Transaction::single(event.clone())).unwrap();
        }
        let stats = store.shutdown();
        assert_eq!(stats.per_shard_seqs.len(), 3);
        for (shard, seqs) in stats.per_shard_seqs.iter().enumerate() {
            let expected: Vec<u64> = (0..200u64)
                .filter(|i| shard_for(&events[*i as usize], 3) == shard as u64)
                .collect();
            assert_eq!(seqs, &expected, "shard {shard}");
        }
    }

    #[test]
    fn markers_cut_and_reach_every_shard() {
        for (name, start) in SEQUENCERS {
            let hub = MetricsHub::new();
            let store = start(
                StoreConfig {
                    shards: 4,
                    ..fast_config()
                },
                &hub,
            );
            let mut client = store.client();
            for event in vertex_events(0..10) {
                client.submit(Transaction::single(event)).unwrap();
            }
            client.marker("mid").unwrap();
            for event in vertex_events(100..110) {
                client.submit(Transaction::single(event)).unwrap();
            }
            let stats = store.shutdown();
            assert_eq!(stats.markers, vec![("mid".to_owned(), 10)], "{name}");
            let mut sightings: Vec<usize> = stats
                .shard_markers
                .iter()
                .filter(|(marker, _)| marker == "mid")
                .map(|(_, shard)| *shard)
                .collect();
            sightings.sort_unstable();
            assert_eq!(sightings, vec![0, 1, 2, 3], "{name}: once per shard");
            assert_eq!(stats.marker_skips, 0, "{name}");
        }
    }

    #[test]
    fn timestamper_cost_caps_throughput() {
        // 2 ms per tx ⇒ ceiling ≈ 500 tx/s. Offer far more for ~300 ms and
        // verify the commit rate respects the ceiling.
        let hub = MetricsHub::new();
        let store = TideStore::start(
            StoreConfig {
                timestamper_cost_per_tx: Duration::from_millis(2),
                queue_capacity: 16,
                ..fast_config()
            },
            &hub,
        );
        let mut client = store.client();
        let start = Instant::now();
        let mut submitted = 0u64;
        while start.elapsed() < Duration::from_millis(300) {
            client
                .submit(Transaction::single(GraphEvent::AddVertex {
                    id: VertexId(submitted),
                    state: State::empty(),
                }))
                .unwrap();
            submitted += 1;
        }
        let elapsed = start.elapsed().as_secs_f64();
        let committed_during = store.transactions_committed();
        let rate = committed_during as f64 / elapsed;
        assert!(
            rate < 750.0,
            "ceiling should hold near 500 tx/s, measured {rate}"
        );
        let stats = store.shutdown();
        assert!(stats.transactions >= committed_during);
    }

    #[test]
    fn batching_raises_event_ceiling() {
        // Same timestamper cost; 10 events per tx must commit far more
        // events in the same wall time than 1 event per tx.
        let run = |batch: u64| -> u64 {
            let hub = MetricsHub::new();
            let store = TideStore::start(
                StoreConfig {
                    timestamper_cost_per_tx: Duration::from_micros(1_000),
                    queue_capacity: 16,
                    ..fast_config()
                },
                &hub,
            );
            let mut client = store.client();
            let start = Instant::now();
            let mut next_id = 0u64;
            while start.elapsed() < Duration::from_millis(250) {
                let events = vertex_events(next_id..next_id + batch);
                next_id += batch;
                client.submit(Transaction::from_events(events)).unwrap();
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
                timestamper_cost_per_tx: Duration::from_micros(500),
                shard_cost_per_event: Duration::from_micros(10),
                queue_capacity: 16,
                ..fast_config()
            },
            &hub,
        );
        let mut client = store.client();
        for event in vertex_events(0..200) {
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
        for (name, start) in SEQUENCERS {
            let hub = MetricsHub::new();
            let store = start(fast_config(), &hub);
            let mut client = store.client();
            client
                .submit(Transaction::single(GraphEvent::AddVertex {
                    id: VertexId(7),
                    state: State::new("v1"),
                }))
                .unwrap();
            // Read-your-writes: the read is sequenced behind the write above.
            assert_eq!(
                client.read_vertex(VertexId(7)).unwrap(),
                Some(State::new("v1")),
                "{name}"
            );
            assert_eq!(client.read_vertex(VertexId(8)).unwrap(), None, "{name}");

            client
                .submit(Transaction::single(GraphEvent::UpdateVertex {
                    id: VertexId(7),
                    state: State::new("v2"),
                }))
                .unwrap();
            assert_eq!(
                client.read_vertex(VertexId(7)).unwrap(),
                Some(State::new("v2")),
                "{name}"
            );
            store.shutdown();
        }
    }

    #[test]
    fn edge_reads() {
        for (name, start) in SEQUENCERS {
            let hub = MetricsHub::new();
            let store = start(fast_config(), &hub);
            let mut client = store.client();
            for event in vertex_events(0..2) {
                client.submit(Transaction::single(event)).unwrap();
            }
            let edge = EdgeId::from((0, 1));
            client
                .submit(Transaction::single(GraphEvent::AddEdge {
                    id: edge,
                    state: State::weight(2.5),
                }))
                .unwrap();
            assert_eq!(
                client.read_edge(edge).unwrap(),
                Some(State::weight(2.5)),
                "{name}"
            );
            client
                .submit(Transaction::single(GraphEvent::RemoveEdge { id: edge }))
                .unwrap();
            assert_eq!(client.read_edge(edge).unwrap(), None, "{name}");
            store.shutdown();
        }
    }

    #[test]
    fn traffic_after_shutdown_errors() {
        for (name, start) in SEQUENCERS {
            let hub = MetricsHub::new();
            let store = start(fast_config(), &hub);
            let mut client = store.client();
            store.shutdown();
            assert!(client.read_vertex(VertexId(0)).is_err(), "{name}");
            assert!(client.marker("late").is_err(), "{name}");
            let late = Transaction::from_events(vertex_events(0..1));
            assert_eq!(client.submit(late.clone()), Err(late), "{name}");
        }
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
    fn shard_of(id: u64) -> u64 {
        shard_for_key(id, 2)
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
        for (name, start) in SEQUENCERS {
            let hub = MetricsHub::new();
            let store = start(fast_config(), &hub);
            let mut client = store.client();
            for event in vertex_events(0..50) {
                client.submit(Transaction::single(event)).unwrap();
            }
            let supervisor = store.supervisor();
            assert_eq!(supervisor.worker_count(), 2);
            assert!(supervisor.inject_crash(0), "{name}");
            assert!(
                !supervisor.restart_worker(0),
                "{name}: unsupervised restart"
            );
            wait_dead(&supervisor, 0);

            // Sequencing continues: events to the dead shard are lost,
            // events to the survivor commit, reads to the dead shard fail
            // instead of hanging, and a marker skips the dead shard.
            for event in vertex_events(100..150) {
                client.submit(Transaction::single(event)).unwrap();
            }
            let dead_vertex = (0..50u64).find(|&i| shard_of(i) == 0).unwrap();
            assert_eq!(
                client.read_vertex(VertexId(dead_vertex)),
                Err(StoreClosed),
                "{name}"
            );
            client.marker("after-crash").unwrap();

            let stats = store.shutdown();
            assert_eq!(stats.crashes, 1, "{name}");
            assert_eq!(stats.restarts, 0, "{name}");
            assert!(
                stats.events_lost > 0,
                "{name}: no events routed to the dead shard"
            );
            // The survivor's share of the second wave made it in.
            let survivor_second_wave = (100..150u64).filter(|&i| shard_of(i) == 1).count();
            assert!(stats.graph.vertex_count() >= survivor_second_wave, "{name}");
            // And the dead shard's state is gone from the reconstruction.
            assert!(stats.graph.vertex_count() < 100, "{name}");
            assert_eq!(stats.marker_skips, 1, "{name}");
            assert_eq!(
                stats.shard_markers,
                vec![("after-crash".to_owned(), 1)],
                "{name}"
            );
        }
    }

    #[test]
    fn a_crashed_shards_abandoned_backlog_is_counted_lost_by_event() {
        for (name, start) in SEQUENCERS {
            let hub = MetricsHub::new();
            let store = start(
                StoreConfig {
                    shard_cost_per_event: Duration::from_millis(1),
                    ..fast_config()
                },
                &hub,
            );
            let mut client = store.client();
            // The first wave keeps both shards busy for ~20 ms, so the
            // second wave queues up *behind* the crash and is abandoned
            // with it.
            for chunk in vertex_events(0..40).chunks(4) {
                client
                    .submit(Transaction::from_events(chunk.iter().cloned()))
                    .unwrap();
            }
            // Routed (microseconds), not yet applied (milliseconds): the
            // crash lands behind the whole first wave.
            while store.transactions_committed() < 10 {
                std::thread::yield_now();
            }
            let supervisor = store.supervisor();
            assert!(supervisor.inject_crash(0), "{name}");
            for chunk in vertex_events(100..140).chunks(4) {
                client
                    .submit(Transaction::from_events(chunk.iter().cloned()))
                    .unwrap();
            }
            wait_dead(&supervisor, 0);
            // The dead shard's backlog is lost, not pending: only the
            // survivor's share holds the wait.
            assert!(store.quiesce(Duration::from_secs(10)), "{name}");
            let stats = store.shutdown();
            let owed_to_dead = (100..140u64).filter(|&i| shard_of(i) == 0).count() as u64;
            assert!(owed_to_dead > 4, "second wave missed the dead shard");
            assert_eq!(stats.events_lost, owed_to_dead, "{name}");
            // The survivor applied its whole share; the dead shard's log
            // (its share of the first wave) died with it.
            let survivor = (0..40u64).chain(100..140).filter(|&i| shard_of(i) == 1);
            assert_eq!(stats.events, survivor.count() as u64, "{name}");
        }
    }

    #[test]
    fn quiesce_waits_for_the_shards_to_apply() {
        for (name, start) in SEQUENCERS {
            let hub = MetricsHub::new();
            let store = start(
                StoreConfig {
                    shard_cost_per_event: Duration::from_millis(2),
                    ..fast_config()
                },
                &hub,
            );
            let mut client = store.client();
            for chunk in vertex_events(0..40).chunks(5) {
                client
                    .submit(Transaction::from_events(chunk.iter().cloned()))
                    .unwrap();
            }
            let applied =
                || hub.counter("shard-0.events").get() + hub.counter("shard-1.events").get();
            // ~40 ms of shard work is queued: a timeout shorter than that
            // reports "not drained" instead of pretending.
            assert!(!store.quiesce(Duration::from_millis(1)), "{name}");
            assert!(applied() < 40, "{name}");
            assert!(store.quiesce(Duration::from_secs(10)), "{name}");
            assert_eq!(applied(), 40, "{name}");
            assert_eq!(hub.counter("store.events").get(), 40, "{name}");
            store.shutdown();
        }
    }

    #[test]
    fn supervised_restart_rebuilds_shard_by_replay() {
        for (name, start) in SEQUENCERS {
            let hub = MetricsHub::new();
            let store = start(
                StoreConfig {
                    supervised: true,
                    ..fast_config()
                },
                &hub,
            );
            let mut client = store.client();
            for event in vertex_events(0..60) {
                client.submit(Transaction::single(event)).unwrap();
            }
            // Behind the timestamper `submit` returns before routing,
            // while the crash goes straight onto shard 1's queue: without
            // this wait the crash can overtake every event, leaving
            // nothing to replay.
            assert!(store.quiesce(Duration::from_secs(10)), "{name}");
            let supervisor = store.supervisor();
            assert!(supervisor.inject_crash(1), "{name}");
            assert!(supervisor.restart_worker(1), "{name}");

            // Post-restart traffic lands normally again, including reads
            // served from the replayed state.
            for event in vertex_events(60..80) {
                client.submit(Transaction::single(event)).unwrap();
            }
            let replayed_vertex = (0..60u64).find(|&i| shard_of(i) == 1).unwrap();
            assert_eq!(
                client.read_vertex(VertexId(replayed_vertex)).unwrap(),
                Some(State::empty()),
                "{name}"
            );

            let stats = store.shutdown();
            assert_eq!(stats.crashes, 1, "{name}");
            assert_eq!(stats.restarts, 1, "{name}");
            assert_eq!(stats.events_lost, 0, "{name}");
            let owed_to_crashed = (0..60u64).filter(|&i| shard_of(i) == 1).count() as u64;
            assert_eq!(stats.events_replayed, owed_to_crashed, "{name}");
            // Replay rebuilt the crashed shard's log: the reconstruction
            // is complete.
            assert_eq!(stats.graph.vertex_count(), 80, "{name}");
        }
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

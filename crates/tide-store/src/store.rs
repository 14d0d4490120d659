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
//! Both run one routing body under one lock ([`crate::shard`]'s pool
//! holds it): stamp each event with the next commit timestamp, decide
//! what its shard cannot see — whether an `AddEdge`'s endpoints are live,
//! which foreign vertices a removal purges — from the set of live vertex
//! ids the sequencer keeps, split the transaction per owner shard
//! ([`shard_for`]), retain it in supervised mode, post one batch per shard
//! and book each share delivered or lost. Holding the lock throughout
//! makes routing exclusive, so every shard applies in commit order and
//! each shard's state is exact: together the shards hold what a serial
//! lenient replay of the commit order builds, and the final statistics
//! are read off them (see [`crate::partition`]). With a single client the
//! commit timestamps are the stream positions behind either sequencer, so
//! both end in a bit-identical graph (the differential oracle pins it).
//!
//! # Markers
//!
//! A marker records its *cut* — the commit timestamp current when it is
//! sequenced, so exactly the events sequenced before it are below it —
//! and is then broadcast to every shard behind the batches already queued
//! there, under the routing lock: a shard sees it after exactly its events
//! below the cut. The cut is recorded by the sequencer, not inside any
//! shard, so it survives shard crashes; a dead shard is skipped and
//! counted (`store.marker_skips`). When windows are recorded
//! ([`TideStore::record_windows`], the digest mode), each shard dumps its
//! adjacency as the marker passes.
//!
//! # Crash containment and supervised recovery
//!
//! Shards are *crash-containable*: a crash message delivered through
//! the store's [`gt_sut::WorkerSupervisor`] (see [`TideStore::supervisor`])
//! makes the shard discard its state and exit, like a killed process.
//! Sequencing continues — events routed to a dead shard, and the backlog a
//! dying shard abandons, are counted as lost (`store.events_lost`, by
//! event), and the events it had applied as discarded
//! (`store.events_discarded`), instead of silently ending the run; shutdown
//! joins dead shards tolerantly, and a dead incarnation contributes
//! nothing to the final state. In *supervised* mode
//! ([`StoreConfig::supervised`]) the routing body additionally retains
//! every entry it routes — the sequencer's decisions included — so a crashed
//! shard can be restarted and rebuilt by replaying its share with the
//! original timestamps and the marker cuts in between.

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gt_core::prelude::*;
use gt_core::sync::lock;
use gt_core::VertexBuildHasher;
use gt_metrics::hub::{Gauge, MicrosCounter};
use gt_metrics::MetricsHub;
use gt_sut::{busy_work, WindowDigest, WorkerSupervisor};
use gt_trace::TracerCell;

use crate::partition::ShardedGraph;
use crate::shard::{Batch, Route, ShardEnd, ShardMsg, ShardPool, StoreSupervisor};

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
    /// the sender (the paper's "backthrottling"). Must be positive.
    pub queue_capacity: usize,
    /// Retain every routed entry — each event with its commit timestamp and
    /// the sequencer's decisions — so crashed shards can be restarted with
    /// their state rebuilt by replay (the single-process stand-in for a
    /// durable write-ahead log). Costs memory proportional to the stream
    /// length; off by default.
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
/// Events are carried by value (a short `State` is inline, so a copy
/// allocates nothing). No handle to the replayer's shared entries reaches
/// the store, so none is kept alive by it: the replayer frees each entry
/// once it is done with the chunk, and the store's memory follows the
/// live graph alone.
#[derive(Debug, Clone, PartialEq)]
pub struct Transaction {
    /// The events of the transaction, applied in order.
    pub events: Vec<GraphEvent>,
}

impl Transaction {
    /// A single-event transaction.
    pub fn single(event: impl Into<GraphEvent>) -> Self {
        Transaction {
            events: vec![event.into()],
        }
    }
}

/// Client traffic queued for the timestamper. The shutdown sentinel
/// (rather than channel disconnect) ends it, so shutdown completes even
/// while client handles are still alive.
enum ClientMsg {
    Tx(Transaction),
    Marker(String),
    Shutdown,
}

/// Where a client's traffic is sequenced.
#[derive(Clone)]
enum Sequencer {
    /// Queued for the timestamper thread.
    Timestamper(SyncSender<ClientMsg>),
    /// Routed on the submitting thread.
    Router,
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
        match &self.sequencer {
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
            Sequencer::Router if pool.stopping.load(Ordering::SeqCst) => Err(transaction),
            Sequencer::Router => {
                let mut events = transaction.events;
                lock(&pool.router).route(pool, &mut events);
                pool.recycle_events(events);
                Ok(())
            }
        }
    }

    /// An empty buffer for the next transaction's events: one a routed
    /// transaction left behind when there is one, so a buffer is freed,
    /// if ever, by the thread that allocated it.
    pub(crate) fn spare_events(&self) -> Vec<GraphEvent> {
        self.pool.spare_events()
    }

    /// Submits a watermark: the store records its cut and broadcasts it to
    /// every shard (see [`StoreStats::markers`]).
    pub fn marker(&self, name: &str) -> Result<(), StoreClosed> {
        match &self.sequencer {
            Sequencer::Timestamper(queue) => queue
                .send(ClientMsg::Marker(name.to_owned()))
                .map_err(|_| StoreClosed),
            Sequencer::Router if self.pool.stopping.load(Ordering::SeqCst) => Err(StoreClosed),
            Sequencer::Router => {
                lock(&self.pool.router).mark(&self.pool, name);
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

/// Final statistics and state after shutdown, read off the shards.
#[derive(Debug)]
pub struct StoreStats {
    /// Transactions committed.
    pub transactions: u64,
    /// Events the shards applied or counted dangling (a crashed,
    /// un-restarted shard's events are missing here). Counted by event:
    /// a transaction's share that a dead shard refused or abandoned adds
    /// its length to `events_lost`, not one per queue message.
    pub events: u64,
    /// The committed graph: the shards' final states, joined.
    pub graph: ShardedGraph,
    /// `AddEdge`s (not self-loops) dropped because an endpoint was not
    /// live at the edge's commit timestamp — an edge that overtook its
    /// endpoint's `AddVertex` — plus edges into a vertex a dead shard
    /// took with it. Still counted in `events`, absent from `graph`.
    pub dangling_edges_dropped: u64,
    /// Shard deaths (injected crashes plus contained panics).
    pub crashes: u64,
    /// Supervised shard restarts.
    pub restarts: u64,
    /// Events that could not be delivered because their shard was dead,
    /// plus those a crashing shard left unapplied on its queue.
    pub events_lost: u64,
    /// Events a crashing shard had applied: they died with its state, so
    /// they are in neither `events` nor `events_lost`. With
    /// `events_replayed` the account closes: `events + events_lost +
    /// events_discarded` equals the events submitted plus
    /// `events_replayed`.
    pub events_discarded: u64,
    /// Events re-enqueued from the retained entries on restarts.
    pub events_replayed: u64,
    /// Marker cuts, in sequencing order: `(marker name, commit timestamp
    /// at the cut)`. Events with a smaller timestamp belong to the window
    /// the marker closes.
    pub markers: Vec<(String, u64)>,
    /// The graph's adjacency at each marker cut, in sequencing order:
    /// the shards' dumps as the marker passed them, united. Empty unless
    /// [`TideStore::record_windows`] was called.
    pub windows: Vec<WindowDigest>,
    /// Commit timestamps per shard slot, in apply order. With a single
    /// client and no faults each list is strictly increasing and equals
    /// the input positions routed to that shard. Recorded behind the
    /// router only, where the clients race for the routing lock; behind
    /// the timestamper one thread posts every share in commit order, and
    /// the lists stay empty rather than cost 8 bytes per event.
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
    timestamper: Option<(SyncSender<ClientMsg>, JoinHandle<()>)>,
}

impl TideStore {
    /// Starts the store behind the **timestamper**: one thread orders every
    /// transaction at `config.timestamper_cost_per_tx` and routes it to
    /// `config.shards` shard threads. Metrics are registered on `hub`:
    ///
    /// * `store.tx` / `store.events` — committed counts,
    /// * `timestamper.busy_micros`, `shard-N.busy_micros` — per-component
    ///   simulated CPU time,
    /// * `timestamper.queue` — transactions waiting for the timestamper,
    ///   read each time it has routed one,
    /// * `store.crashes` / `store.restarts` / `store.events_lost` /
    ///   `store.events_discarded` / `store.events_replayed` /
    ///   `store.marker_skips` — fault and recovery activity.
    pub fn start(config: StoreConfig, hub: &MetricsHub) -> Self {
        let (queue, queue_rx) = sync_channel::<ClientMsg>(config.queue_capacity);
        let timestamper = Timestamper {
            cost: config.timestamper_cost_per_tx,
            // The timestamper pays for ordering; its shards pay per event
            // only.
            pool: ShardPool::start(config, false, hub),
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
        TideStore {
            pool: ShardPool::start(config, true, hub),
            timestamper: None,
        }
    }

    /// Makes every shard dump its adjacency as each marker passes, for
    /// [`StoreStats::windows`] (the digest mode). Call it before the first
    /// marker; the dumps cost memory per marker, not per event.
    pub fn record_windows(&self) {
        self.pool.record_windows();
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
            None => Sequencer::Router,
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

    /// Blocks until every transaction submitted before the call has been
    /// *applied* — none waits for the timestamper, and every live shard
    /// has applied every event enqueued to it — or the timeout elapses. A
    /// dead shard's backlog is lost, not pending, so it does not hold the
    /// wait.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        self.pool.quiesce(timeout)
    }

    /// Stops ingestion, drains all queues, joins all threads, and reads
    /// the committed graph and the statistics off the shards.
    ///
    /// Everything sequenced before this call commits; client handles that
    /// outlive the store receive errors on subsequent submits. Crashed
    /// shards are joined tolerantly — their state is simply absent
    /// (unless a supervised restart replayed it) — and a shard that
    /// *panicked* is contained and counted as a crash instead of
    /// poisoning the run.
    pub fn shutdown(self) -> StoreStats {
        let (pool, ends) = self.join();
        pool.finish(ends)
    }

    /// Stops ingestion and joins the timestamper (if any) and every
    /// shard: the pool and what the shards left behind.
    fn join(self) -> (Arc<ShardPool>, Vec<ShardEnd>) {
        self.pool.stopping.store(true, Ordering::SeqCst);
        if let Some((queue, thread)) = self.timestamper {
            let _ = queue.send(ClientMsg::Shutdown);
            // A panicked timestamper is contained: the join below still
            // stops the shards, and the counters stand in for it.
            let _ = thread.join();
        }
        let ends = self.pool.join();
        (self.pool, ends)
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
        while let Ok(msg) = self.queue.recv() {
            match msg {
                ClientMsg::Tx(transaction) => {
                    // Global ordering: the serial, per-transaction cost.
                    self.order();
                    let mut events = transaction.events;
                    lock(&pool.router).route(pool, &mut events);
                    pool.recycle_events(events);
                    let waiting = pool.unsequenced.fetch_sub(1, Ordering::SeqCst) - 1;
                    self.queue_len.set(waiting as i64);
                }
                // Markers are control traffic: they pay no ordering cost.
                ClientMsg::Marker(name) => lock(&pool.router).mark(pool, &name),
                ClientMsg::Shutdown => break,
            }
        }
    }
}

/// What the sequencer decided for one event.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    Apply,
    /// An `AddEdge` (not a self-loop) whose destination is not live. The
    /// source is the shard's own vertex: the shard checks it.
    Dangling,
    /// The removal of a live vertex: every other shard purges it.
    Purge,
}

/// The sequencer's state, behind the pool's routing lock: the shard
/// routes, the commit-timestamp counter, the live vertex ids, the marker
/// cuts, the retained entries, the batches the shards handed back, and
/// the routing body's scratch, reused across transactions — each event's
/// owner and verdict, the entries owed to each shard, and the batch being
/// filled for it (taken by the post, so empty between transactions).
pub(crate) struct Router {
    /// The current sender of every slot; a restart swaps one.
    pub(crate) routes: Vec<Route>,
    /// The next commit timestamp: advanced by a transaction's length when
    /// it is routed, so timestamps are stream positions.
    next_ts: u64,
    /// Vertex ids live at `next_ts` under the serial lenient semantics:
    /// O(live vertices).
    live: HashSet<VertexId, VertexBuildHasher>,
    /// Marker cuts in sequencing order: `(name, commit timestamp)`.
    pub(crate) cuts: Vec<(String, u64)>,
    /// Per shard, every entry routed to it in commit order — in supervised
    /// mode only.
    pub(crate) retained: Vec<Batch>,
    /// Batches the shards emptied and handed back, for reuse: a batch is
    /// allocated and freed by the routing thread, never by a shard.
    spare_batches: Receiver<Batch>,
    verdicts: Vec<(usize, Verdict)>,
    counts: Vec<usize>,
    parts: Vec<Batch>,
}

impl Router {
    pub(crate) fn new(routes: Vec<Route>, spare_batches: Receiver<Batch>) -> Self {
        let shards = routes.len();
        Router {
            routes,
            next_ts: 0,
            live: HashSet::default(),
            cuts: Vec::new(),
            retained: vec![Vec::new(); shards],
            spare_batches,
            verdicts: Vec::new(),
            counts: vec![0; shards],
            parts: vec![Vec::new(); shards],
        }
    }

    /// The sequencer's decision for the next event, which it also applies
    /// to the live set.
    fn decide(&mut self, event: &GraphEvent) -> Verdict {
        match event {
            GraphEvent::AddVertex { id, .. } => {
                self.live.insert(*id);
            }
            GraphEvent::RemoveVertex { id } if self.live.remove(id) => return Verdict::Purge,
            GraphEvent::AddEdge { id, .. }
                if !id.is_self_loop() && !self.live.contains(&id.dst) =>
            {
                return Verdict::Dangling;
            }
            _ => {}
        }
        Verdict::Apply
    }

    /// Stamps a transaction's events with consecutive commit timestamps,
    /// decides each one, posts one batch per shard it touches (retained in
    /// supervised mode) and books each share delivered or lost. Leaves
    /// `events` empty, its buffer kept for reuse.
    pub(crate) fn route(&mut self, pool: &ShardPool, events: &mut Vec<GraphEvent>) {
        let shards = self.parts.len();
        // Decide and count in commit order, then fit one batch per shard,
        // into a buffer a shard handed back when there is one.
        self.verdicts.clear();
        for event in events.iter() {
            let shard = shard_for(event, shards as u64) as usize;
            let verdict = self.decide(event);
            self.counts[shard] += 1;
            if verdict == Verdict::Purge {
                for count in &mut self.counts {
                    *count += 1;
                }
                self.counts[shard] -= 1;
            }
            self.verdicts.push((shard, verdict));
        }
        for (part, count) in self.parts.iter_mut().zip(&mut self.counts) {
            let count = std::mem::take(count);
            if count > 0 && part.capacity() == 0 {
                *part = self.spare_batches.try_recv().unwrap_or_default();
            }
            part.reserve(count);
        }
        let first = self.next_ts;
        self.next_ts += events.len() as u64;
        for (ts, (event, &(shard, verdict))) in (first..).zip(events.drain(..).zip(&self.verdicts))
        {
            let entry = match verdict {
                Verdict::Apply => Some(event),
                Verdict::Dangling => None,
                Verdict::Purge => {
                    for (_, part) in
                        (self.parts.iter_mut().enumerate()).filter(|&(s, _)| s != shard)
                    {
                        part.push((ts, Some(event.clone())));
                    }
                    Some(event)
                }
            };
            self.parts[shard].push((ts, entry));
        }
        for (shard, part) in self.parts.iter_mut().enumerate() {
            if part.is_empty() {
                continue;
            }
            if pool.config.supervised {
                self.retained[shard].extend(part.iter().cloned());
            }
            // A dead shard fails fast — its share is counted lost and
            // sequencing continues (a dead partition must not end the
            // whole store).
            match pool.post(&self.routes, shard, std::mem::take(part)) {
                Ok(events) => pool.counters.events.add(events),
                Err(events) => pool.counters.events_lost.add(events),
            }
        }
        pool.counters.tx.inc();
    }

    /// Records a marker's cut — the commit timestamp every event sequenced
    /// before it is below — and broadcasts the marker to every shard,
    /// behind the batches already queued there. The cut lives here, not in
    /// any shard, so it survives shard crashes; a dead shard is skipped and
    /// counted (`store.marker_skips`), never waited for.
    pub(crate) fn mark(&mut self, pool: &ShardPool, name: &str) {
        self.cuts.push((name.to_owned(), self.next_ts));
        // Intern once; the per-shard fan-out clones refcounts, not Strings.
        let name = gt_core::intern::intern(name);
        for tx in &self.routes {
            if tx.send(ShardMsg::Marker(Arc::clone(&name))).is_err() {
                pool.counters.marker_skips.inc();
            }
        }
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

    /// A transaction over owned events.
    fn transaction(events: impl IntoIterator<Item = GraphEvent>) -> Transaction {
        Transaction {
            events: events.into_iter().collect(),
        }
    }

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
            // Behind the router the shards report the timestamps they
            // applied: the stream positions, exactly once.
            let mut timestamps = stats.per_shard_seqs.concat();
            timestamps.sort_unstable();
            let routed = (name == "router").then(|| (0..199).collect::<Vec<u64>>());
            assert_eq!(timestamps, routed.unwrap_or_default(), "{name}");
            assert_eq!(stats.transactions, 199, "{name}");
            assert_eq!(stats.events, 199, "{name}");
            assert_eq!(stats.graph.vertex_count(), 100, "{name}");
            assert_eq!(stats.graph.edge_count(), 99, "{name}");
            assert_eq!(stats.crashes, 0, "{name}");
            assert_eq!(stats.events_lost, 0, "{name}");
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
                client.submit(transaction(chunk.iter().cloned())).unwrap();
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
    fn a_marker_reaches_each_shard_behind_exactly_its_events_below_the_cut() {
        // Two router clients race a third that marks: every shard must see
        // each marker after exactly its events below the marker's cut —
        // none posted late below it, none early above it.
        for round in 0..20u64 {
            let hub = MetricsHub::new();
            let config = StoreConfig {
                shards: 3,
                ..fast_config()
            };
            let store = TideStore::start_sharded(config, &hub);
            let pool = Arc::clone(&store.pool);
            std::thread::scope(|scope| {
                for writer in 0..2u64 {
                    let mut client = store.client();
                    scope.spawn(move || {
                        let first = writer * 1_000_000;
                        for chunk in vertex_events(first..first + 2_000).chunks(3) {
                            client.submit(transaction(chunk.iter().cloned())).unwrap();
                        }
                    });
                }
                let client = store.client();
                scope.spawn(move || {
                    for m in 0..200 {
                        client.marker(&format!("m{m}")).unwrap();
                        std::thread::yield_now();
                    }
                });
            });
            let stats = store.shutdown();
            let sightings = lock(&pool.shard_markers);
            assert_eq!(sightings.len(), 200 * 3);
            for (marker, shard, applied) in sightings.iter() {
                let (_, cut) = (stats.markers.iter())
                    .find(|(name, _)| **name == **marker)
                    .unwrap();
                let seqs = &stats.per_shard_seqs[*shard];
                let below = seqs.iter().filter(|&ts| ts < cut).count() as u64;
                assert_eq!(
                    *applied, below,
                    "round {round}: {marker} (cut {cut}) reached shard {shard} after \
                     {applied} of its events, {below} of them below the cut"
                );
            }
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
        let committed_during = store.pool.counters.tx.get();
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
                client.submit(transaction(events)).unwrap();
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
    fn queue_gauge_counts_transactions_waiting_for_the_timestamper() {
        let hub = MetricsHub::new();
        let store = TideStore::start(
            StoreConfig {
                timestamper_cost_per_tx: Duration::from_millis(5),
                queue_capacity: 16,
                ..fast_config()
            },
            &hub,
        );
        let mut client = store.client();
        for event in vertex_events(0..10) {
            client.submit(Transaction::single(event)).unwrap();
        }
        let gauge = hub.gauge("timestamper.queue");
        let deadline = Instant::now() + Duration::from_secs(10);
        while gauge.get() == 0 {
            assert!(Instant::now() < deadline, "the gauge never rose");
            std::thread::sleep(Duration::from_micros(200));
        }
        assert!(
            gauge.get() < 10,
            "the transaction being ordered is not waiting"
        );
        assert!(store.quiesce(Duration::from_secs(10)));
        assert_eq!(gauge.get(), 0);
        store.shutdown();
    }

    #[test]
    fn traffic_after_shutdown_errors() {
        for (name, start) in SEQUENCERS {
            let hub = MetricsHub::new();
            let store = start(fast_config(), &hub);
            let mut client = store.client();
            store.shutdown();
            assert!(client.marker("late").is_err(), "{name}");
            let late = transaction(vertex_events(0..1));
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
            // events to the survivor commit, and a marker skips the dead
            // shard.
            for event in vertex_events(100..150) {
                client.submit(Transaction::single(event)).unwrap();
            }
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
            // And the dead shard's state is gone from the final graph.
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
                client.submit(transaction(chunk.iter().cloned())).unwrap();
            }
            // Routed (microseconds), not yet applied (milliseconds): the
            // crash lands behind the whole first wave.
            while store.pool.counters.tx.get() < 10 {
                std::thread::yield_now();
            }
            let supervisor = store.supervisor();
            assert!(supervisor.inject_crash(0), "{name}");
            for chunk in vertex_events(100..140).chunks(4) {
                client.submit(transaction(chunk.iter().cloned())).unwrap();
            }
            wait_dead(&supervisor, 0);
            // The dead shard's backlog is lost, not pending: only the
            // survivor's share holds the wait.
            assert!(store.quiesce(Duration::from_secs(10)), "{name}");
            let stats = store.shutdown();
            let owed_to_dead = (100..140u64).filter(|&i| shard_of(i) == 0).count() as u64;
            assert!(owed_to_dead > 4, "second wave missed the dead shard");
            assert_eq!(stats.events_lost, owed_to_dead, "{name}");
            // The survivor applied its whole share; the dead shard's state
            // (its share of the first wave) died with it, and is counted.
            let survivor = (0..40u64).chain(100..140).filter(|&i| shard_of(i) == 1);
            assert_eq!(stats.events, survivor.count() as u64, "{name}");
            let applied_by_dead = (0..40u64).filter(|&i| shard_of(i) == 0).count() as u64;
            assert_eq!(stats.events_discarded, applied_by_dead, "{name}");
        }
    }

    #[test]
    fn every_submitted_event_is_applied_lost_or_discarded() {
        for supervised in [false, true] {
            for (name, start) in SEQUENCERS {
                let hub = MetricsHub::new();
                let store = start(
                    StoreConfig {
                        supervised,
                        ..fast_config()
                    },
                    &hub,
                );
                let mut client = store.client();
                let mut submit = |ids: std::ops::Range<u64>| {
                    for chunk in vertex_events(ids).chunks(4) {
                        client.submit(transaction(chunk.iter().cloned())).unwrap();
                    }
                };
                submit(0..40);
                // Applied before the kill, so the dead shard's state holds
                // its whole share of the first wave.
                assert!(store.quiesce(Duration::from_secs(10)), "{name}");
                let supervisor = store.supervisor();
                assert!(supervisor.inject_crash(0), "{name}");
                submit(100..140);
                wait_dead(&supervisor, 0);
                assert_eq!(supervisor.restart_worker(0), supervised, "{name}");
                submit(200..240);
                let stats = store.shutdown();
                let at = format!("{name}, supervised {supervised}");
                let applied_by_dead = (0..40u64).filter(|&i| shard_of(i) == 0).count() as u64;
                assert_eq!(stats.events_discarded, applied_by_dead, "{at}");
                assert_eq!(
                    stats.events + stats.events_lost + stats.events_discarded,
                    120 + stats.events_replayed,
                    "{at}"
                );
                assert_eq!(hub.counter("store.events_discarded").get(), applied_by_dead);
            }
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
                client.submit(transaction(chunk.iter().cloned())).unwrap();
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

            // Post-restart traffic lands normally again.
            for event in vertex_events(60..80) {
                client.submit(Transaction::single(event)).unwrap();
            }

            let stats = store.shutdown();
            assert_eq!(stats.crashes, 1, "{name}");
            assert_eq!(stats.restarts, 1, "{name}");
            assert_eq!(stats.events_lost, 0, "{name}");
            let owed_to_crashed = (0..60u64).filter(|&i| shard_of(i) == 1).count() as u64;
            assert_eq!(stats.events_replayed, owed_to_crashed, "{name}");
            // Replay rebuilt the crashed shard's state: the final graph is
            // complete.
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

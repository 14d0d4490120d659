//! The worker runtime: mailboxes, routing, instrumentation, supervision.
//!
//! [`Engine`] is generic over the vertex program ([`Partition`]); the
//! influence-rank instantiation is exported as [`TideGraph`], matching
//! the paper's Chronograph experiment, and the online-SSSP instantiation
//! as `crate::sssp::SsspEngine`.
//!
//! # Crash containment and supervised recovery
//!
//! Workers are *crash-containable*: a scheduled `Msg::Crash` (delivered
//! through the `EngineSupervisor`, the engine's
//! [`gt_sut::WorkerSupervisor`] surface) makes the worker discard its
//! partition state and exit, exactly like a killed process. The rest of
//! the engine keeps running — events routed to the dead worker are
//! counted as lost (`engine.events_lost`), never deadlocked on, and
//! shutdown joins dead workers tolerantly instead of poisoning the run.
//! In *supervised* mode ([`EngineConfig::supervised`]) the engine
//! additionally retains every ingested event, so a crashed worker can be
//! restarted and rebuilt by replaying its share of the retained log
//! (replay-from-last-applied-sequence, with ingest excluded during the
//! swap so recovery is exactly-once with respect to new events).
//!
//! # Transport vs. scheduling
//!
//! Each worker has one [`Mailbox`]: shares travel packed in blocks but
//! are scheduled and accounted as *items*, exactly as if every share were
//! its own message (see [`crate::mailbox`]). What a round sends is one
//! share per target: the shares it owes a target are folded into one
//! with [`Partition::combine`] before they are posted.

use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gt_core::hash::shard_of;
use gt_core::prelude::*;
use gt_core::sync::{lock, read, write};
use gt_metrics::hub::{Counter, Gauge, MicrosCounter};
use gt_metrics::MetricsHub;
use gt_sut::{busy_work, Adjacency, StateDigest, WindowDigest, WorkerSupervisor};
use gt_trace::{Probe, Stage, TracerCell};

use crate::board::{ResultBoard, Snapshot};
use crate::mailbox::{Batch, Mailbox, Msg};
use crate::program::{Partition, VertexMap};
use crate::rank::{RankParams, RankPartition};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of worker threads (the paper's Chronograph setup uses 4).
    pub workers: usize,
    /// Rank computation parameters (used by the [`TideGraph`]
    /// instantiation; other programs carry their own parameters).
    pub rank: RankParams,
    /// Simulated processing cost per mutation event.
    pub event_cost: Duration,
    /// Simulated processing cost per computational (share) message.
    pub share_cost: Duration,
    /// Workers republish their slot of the result board every this many
    /// processed items (the Level-2 "periodically dump intermediate
    /// results" instrumentation). A publish copies the partition's whole
    /// summary: O(vertices held) on the worker, nothing shared.
    pub board_refresh_every: u64,
    /// Items a worker processes per round — every event, purge, marker
    /// and *each share of a received batch* counts one. Pushes of a whole
    /// round coalesce, and the shares a round sends combine per target,
    /// so larger rounds cut share traffic at fan-in hubs; `1` disables
    /// coalescing (the naive per-message engine).
    pub drain_batch: usize,
    /// Retain every ingested event so crashed workers can be restarted
    /// with their state rebuilt by replay (the single-process stand-in
    /// for a durable write-ahead log). Costs memory proportional to the
    /// stream length; off by default.
    pub supervised: bool,
    /// Capture per-worker topology snapshots at every processed marker
    /// plus the final partition structures, folded into a
    /// [`gt_sut::StateDigest`] at shutdown — the raw material of the
    /// serial-vs-sharded differential. Costs a structure copy per worker
    /// per marker; off by default.
    pub digest: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 4,
            rank: RankParams::default(),
            event_cost: Duration::ZERO,
            share_cost: Duration::ZERO,
            board_refresh_every: 256,
            drain_batch: 64,
            supervised: false,
            digest: false,
        }
    }
}

/// Final statistics after shutdown.
#[derive(Debug)]
pub struct EngineStats {
    /// Mutation events processed. Replayed events are re-processed by the
    /// restarted worker, so after a supervised recovery this exceeds the
    /// number of distinct stream events.
    pub events: u64,
    /// Computational messages processed.
    pub shares: u64,
    /// Final per-vertex result values (unnormalized for the rank
    /// program).
    pub ranks: BTreeMap<VertexId, f64>,
    /// Worker deaths (injected crashes plus contained panics).
    pub crashes: u64,
    /// Supervised worker restarts.
    pub restarts: u64,
    /// Messages (mutation events and shares) that could not be delivered
    /// because their owner worker was dead.
    pub events_lost: u64,
    /// Mutation events re-enqueued from the retained log on restarts.
    pub events_replayed: u64,
    /// `AddEdge`s (not self-loops) dropped because their source was not
    /// live on its owner worker when they arrived — an edge that
    /// overtook its source's `AddVertex`. Counted in `events`.
    pub dangling_edges_dropped: u64,
    /// Topology digest (final adjacency + per-marker windows), present
    /// when the engine ran with [`EngineConfig::digest`] on.
    pub digest: Option<StateDigest>,
}

/// Processed watermarks: `(marker name, worker id, micros since engine
/// start)`. Names stay interned in the log; the public accessor converts.
type MarkerLog = Arc<Mutex<Vec<(Arc<str>, usize, u64)>>>;

/// Per-worker topology snapshots taken at marker processing time (digest
/// mode): `(marker name, partition structure)`. Workers own disjoint
/// vertices, so entries for one marker union into the engine's topology
/// at that marker's consistent cut.
type SnapshotLog = Arc<Mutex<Vec<(Arc<str>, Adjacency)>>>;

/// Every worker's current mailbox, shared by the engine handle, the
/// workers and the supervisor. Write-locked only while a restart swaps a
/// fresh mailbox in — which also excludes ingest and routing, so recovery
/// is exactly-once with respect to new events.
type Mailboxes<M> = RwLock<Vec<Arc<Mailbox<M>>>>;

/// Counters describing fault/recovery activity, registered on the
/// engine's hub (`engine.crashes`, `engine.restarts`,
/// `engine.events_lost`, `engine.events_replayed`) so Level-1 sampling
/// sees them live.
#[derive(Clone)]
struct FaultCounters {
    crashes: Counter,
    restarts: Counter,
    events_lost: Counter,
    events_replayed: Counter,
}

impl FaultCounters {
    fn register(hub: &MetricsHub) -> Self {
        FaultCounters {
            crashes: hub.counter("engine.crashes"),
            restarts: hub.counter("engine.restarts"),
            events_lost: hub.counter("engine.events_lost"),
            events_replayed: hub.counter("engine.events_replayed"),
        }
    }
}

/// Everything a supervisor needs to kill and resurrect workers; shared
/// between the [`Engine`] handle and [`EngineSupervisor`] clones, and
/// deliberately *not* holding the `Engine` itself so shutdown paths that
/// need sole ownership of the engine keep working.
struct EngineCore<P: Partition> {
    mailboxes: Arc<Mailboxes<P::Msg>>,
    handles: Mutex<Vec<JoinHandle<Option<P>>>>,
    /// `(ingest seq, event)` — populated only in supervised mode.
    retained: Mutex<Vec<(u64, GraphEvent)>>,
    factory: Box<dyn Fn(usize) -> P + Send + Sync>,
    board: Arc<ResultBoard>,
    markers: MarkerLog,
    snapshots: SnapshotLog,
    started: Instant,
    config: EngineConfig,
    hub: MetricsHub,
    tracer_cell: TracerCell,
    /// Set by shutdown; blocks further restarts.
    stopping: AtomicBool,
    counters: FaultCounters,
    /// Edges the workers dropped ([`EngineStats::dangling_edges_dropped`]).
    edges_dropped: Counter,
}

impl<P: Partition> EngineCore<P> {
    /// Spawns (or respawns) the worker for a slot, as the receiver of its
    /// fresh mailbox. Hub metrics are looked up by name, so a restarted
    /// worker keeps accumulating on the same series.
    fn spawn_worker(
        &self,
        worker_id: usize,
        mailbox: Arc<Mailbox<P::Msg>>,
    ) -> JoinHandle<Option<P>> {
        let ctx = WorkerCtx {
            worker_id,
            mailbox,
            mailboxes: Arc::clone(&self.mailboxes),
            board: Arc::clone(&self.board),
            markers: Arc::clone(&self.markers),
            snapshots: Arc::clone(&self.snapshots),
            started: self.started,
            config: self.config.clone(),
            tracer_cell: self.tracer_cell.clone(),
            queue_gauge: self.hub.gauge(&format!("worker-{worker_id}.queue")),
            ops: self.hub.counter(&format!("worker-{worker_id}.ops")),
            events: self.hub.counter(&format!("worker-{worker_id}.events")),
            shares: self.hub.counter(&format!("worker-{worker_id}.shares")),
            busy: MicrosCounter::new(self.hub.counter(&format!("worker-{worker_id}.busy_micros"))),
            crashes: self.counters.crashes.clone(),
            events_lost: self.counters.events_lost.clone(),
            edges_dropped: self.edges_dropped.clone(),
        };
        let partition = (self.factory)(worker_id);
        std::thread::Builder::new()
            .name(format!("tide-graph-worker-{worker_id}"))
            .spawn(move || worker_loop(ctx, partition))
            .expect("spawn worker")
    }
}

/// The last handle to the engine is gone: close every mailbox, so workers
/// still running — the engine was dropped without `shutdown` — wake up
/// and exit instead of waiting for posts that cannot come.
impl<P: Partition> Drop for EngineCore<P> {
    fn drop(&mut self) {
        for mailbox in read(&self.mailboxes).iter() {
            mailbox.close();
        }
    }
}

/// A running vertex-centric engine executing the program `P`.
pub struct Engine<P: Partition> {
    core: Arc<EngineCore<P>>,
    workers: usize,
    hub: MetricsHub,
    /// Global ingest counter: each graph event's stream position, carried
    /// into the worker mailboxes for Level-2 trace stamping.
    ingest_seq: AtomicU64,
}

/// The influence-rank engine — the paper's Chronograph stand-in.
pub type TideGraph = Engine<RankPartition>;

impl Engine<RankPartition> {
    /// Starts the influence-rank engine. Per-worker metrics registered on
    /// `hub`: `worker-N.queue` (backlog gauge, in items), `worker-N.ops`
    /// (items processed), `worker-N.events`, `worker-N.shares`,
    /// `worker-N.busy_micros`; engine-wide fault counters
    /// `engine.crashes`, `engine.restarts`, `engine.events_lost`,
    /// `engine.events_replayed`.
    pub fn start(config: EngineConfig, hub: &MetricsHub) -> Self {
        let params = config.rank;
        Engine::start_with(config, hub, move |_worker| RankPartition::new(params))
    }
}

impl<P: Partition> Engine<P> {
    /// Starts an engine whose workers each run the partition produced by
    /// `factory(worker_id)`. The factory is retained: in supervised mode
    /// it also builds the fresh partition of a restarted worker.
    pub fn start_with(
        config: EngineConfig,
        hub: &MetricsHub,
        factory: impl Fn(usize) -> P + Send + Sync + 'static,
    ) -> Self {
        assert!(config.workers >= 1, "at least one worker required");
        let workers = config.workers;
        let mailboxes: Vec<Arc<Mailbox<P::Msg>>> = (0..workers).map(|_| Arc::default()).collect();

        let core = Arc::new(EngineCore {
            mailboxes: Arc::new(RwLock::new(mailboxes.clone())),
            handles: Mutex::new(Vec::with_capacity(workers)),
            retained: Mutex::new(Vec::new()),
            factory: Box::new(factory),
            board: Arc::new(ResultBoard::new(workers)),
            markers: Arc::new(Mutex::new(Vec::new())),
            snapshots: Arc::new(Mutex::new(Vec::new())),
            started: Instant::now(),
            config,
            hub: hub.clone(),
            tracer_cell: TracerCell::new(),
            stopping: AtomicBool::new(false),
            counters: FaultCounters::register(hub),
            edges_dropped: Counter::default(),
        });
        {
            let mut handles = lock(&core.handles);
            for (worker_id, mailbox) in mailboxes.into_iter().enumerate() {
                handles.push(core.spawn_worker(worker_id, mailbox));
            }
        }

        Engine {
            core,
            workers,
            hub: hub.clone(),
            ingest_seq: AtomicU64::new(0),
        }
    }

    /// The tracer slot shared with the worker threads. Installing a
    /// [`gt_trace::Tracer`] here makes every worker stamp applied
    /// mutation events at [`Stage::EngineApply`], keyed by the global
    /// ingest sequence carried in their mailbox message.
    pub(crate) fn tracer_cell(&self) -> &TracerCell {
        &self.core.tracer_cell
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The engine's crash/restart control surface, for chaos runs. The
    /// handle shares the engine's internals (not the engine itself), so
    /// it stays valid until shutdown and never blocks an ownership-taking
    /// shutdown path.
    pub fn supervisor(&self) -> Arc<dyn WorkerSupervisor> {
        Arc::new(EngineSupervisor {
            core: Arc::clone(&self.core),
        })
    }

    /// Routes one mutation event to its owner worker. Vertex removals are
    /// additionally broadcast so every worker strips dangling references.
    pub fn ingest(&self, event: GraphEvent) {
        // Holding the read lock for the whole routing step means a
        // restart (write lock) can never interleave with one ingest.
        let mailboxes = read(&self.core.mailboxes);
        let mut lost = 0;
        if let GraphEvent::RemoveVertex { id } = &event {
            for w in (0..self.workers).filter(|w| *w != shard_of(*id, self.workers)) {
                lost += mailboxes[w].post(Msg::Purge(*id));
            }
        }
        let owner = shard_of(event.home(), self.workers);
        // The ingest counter assigns each graph event its global stream
        // position; connectors call in stream order, so the sequence
        // matches what the replayer-side tracepoints counted.
        let seq = self.ingest_seq.fetch_add(1, Ordering::Relaxed);
        if self.core.config.supervised {
            lock(&self.core.retained).push((seq, event.clone()));
        }
        lost += mailboxes[owner].post(Msg::Event(event, seq));
        if lost > 0 {
            self.core.counters.events_lost.add(lost);
        }
    }

    /// Enqueues a watermark on every worker. Each worker timestamps it
    /// when *processed* — behind everything already in its mailbox — so
    /// `processed time − enqueue time` is the current ingestion latency.
    /// Dead workers miss the watermark (their marker-log entry is absent,
    /// which is itself a degradation signal).
    pub(crate) fn ingest_marker(&self, name: &str) {
        self.ingest_marker_with(name, None);
    }

    /// Enqueues a watermark on every worker and waits (up to `timeout`)
    /// until every worker that received it has *processed* it — the
    /// marker barrier. Dead workers are skipped, so a degraded engine
    /// reports a smaller count instead of hanging. Returns the number of
    /// acknowledgements received.
    pub fn ingest_marker_barrier(&self, name: &str, timeout: Duration) -> usize {
        let (ack_tx, ack_rx) = sync_channel::<()>(self.workers);
        let sent = self.ingest_marker_with(name, Some(ack_tx));
        let deadline = Instant::now() + timeout;
        let mut acked = 0usize;
        while acked < sent {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || ack_rx.recv_timeout(left).is_err() {
                break;
            }
            acked += 1;
        }
        acked
    }

    fn ingest_marker_with(&self, name: &str, ack: Option<SyncSender<()>>) -> usize {
        // Intern once; the fan-out below clones a refcount per worker
        // instead of allocating a String per mailbox.
        let name = gt_core::intern::intern(name);
        let mailboxes = read(&self.core.mailboxes);
        mailboxes
            .iter()
            .filter(|mailbox| mailbox.post(Msg::Marker(Arc::clone(&name), ack.clone())) == 0)
            .count()
    }

    /// Processed watermarks so far: `(name, worker, micros since engine
    /// start)`.
    pub fn marker_log(&self) -> Vec<(String, usize, u64)> {
        lock(&self.core.markers)
            .iter()
            .map(|(name, worker, t)| (name.to_string(), *worker, *t))
            .collect()
    }

    /// Sum of the *live* workers' backlogs, in items: every queued
    /// event, purge and marker, every share of every queued batch, and
    /// the items of rounds still running. Dead workers are skipped: what
    /// they left behind is lost, not pending.
    pub fn total_queue_len(&self) -> usize {
        let mailboxes = read(&self.core.mailboxes);
        mailboxes
            .iter()
            .filter(|mailbox| mailbox.is_open())
            .map(|mailbox| mailbox.backlog() as usize)
            .sum()
    }

    /// A snapshot of the result board (the periodically dumped
    /// intermediate results), normalized to sum to 1.
    pub fn board_ranks(&self) -> BTreeMap<VertexId, f64> {
        normalize(self.board_values())
    }

    /// A raw (unnormalized) snapshot of the result board: every worker's
    /// last published summary. Each worker's part is that worker's state
    /// at one instant; different workers' parts are from different
    /// instants. Once [`quiesce`](Engine::quiesce) has returned, every
    /// publish that was due is in it.
    pub fn board_values(&self) -> BTreeMap<VertexId, f64> {
        self.core.board.values()
    }

    /// Blocks until every live worker has processed every item ever
    /// enqueued on it, or the timeout elapses. Returns whether quiescence
    /// was reached. A crashed (un-restarted) worker does not prevent
    /// quiescence — its backlog is lost, not pending.
    ///
    /// Exact, not a heuristic: the mailboxes are read one after another,
    /// so one pass alone could pair an early look at one worker with a
    /// late look at another — but between restarts the counters only
    /// grow, so two *identical* passes mean every pair held still from the
    /// end of the first pass to the start of the second. At that instant
    /// every live mailbox had `enqueued == processed`: no item queued,
    /// none in a running round, none in a round's unposted output (see
    /// [`Mailbox`]) — nothing left that could produce work.
    ///
    /// A supervised restart is the one place a worker's account starts
    /// over instead of advancing. It happens while the worker is dead —
    /// `None` in a pass, from the crash (itself an enqueued item) until
    /// the restart has replayed the worker's events into its fresh
    /// mailbox — so a pass taken before it and one taken after differ,
    /// and the loop retries.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        // The live mailboxes' accounts (`None` for a dead one: its backlog
        // is lost, not pending).
        let pass = || -> Vec<_> {
            let mailboxes = read(&self.core.mailboxes);
            (mailboxes.iter())
                .map(|mailbox| mailbox.is_open().then(|| mailbox.account()))
                .collect()
        };
        loop {
            let first = pass();
            let idle = first.iter().flatten().all(|(enq, done)| enq == done);
            if idle && first == pass() {
                return true;
            }
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Stops the workers, joins them tolerantly, and merges final
    /// results. Crashed workers contribute no summary (their state died
    /// with them); a worker that *panicked* is contained and counted as a
    /// crash instead of poisoning the run.
    pub fn shutdown(self) -> EngineStats {
        self.core.stopping.store(true, Ordering::SeqCst);
        for mailbox in read(&self.core.mailboxes).iter() {
            mailbox.post(Msg::Stop);
        }
        let handles: Vec<JoinHandle<Option<P>>> = {
            let mut guard = lock(&self.core.handles);
            guard.drain(..).collect()
        };
        let mut ranks = Snapshot::new();
        let mut final_adjacency: Adjacency = Vec::new();
        let digest_on = self.core.config.digest;
        for handle in handles {
            match handle.join() {
                Ok(Some(partition)) => {
                    partition.summary_into(&mut ranks);
                    if digest_on {
                        final_adjacency.extend(partition.structure());
                    }
                }
                // Injected crash: state discarded by design.
                Ok(None) => {}
                // Contained panic: the run survives, the death is counted.
                Err(_) => self.core.counters.crashes.inc(),
            }
        }
        let events: u64 = (0..self.workers)
            .map(|w| self.hub.counter(&format!("worker-{w}.events")).get())
            .sum();
        let shares: u64 = (0..self.workers)
            .map(|w| self.hub.counter(&format!("worker-{w}.shares")).get())
            .sum();
        let digest = digest_on.then(|| {
            // Group the per-worker marker snapshots into windows, in
            // first-sighting order; the per-worker adjacencies of one
            // marker are disjoint, so concatenation is the union.
            let mut windows: Vec<WindowDigest> = Vec::new();
            for (name, adjacency) in lock(&self.core.snapshots).drain(..) {
                match windows.iter_mut().find(|w| w.marker.as_str() == &*name) {
                    Some(window) => window.adjacency.extend(adjacency),
                    None => windows.push(WindowDigest {
                        marker: name.to_string(),
                        adjacency,
                    }),
                }
            }
            let mut digest = StateDigest {
                final_adjacency,
                windows,
                degradation: vec![
                    ("crashes".into(), self.core.counters.crashes.get()),
                    ("restarts".into(), self.core.counters.restarts.get()),
                    ("events_lost".into(), self.core.counters.events_lost.get()),
                    (
                        "events_replayed".into(),
                        self.core.counters.events_replayed.get(),
                    ),
                ],
            };
            digest.canonicalize();
            digest
        });
        EngineStats {
            events,
            shares,
            ranks: ranks.into_iter().collect(),
            crashes: self.core.counters.crashes.get(),
            restarts: self.core.counters.restarts.get(),
            events_lost: self.core.counters.events_lost.get(),
            events_replayed: self.core.counters.events_replayed.get(),
            dangling_edges_dropped: self.core.edges_dropped.get(),
            digest,
        }
    }

    /// Result values normalized to sum to 1 (helper for accuracy
    /// analyses of the rank program).
    pub fn normalized(ranks: &BTreeMap<VertexId, f64>) -> BTreeMap<VertexId, f64> {
        normalize(ranks.clone())
    }
}

/// The engine's [`WorkerSupervisor`]: kills and resurrects individual
/// workers. Obtained from [`Engine::supervisor`].
pub(crate) struct EngineSupervisor<P: Partition> {
    core: Arc<EngineCore<P>>,
}

impl<P: Partition> WorkerSupervisor for EngineSupervisor<P> {
    fn worker_count(&self) -> usize {
        self.core.config.workers
    }

    /// Enqueues a crash on the worker's mailbox. The kill lands behind
    /// the worker's current backlog — a deterministic position in its
    /// message stream — and the worker then discards its state and exits.
    fn inject_crash(&self, worker: usize) -> bool {
        if worker >= self.core.config.workers || self.core.stopping.load(Ordering::SeqCst) {
            return false;
        }
        read(&self.core.mailboxes)[worker].post(Msg::Crash) == 0
    }

    /// Restarts a crashed worker (supervised mode only): waits briefly
    /// for the crash to land, then — with ingest write-locked out — spawns
    /// a fresh partition, replays the worker's share of the retained
    /// event log into a fresh mailbox, and swaps that mailbox in.
    fn restart_worker(&self, worker: usize) -> bool {
        let config = &self.core.config;
        if worker >= config.workers || !config.supervised {
            return false;
        }
        // The crash message travels through the worker's backlog; give it
        // time to land before declaring the restart impossible.
        let deadline = Instant::now() + Duration::from_secs(5);
        while read(&self.core.mailboxes)[worker].is_open() {
            if Instant::now() > deadline || self.core.stopping.load(Ordering::SeqCst) {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }

        let mut mailboxes = write(&self.core.mailboxes);
        if self.core.stopping.load(Ordering::SeqCst) {
            return false;
        }
        // A fresh mailbox starts a fresh account: what the dead worker
        // left unprocessed was counted lost when it died.
        let mailbox: Arc<Mailbox<P::Msg>> = Arc::default();
        let workers = config.workers;
        let mut replayed = 0u64;
        {
            let retained = lock(&self.core.retained);
            for (seq, event) in retained.iter() {
                match event {
                    // The broadcast half of remote removals, re-delivered
                    // so the fresh partition strips dangling references.
                    GraphEvent::RemoveVertex { id } if shard_of(*id, workers) != worker => {
                        mailbox.post(Msg::Purge(*id));
                    }
                    e => {
                        if shard_of(e.home(), workers) == worker {
                            mailbox.post(Msg::Event(event.clone(), *seq));
                            replayed += 1;
                        }
                    }
                }
            }
        }
        let handle = self.core.spawn_worker(worker, Arc::clone(&mailbox));
        mailboxes[worker] = mailbox;
        lock(&self.core.handles).push(handle);
        self.core.counters.restarts.inc();
        self.core.counters.events_replayed.add(replayed);
        true
    }
}

fn normalize(mut ranks: BTreeMap<VertexId, f64>) -> BTreeMap<VertexId, f64> {
    let total: f64 = ranks.values().sum();
    if total > 0.0 {
        for v in ranks.values_mut() {
            *v /= total;
        }
    }
    ranks
}

struct WorkerCtx<M> {
    worker_id: usize,
    /// The worker's own mailbox, which it receives from.
    mailbox: Arc<Mailbox<M>>,
    mailboxes: Arc<Mailboxes<M>>,
    board: Arc<ResultBoard>,
    markers: MarkerLog,
    snapshots: SnapshotLog,
    started: Instant,
    config: EngineConfig,
    tracer_cell: TracerCell,
    queue_gauge: Gauge,
    ops: Counter,
    events: Counter,
    shares: Counter,
    busy: MicrosCounter,
    crashes: Counter,
    events_lost: Counter,
    edges_dropped: Counter,
}

/// Runs one worker until `Stop` (returns the final partition), its
/// mailbox closing under it (ditto), or `Crash` (closes the mailbox and
/// returns `None` — the partition state is deliberately lost, like a
/// killed process).
fn worker_loop<P: Partition>(ctx: WorkerCtx<P::Msg>, mut partition: P) -> Option<P> {
    let workers = ctx.config.workers;
    let drain_batch = ctx.config.drain_batch.max(1);
    let mailbox = &*ctx.mailbox;
    let mut outbox: Batch<P::Msg> = Vec::new();
    let mut dirty: Vec<VertexId> = Vec::new();
    // The received block being consumed in place, and how far. A round
    // that ends inside it leaves the rest to the next round. A receive
    // hands the spent block back to the mailbox and leaves it empty, so
    // `cursor` may then be past its end: the block is spent while
    // `cursor >= shares.len()`.
    let mut shares: Batch<P::Msg> = Vec::new();
    let mut cursor = 0usize;
    // Routing scratch, empty between rounds: the shares the round owes
    // each destination worker, copied into its mailbox's blocks, and
    // where in them each target's share sits. Like `outbox`, each keeps
    // the capacity of the largest round it carried.
    let mut parts: Vec<Batch<P::Msg>> = (0..workers).map(|_| Vec::new()).collect();
    let mut slots: VertexMap<usize> = VertexMap::default();
    // The board buffer this worker fills next: after a publish, the one
    // its slot held before.
    let mut snapshot = Snapshot::new();
    let mut publish = |partition: &P| {
        snapshot.clear();
        partition.summary_into(&mut snapshot);
        ctx.board.publish(ctx.worker_id, &mut snapshot);
    };
    let mut running = true;
    // Lazily acquired apply tracepoint: the thread outlives tracer
    // installation, so it polls the cell (one atomic load while empty).
    let mut trace_probe: Option<Probe> = None;

    while running {
        // Block for the next message only when no partly consumed block
        // is left over, then opportunistically drain more.
        let mut next = None;
        if cursor >= shares.len() {
            match mailbox.recv(&mut shares) {
                Some(msg) => next = Some(msg),
                None => break,
            }
        }
        ctx.queue_gauge.set(mailbox.backlog() as i64);
        let started = Instant::now();
        let mut items = 0usize;
        while running && items < drain_batch {
            if cursor < shares.len() {
                let end = shares.len().min(cursor + drain_batch - items);
                for (target, payload) in &shares[cursor..end] {
                    busy_work(ctx.config.share_cost);
                    partition.receive_deferred(*target, payload.clone(), &mut dirty);
                }
                ctx.shares.add((end - cursor) as u64);
                items += end - cursor;
                cursor = end;
                continue;
            }
            let Some(msg) = next.take().or_else(|| mailbox.try_recv(&mut shares)) else {
                break;
            };
            match msg {
                Msg::Shares(block) => {
                    shares = block;
                    cursor = 0;
                    continue;
                }
                Msg::Event(event, seq) => {
                    busy_work(ctx.config.event_cost);
                    if !partition.apply_event_deferred(&event, &mut dirty) {
                        ctx.edges_dropped.inc();
                    }
                    // The owner-side half of vertex removal: strip the
                    // removed id from co-located out-lists too. Ingest
                    // only broadcasts Purge to *other* workers, so
                    // without this the surviving topology would depend
                    // on the worker count (and workers=1 would never
                    // purge at all) — breaking the serial-vs-sharded
                    // differential.
                    if let GraphEvent::RemoveVertex { id } = event {
                        partition.purge(id, &mut outbox);
                    }
                    ctx.events.inc();
                    if trace_probe.is_none() {
                        trace_probe = ctx.tracer_cell.probe(Stage::EngineApply);
                    }
                    if let Some(probe) = &trace_probe {
                        // Workers process out of stream order, so the
                        // stamp carries the global ingest sequence.
                        probe.stamp_seq(seq);
                    }
                }
                Msg::Purge(id) => {
                    partition.purge(id, &mut outbox);
                }
                Msg::Marker(name, ack) => {
                    let t = ctx.started.elapsed().as_micros() as u64;
                    if ctx.config.digest {
                        // The mailbox FIFO-orders this marker behind
                        // exactly the pre-marker events routed here, so
                        // the snapshot is this worker's share of the
                        // marker's consistent cut.
                        lock(&ctx.snapshots).push((name.clone(), partition.structure()));
                    }
                    lock(&ctx.markers).push((name, ctx.worker_id, t));
                    if let Some(ack) = ack {
                        let _ = ack.send(());
                    }
                }
                Msg::Crash => {
                    // Die like a killed process: no final board publish
                    // (the slot keeps the last snapshot), no summary,
                    // queued messages abandoned. The closed mailbox tells
                    // the rest of the engine (and a waiting supervisor)
                    // that this worker is gone. A post is accounted under
                    // the mailbox's lock and only while it is open, so
                    // after `close` the account is final: what is
                    // enqueued but unprocessed — minus this round and the
                    // crash itself — is exactly the abandoned backlog,
                    // and every later post is refused and counted lost by
                    // its poster.
                    mailbox.close();
                    let abandoned = mailbox.backlog().saturating_sub(items as u64 + 1);
                    ctx.events_lost.add(abandoned);
                    ctx.crashes.inc();
                    ctx.queue_gauge.set(0);
                    return None;
                }
                Msg::Stop => running = false,
            }
            items += 1;
        }
        // Coalesced program work for the whole round.
        partition.flush_dirty(&dirty, &mut outbox);
        dirty.clear();

        ctx.busy.add(started.elapsed());
        ctx.ops.add(items as u64);

        // Route produced shares, one share per target and one post per
        // destination; self-targets loop through the own mailbox too —
        // computation and mutation genuinely share the queue. Shares owed
        // to a dead worker are counted lost (they degrade result accuracy
        // until a restart replays the events that would regenerate them).
        if !outbox.is_empty() {
            combine_into_parts::<P>(&mut outbox, &mut parts, &mut slots);
            let mailboxes = read(&ctx.mailboxes);
            let mut lost = 0;
            for (destination, part) in mailboxes.iter().zip(&mut parts) {
                if !part.is_empty() {
                    lost += destination.post_shares(part);
                }
            }
            drop(mailboxes);
            if lost > 0 {
                ctx.events_lost.add(lost);
            }
        }
        // A refresh this round makes due goes out before the round is
        // accounted, so whoever sees the account settled (`quiesce`) also
        // sees the board it implies. (Only this worker advances
        // `processed`, so the load is what `done` will make it.)
        let round = items as u64;
        let processed = mailbox.account().1 + round;
        if processed % ctx.config.board_refresh_every.max(1) < round {
            publish(&partition);
        }
        // Only now is the round done: what it produced is already on its
        // destinations' accounts (see `Mailbox`).
        mailbox.done(round);
        ctx.queue_gauge.set(mailbox.backlog() as i64);
    }
    // Final board publish so late readers see the end state.
    publish(&partition);
    Some(partition)
}

/// Moves a round's shares from `outbox` into `parts`, one part per
/// destination worker (`shard_of` the target), folding every later share
/// for a target into its first with [`Partition::combine`]: each target
/// gets one share per round, in first-occurrence order. `slots` maps the
/// targets seen so far to their share's index in its part; it is left
/// empty, its capacity kept.
fn combine_into_parts<P: Partition>(
    outbox: &mut Batch<P::Msg>,
    parts: &mut [Batch<P::Msg>],
    slots: &mut VertexMap<usize>,
) {
    let workers = parts.len();
    for (target, msg) in outbox.drain(..) {
        let part = &mut parts[shard_of(target, workers)];
        match slots.entry(target) {
            Entry::Occupied(slot) => P::combine(&mut part[*slot.get()].1, msg),
            Entry::Vacant(slot) => {
                slot.insert(part.len());
                part.push((target, msg));
            }
        }
    }
    slots.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add_v(id: u64) -> GraphEvent {
        GraphEvent::AddVertex {
            id: VertexId(id),
            state: State::empty(),
        }
    }

    fn add_e(s: u64, d: u64) -> GraphEvent {
        GraphEvent::AddEdge {
            id: EdgeId::from((s, d)),
            state: State::empty(),
        }
    }

    #[test]
    fn processes_stream_and_converges() {
        let hub = MetricsHub::new();
        // Whether a share reaches a vertex before or after that vertex's
        // out-edge is a race between workers: mass absorbed while still
        // dangling settles, and only `reseed` of it is pushed on when the
        // edge arrives. With `reseed = 1.0` all of it is, so the push
        // fixpoint no longer depends on the interleaving.
        let config = EngineConfig {
            rank: RankParams {
                epsilon: 1e-6,
                reseed: 1.0,
                ..Default::default()
            },
            ..Default::default()
        };
        let engine = TideGraph::start(config, &hub);
        for i in 0..50 {
            engine.ingest(add_v(i));
        }
        for i in 0..50 {
            engine.ingest(add_e(i, (i + 1) % 50));
        }
        assert!(engine.quiesce(Duration::from_secs(10)));
        let stats = engine.shutdown();
        assert_eq!(stats.events, 100);
        assert!(stats.shares > 0);
        assert_eq!(stats.ranks.len(), 50);
        assert_eq!(stats.crashes, 0);
        assert_eq!(stats.restarts, 0);
        assert_eq!(stats.events_lost, 0);
        // Symmetric ring: normalized ranks uniform, up to what stays
        // parked below ε.
        let norm = TideGraph::normalized(&stats.ranks);
        for (&id, &p) in &norm {
            assert!((p - 0.02).abs() < 1e-4, "vertex {id}: {p}");
        }
        // And no share went missing on the way: all 50 seeds settled.
        let settled: f64 = stats.ranks.values().sum();
        assert!(
            (50.0 - 1e-3..=50.0 + 1e-9).contains(&settled),
            "settled {settled}"
        );
    }

    #[test]
    fn ranks_match_batch_pagerank_shape() {
        use gt_algorithms::pagerank::{pagerank, PageRankConfig};
        use gt_graph::{CsrSnapshot, EvolvingGraph};

        // A preferential-attachment graph; compare top-5 sets.
        let stream = gt_graph::builders::BarabasiAlbert {
            n: 150,
            m0: 5,
            m: 2,
            seed: 77,
        }
        .generate();
        let hub = MetricsHub::new();
        let engine = TideGraph::start(
            EngineConfig {
                rank: RankParams {
                    epsilon: 1e-5,
                    ..Default::default()
                },
                ..Default::default()
            },
            &hub,
        );
        let mut graph = EvolvingGraph::new();
        for event in stream.graph_events() {
            engine.ingest(event.clone());
            graph.apply(event).unwrap();
        }
        assert!(engine.quiesce(Duration::from_secs(30)));
        let stats = engine.shutdown();
        let online = TideGraph::normalized(&stats.ranks);

        let csr = CsrSnapshot::from_graph(&graph);
        let exact = pagerank(&csr, &PageRankConfig::default());
        let exact_map: BTreeMap<VertexId, f64> = csr
            .indices()
            .map(|i| (csr.id_of(i), exact.ranks[i as usize]))
            .collect();

        let overlap = gt_overlap(&online, &exact_map, 5);
        assert!(overlap >= 0.4, "top-5 overlap {overlap}");
    }

    /// Local copy of the top-k Jaccard overlap to avoid a dev-dependency
    /// cycle with gt-analysis.
    fn gt_overlap(a: &BTreeMap<VertexId, f64>, b: &BTreeMap<VertexId, f64>, k: usize) -> f64 {
        let top = |m: &BTreeMap<VertexId, f64>| -> std::collections::BTreeSet<VertexId> {
            let mut v: Vec<(VertexId, f64)> = m.iter().map(|(i, &p)| (*i, p)).collect();
            v.sort_by(|x, y| y.1.partial_cmp(&x.1).unwrap().then(x.0.cmp(&y.0)));
            v.into_iter().take(k).map(|(i, _)| i).collect()
        };
        let (sa, sb) = (top(a), top(b));
        sa.intersection(&sb).count() as f64 / sa.union(&sb).count() as f64
    }

    #[test]
    fn backlog_grows_under_load_and_drains() {
        let hub = MetricsHub::new();
        let engine = TideGraph::start(
            EngineConfig {
                workers: 2,
                event_cost: Duration::from_micros(500),
                share_cost: Duration::from_micros(100),
                ..Default::default()
            },
            &hub,
        );
        // Burst far faster than 2 workers × 500µs can absorb.
        for i in 0..2_000 {
            engine.ingest(add_v(i));
        }
        let backlog = engine.total_queue_len();
        assert!(backlog > 100, "backlog {backlog}");
        assert!(engine.quiesce(Duration::from_secs(30)));
        assert_eq!(engine.total_queue_len(), 0);
        let stats = engine.shutdown();
        assert_eq!(stats.events, 2_000);
    }

    #[test]
    fn board_publishes_intermediate_results() {
        let hub = MetricsHub::new();
        let engine = TideGraph::start(
            EngineConfig {
                board_refresh_every: 8,
                ..Default::default()
            },
            &hub,
        );
        for i in 0..100 {
            engine.ingest(add_v(i));
        }
        engine.quiesce(Duration::from_secs(10));
        let board = engine.board_ranks();
        assert!(!board.is_empty());
        let total: f64 = board.values().sum();
        assert!((total - 1.0).abs() < 1e-9);
        engine.shutdown();
    }

    /// 1 000 vertices, each arriving with its one out-edge, to one of the
    /// five vertices before it (vertex 0's is a self-loop, which the
    /// program ignores): 2 000 events whose mass travels down a long
    /// braid, some forty hops a seed, across every pair of workers. One
    /// out-edge, whose target's `AddVertex` is queued ahead of any share
    /// it can receive: with `reseed = 1.0` the fixpoint does not depend
    /// on the interleaving.
    fn growing_graph() -> Vec<GraphEvent> {
        let target = |i: u64| i.saturating_sub(1 + (i * 7) % i.clamp(1, 5));
        (0..1_000u64)
            .flat_map(|i| [add_v(i), add_e(i, target(i))])
            .collect()
    }

    /// Ingests [`growing_graph`] — optionally with a thread reading the
    /// board as fast as it can, checking every slot copy it takes — and
    /// returns the final ranks.
    fn ingest_growing_graph(rank: RankParams, read_board: bool) -> BTreeMap<VertexId, f64> {
        const WORKERS: usize = 4;
        let hub = MetricsHub::new();
        let config = EngineConfig {
            workers: WORKERS,
            rank,
            board_refresh_every: 16,
            ..Default::default()
        };
        let engine = TideGraph::start(config, &hub);
        // Counted before the vertex is ingested: never behind the engine.
        let seeded = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut snapshots = 0u64;
                let mut part = Snapshot::new();
                while read_board && !done.load(Ordering::SeqCst) {
                    let mut total = 0.0;
                    for worker in 0..WORKERS {
                        part.clear();
                        engine.core.board.read_slot(worker, &mut part);
                        let ids: std::collections::BTreeSet<VertexId> =
                            part.iter().map(|(id, _)| *id).collect();
                        assert_eq!(ids.len(), part.len(), "a vertex twice in one slot");
                        for (id, p) in &part {
                            assert_eq!(shard_of(*id, WORKERS), worker, "{id} in a foreign slot");
                            assert!(p.is_finite() && *p >= 0.0, "{id}: {p}");
                        }
                        total += part.iter().map(|(_, p)| p).sum::<f64>();
                    }
                    // Slots are from different instants, so mass that moved
                    // between two workers in between could count twice —
                    // but only if some vertex's `p` ever shrank, and with
                    // `reseed = 0` none does: the sum of the slots is then
                    // at most the engine's settled mass *now*.
                    if rank.reseed == 0.0 {
                        let limit = seeded.load(Ordering::SeqCst) as f64;
                        assert!(total <= limit + 1e-9, "{total} settled of {limit} seeded");
                    }
                    snapshots += 1;
                }
                snapshots
            });
            for event in growing_graph() {
                if matches!(event, GraphEvent::AddVertex { .. }) {
                    seeded.fetch_add(1, Ordering::SeqCst);
                }
                engine.ingest(event);
            }
            let quiesced = engine.quiesce(Duration::from_secs(120));
            done.store(true, Ordering::SeqCst);
            let snapshots = reader.join().expect("a board invariant failed");
            assert!(quiesced, "the engine must settle with a reader attached");
            assert!(!read_board || snapshots > 0);
        });
        engine.shutdown().ranks
    }

    #[test]
    fn concurrent_reader_sees_whole_slots_and_changes_nothing() {
        // Monotone `p`: the mass bound on a multi-instant read is exact.
        let monotone = RankParams {
            epsilon: 1e-6,
            reseed: 0.0,
            ..Default::default()
        };
        let ranks = ingest_growing_graph(monotone, true);
        assert_eq!(ranks.len(), 1_000);

        // Order-independent fixpoint: with and without a reader the run
        // ends in the same place, up to what stays parked below ε.
        let exact = RankParams {
            reseed: 1.0,
            ..monotone
        };
        let watched = ingest_growing_graph(exact, true);
        let alone = ingest_growing_graph(exact, false);
        assert_eq!(watched.len(), alone.len());
        for (id, p) in &alone {
            assert!(
                (watched[id] - p).abs() < 1e-3,
                "{id}: {} vs {p}",
                watched[id]
            );
        }
    }

    #[test]
    fn vertex_removal_broadcast_strips_remote_edges() {
        let hub = MetricsHub::new();
        let engine = TideGraph::start(EngineConfig::default(), &hub);
        for i in 0..10 {
            engine.ingest(add_v(i));
        }
        for i in 1..10 {
            engine.ingest(add_e(i, 0));
        }
        engine.quiesce(Duration::from_secs(10));
        engine.ingest(GraphEvent::RemoveVertex { id: VertexId(0) });
        engine.quiesce(Duration::from_secs(10));
        let stats = engine.shutdown();
        assert!(!stats.ranks.contains_key(&VertexId(0)));
        assert_eq!(stats.ranks.len(), 9);
    }

    #[test]
    fn an_edge_before_its_source_is_counted_dropped() {
        let engine = TideGraph::start(EngineConfig::default(), &MetricsHub::new());
        engine.ingest(add_e(1, 2));
        for event in [add_v(1), add_v(2), add_e(1, 2), add_e(2, 2)] {
            engine.ingest(event);
        }
        let stats = engine.shutdown();
        // The self-loop is skipped by design, not dropped.
        assert_eq!((stats.events, stats.dangling_edges_dropped), (5, 1));
    }

    #[test]
    fn markers_are_processed_by_every_worker() {
        let hub = MetricsHub::new();
        let engine = TideGraph::start(
            EngineConfig {
                workers: 3,
                ..Default::default()
            },
            &hub,
        );
        for i in 0..20 {
            engine.ingest(add_v(i));
        }
        let enqueued_at = engine.core.started.elapsed().as_micros() as u64;
        engine.ingest_marker("wm-0");
        engine.quiesce(Duration::from_secs(10));
        let log = engine.marker_log();
        assert_eq!(log.len(), 3, "one record per worker: {log:?}");
        let workers: std::collections::BTreeSet<usize> = log.iter().map(|(_, w, _)| *w).collect();
        assert_eq!(workers.len(), 3);
        for (name, _, t) in &log {
            assert_eq!(name, "wm-0");
            assert!(*t >= enqueued_at, "processed before enqueue: {t}");
        }
        engine.shutdown();
    }

    #[test]
    fn marker_latency_grows_with_backlog() {
        let hub = MetricsHub::new();
        let engine = TideGraph::start(
            EngineConfig {
                workers: 2,
                event_cost: Duration::from_micros(400),
                ..Default::default()
            },
            &hub,
        );
        // Marker on an idle engine: near-immediate.
        let t0 = engine.core.started.elapsed().as_micros() as u64;
        engine.ingest_marker("idle");
        engine.quiesce(Duration::from_secs(10));
        let idle_latency = engine
            .marker_log()
            .iter()
            .map(|(_, _, t)| t - t0)
            .max()
            .unwrap();

        // Marker behind a burst of expensive events: must wait.
        for i in 0..1_000 {
            engine.ingest(add_v(i));
        }
        let t1 = engine.core.started.elapsed().as_micros() as u64;
        engine.ingest_marker("busy");
        engine.quiesce(Duration::from_secs(60));
        let busy_latency = engine
            .marker_log()
            .iter()
            .filter(|(name, _, _)| name == "busy")
            .map(|(_, _, t)| t - t1)
            .max()
            .unwrap();
        assert!(
            busy_latency > idle_latency * 5,
            "busy {busy_latency}µs vs idle {idle_latency}µs"
        );
        engine.shutdown();
    }

    #[test]
    fn per_worker_metrics_registered() {
        let hub = MetricsHub::new();
        let engine = TideGraph::start(
            EngineConfig {
                workers: 3,
                ..Default::default()
            },
            &hub,
        );
        for i in 0..30 {
            engine.ingest(add_v(i));
        }
        engine.quiesce(Duration::from_secs(10));
        engine.shutdown();
        let total_ops: u64 = (0..3)
            .map(|w| hub.counter(&format!("worker-{w}.ops")).get())
            .sum();
        assert!(total_ops >= 30);
    }

    /// Which worker owns a vertex id — helper for crash tests that need
    /// to know where events land.
    fn owner_of(id: u64, workers: usize) -> usize {
        shard_of(VertexId(id), workers)
    }

    #[test]
    fn crash_is_contained_without_supervision() {
        let hub = MetricsHub::new();
        let engine = TideGraph::start(
            EngineConfig {
                workers: 2,
                ..Default::default()
            },
            &hub,
        );
        for i in 0..100 {
            engine.ingest(add_v(i));
        }
        assert!(engine.quiesce(Duration::from_secs(10)));

        let supervisor = engine.supervisor();
        assert_eq!(supervisor.worker_count(), 2);
        assert!(supervisor.inject_crash(0));
        // Unsupervised: restart must refuse.
        assert!(!supervisor.restart_worker(0));
        // Crashing a dead worker must refuse too (wait for the kill).
        let deadline = Instant::now() + Duration::from_secs(5);
        while supervisor.inject_crash(0) {
            assert!(Instant::now() < deadline, "worker 0 never died");
            std::thread::sleep(Duration::from_millis(1));
        }

        // The engine keeps ingesting; events owned by the dead worker
        // are counted lost, the rest still process.
        for i in 100..200 {
            engine.ingest(add_v(i));
        }
        // Quiesce must still succeed: dead backlog is lost, not pending.
        assert!(engine.quiesce(Duration::from_secs(10)));
        let stats = engine.shutdown();
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.restarts, 0);
        let lost_vertices = (100..200).filter(|&i| owner_of(i, 2) == 0).count();
        assert!(lost_vertices > 0, "hash routed nothing to worker 0");
        assert!(
            stats.events_lost >= lost_vertices as u64,
            "lost {} < routed-to-dead {}",
            stats.events_lost,
            lost_vertices
        );
        // Survivor's vertices are all present.
        for i in 100..200 {
            if owner_of(i, 2) == 1 {
                assert!(stats.ranks.contains_key(&VertexId(i)));
            }
        }
    }

    #[test]
    fn supervised_restart_rebuilds_worker_state_by_replay() {
        let hub = MetricsHub::new();
        let engine = TideGraph::start(
            EngineConfig {
                workers: 2,
                supervised: true,
                ..Default::default()
            },
            &hub,
        );
        for i in 0..60 {
            engine.ingest(add_v(i));
        }
        for i in 0..60 {
            engine.ingest(add_e(i, (i + 1) % 60));
        }
        assert!(engine.quiesce(Duration::from_secs(10)));

        let supervisor = engine.supervisor();
        assert!(supervisor.inject_crash(1));
        assert!(supervisor.restart_worker(1));

        // Post-restart events must land normally again.
        for i in 60..80 {
            engine.ingest(add_v(i));
        }
        assert!(engine.quiesce(Duration::from_secs(30)));
        let stats = engine.shutdown();
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.restarts, 1);
        assert!(stats.events_replayed > 0);
        // Replay rebuilt the crashed worker's vertices: every vertex of
        // the run is present in the final summary.
        assert_eq!(stats.ranks.len(), 80, "missing vertices after restart");
    }

    #[test]
    fn crash_mid_backlog_never_hangs() {
        let hub = MetricsHub::new();
        let engine = TideGraph::start(
            EngineConfig {
                workers: 2,
                event_cost: Duration::from_micros(200),
                supervised: true,
                ..Default::default()
            },
            &hub,
        );
        // Build a backlog, then crash while it drains.
        for i in 0..2_000 {
            engine.ingest(add_v(i));
        }
        let supervisor = engine.supervisor();
        assert!(supervisor.inject_crash(0));
        assert!(supervisor.restart_worker(0));
        assert!(engine.quiesce(Duration::from_secs(60)));
        let stats = engine.shutdown();
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.restarts, 1);
        assert_eq!(stats.ranks.len(), 2_000);
    }

    /// Two vertices worker 1 pushes in one round both send to one target
    /// on worker 0: one share leaves, carrying the summed mass.
    #[test]
    fn a_round_sends_one_share_per_target_with_the_summed_mass() {
        let hub = MetricsHub::new();
        let config = EngineConfig {
            workers: 2,
            supervised: true,
            ..Default::default()
        };
        let engine = TideGraph::start(config, &hub);
        let target = (0..).find(|&id| owner_of(id, 2) == 0).unwrap();
        let on_1: Vec<u64> = (0..).filter(|&id| owner_of(id, 2) == 1).take(2).collect();
        engine.ingest(add_v(target));
        assert!(engine.quiesce(Duration::from_secs(10)));

        // Ingested behind a crash, the events are replayed into the fresh
        // mailbox before the restarted worker starts: one round.
        let supervisor = engine.supervisor();
        assert!(supervisor.inject_crash(1));
        for &id in &on_1 {
            engine.ingest(add_v(id));
            engine.ingest(add_e(id, target));
        }
        assert!(supervisor.restart_worker(1));
        assert!(engine.quiesce(Duration::from_secs(10)));
        let stats = engine.shutdown();
        assert_eq!(stats.shares, 1, "two pushes to one target, one share");
        // Each sender keeps α of its seed; the dangling target absorbs its
        // own seed and both sends.
        let alpha = RankParams::default().alpha;
        let expected = 1.0 + 2.0 * (1.0 - alpha);
        assert!((stats.ranks[&VertexId(target)] - expected).abs() < 1e-12);
    }

    /// Random outboxes over one to four workers, their targets drawn from
    /// 40 ids so that they repeat, through scratch reused round after
    /// round: each destination receives every target once, in the order
    /// of the target's first share, carrying the sum of its shares.
    #[test]
    fn combined_parts_hold_each_target_once_in_first_occurrence_order() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % n
        };
        for workers in 1..=4 {
            let mut parts: Vec<Batch<f64>> = vec![Vec::new(); workers];
            let mut slots = VertexMap::default();
            for _round in 0..50 {
                let len = next(300);
                let mut outbox: Batch<f64> = (0..len)
                    .map(|mass| (VertexId(next(40)), mass as f64))
                    .collect();
                let mut expected: Vec<Batch<f64>> = vec![Vec::new(); workers];
                for &(target, mass) in &outbox {
                    let part = &mut expected[shard_of(target, workers)];
                    match part.iter_mut().find(|(seen, _)| *seen == target) {
                        Some((_, sum)) => *sum += mass,
                        None => part.push((target, mass)),
                    }
                }
                combine_into_parts::<RankPartition>(&mut outbox, &mut parts, &mut slots);
                assert!(outbox.is_empty() && slots.is_empty());
                assert_eq!(parts, expected, "workers={workers}");
                // What posting leaves behind.
                parts.iter_mut().for_each(Vec::clear);
            }
        }
    }

    #[test]
    fn restart_out_of_range_or_alive_refuses() {
        let hub = MetricsHub::new();
        let engine = TideGraph::start(
            EngineConfig {
                workers: 2,
                supervised: true,
                ..Default::default()
            },
            &hub,
        );
        let supervisor = engine.supervisor();
        assert!(!supervisor.inject_crash(7));
        assert!(!supervisor.restart_worker(7));
        engine.shutdown();
    }
}

//! The share transport's contract: shares travel packed into mailbox
//! blocks, but everything observable — the item sequence a worker
//! receives, rank mass, marker barriers, loss counts, backlog probes,
//! quiescence — is in *items*, as if every share were still its own
//! mailbox message.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gt_core::hash::shard_of;
use gt_core::prelude::*;
use gt_metrics::MetricsHub;
use tide_graph::mailbox::{mailbox, Batch, Mailbox, Msg, Transport, BLOCK_SHARES};
use tide_graph::rank::RankPartition;
use tide_graph::{Engine, EngineConfig, Partition, RankParams, TideGraph};

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

/// The first `n` vertex ids at or above `from` that `worker` owns.
fn owned_by(worker: usize, workers: usize, from: u64, n: usize) -> Vec<u64> {
    (from..)
        .filter(|id| shard_of(VertexId(*id), workers) == worker)
        .take(n)
        .collect()
}

fn counter_sum(hub: &MetricsHub, workers: usize, metric: &str) -> u64 {
    (0..workers)
        .map(|w| hub.counter(&format!("worker-{w}.{metric}")).get())
        .sum()
}

/// Polls `condition` every millisecond for up to five seconds.
fn eventually(what: &str, mut condition: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !condition() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Every vertex seeds one unit of mass and an add-only stream destroys
/// none, so once the engine is quiet all of it is settled except what is
/// parked below ε — unless a share was lost in a batch, on a free list,
/// or behind the shutdown.
#[test]
fn no_share_is_lost_at_any_worker_count() {
    const V: u64 = 120;
    let epsilon = 1e-3;
    for workers in [1, 2, 4] {
        let hub = MetricsHub::new();
        let config = EngineConfig {
            workers,
            rank: RankParams {
                epsilon,
                ..Default::default()
            },
            ..Default::default()
        };
        let engine = TideGraph::start(config, &hub);
        for i in 0..V {
            engine.ingest(add_v(i));
        }
        for i in 0..V {
            // A ring plus chords into a few hubs: fan-in and fan-out.
            engine.ingest(add_e(i, (i + 1) % V));
            engine.ingest(add_e(i, i % 7));
            engine.ingest(add_e(i % 7, (i * 13 + 5) % V));
        }
        assert!(engine.quiesce(Duration::from_secs(60)), "workers={workers}");
        assert_eq!(engine.total_queue_len(), 0, "workers={workers}");
        let stats = engine.shutdown();
        assert_eq!(stats.events_lost, 0, "workers={workers}");
        assert_eq!(stats.ranks.len() as u64, V, "workers={workers}");
        let settled: f64 = stats.ranks.values().sum();
        let total = V as f64;
        assert!(
            total * (1.0 - epsilon) <= settled && settled <= total + 1e-9,
            "workers={workers}: settled {settled} of {total}"
        );
        assert!(stats.shares > 0);
        assert_eq!(stats.shares, counter_sum(&hub, workers, "shares"));
        assert_eq!(
            counter_sum(&hub, workers, "ops"),
            stats.events + stats.shares,
            "workers={workers}: ops count items"
        );
    }
}

/// `quiesce` used to return while a round longer than its poll gap was
/// still running on an empty mailbox; `shutdown` then ended the mailboxes
/// ahead of the round's output and the mass in it was never delivered.
#[test]
fn quiesce_waits_for_a_round_that_is_still_running() {
    let epsilon = 1e-3;
    let hub = MetricsHub::new();
    let config = EngineConfig {
        workers: 1,
        rank: RankParams {
            epsilon,
            ..Default::default()
        },
        share_cost: Duration::from_millis(2),
        ..Default::default()
    };
    let engine = TideGraph::start(config, &hub);
    for i in 0..6 {
        engine.ingest(add_v(i));
    }
    for i in 0..6 {
        engine.ingest(add_e(i, (i + 1) % 6));
    }
    assert!(engine.quiesce(Duration::from_secs(60)));
    let stats = engine.shutdown();
    let settled: f64 = stats.ranks.values().sum();
    assert!(
        6.0 - settled < 6.0 * epsilon,
        "settled {settled} of 6 after {} shares",
        stats.shares
    );
}

/// A marker is acknowledged only once every event ingested before it has
/// been applied — on every worker, with share blocks in flight between
/// them.
#[test]
fn marker_barrier_covers_every_earlier_event() {
    const V: u64 = 400;
    let workers = 4;
    let hub = MetricsHub::new();
    let config = EngineConfig {
        workers,
        event_cost: Duration::from_micros(50),
        ..Default::default()
    };
    let engine = TideGraph::start(config, &hub);
    for i in 0..V {
        engine.ingest(add_v(i));
    }
    for i in 0..V {
        engine.ingest(add_e(i, (i + 1) % V));
        engine.ingest(add_e(i, i % 5));
    }
    let acked = engine.ingest_marker_barrier("cut", Duration::from_secs(60));
    let applied = counter_sum(&hub, workers, "events");
    assert_eq!(acked, workers);
    assert_eq!(applied, 3 * V, "events applied when the barrier returned");
    assert!(engine.quiesce(Duration::from_secs(60)));
    let stats = engine.shutdown();
    assert!(stats.shares > 0, "no share traffic crossed the barrier");
}

/// A worker that dies with a batch queued behind its crash loses that
/// batch's *items*; the engine still quiesces, and a supervised restart
/// rebuilds the same vertex set.
#[test]
fn crash_with_queued_batches_loses_items_and_recovers() {
    const LINKED: usize = 20;
    const STALL: usize = 60;
    let hub = MetricsHub::new();
    let config = EngineConfig {
        workers: 2,
        rank: RankParams {
            // Every topology change pushes, however little mass is left.
            epsilon: 1e-9,
            ..Default::default()
        },
        event_cost: Duration::from_millis(2),
        supervised: true,
        ..Default::default()
    };
    let engine = TideGraph::start(config, &hub);
    let supervisor = engine.supervisor();
    let spokes = owned_by(0, 2, 0, LINKED + 1 + STALL);
    let center = owned_by(1, 2, 1_000, 1)[0];

    // The center on worker 1 points at LINKED spokes on worker 0.
    engine.ingest(add_v(center));
    for &id in &spokes[..=LINKED] {
        engine.ingest(add_v(id));
    }
    for &id in &spokes[..LINKED] {
        engine.ingest(add_e(center, id));
    }
    assert!(engine.quiesce(Duration::from_secs(30)));
    assert_eq!(hub.counter("engine.events_lost").get(), 0);

    // Worker 0 is busy with STALL more vertices for ~120 ms; the crash
    // queues up behind them. One more edge — a single event, so a single
    // round — makes the center push once, to all LINKED + 1 spokes: one
    // batch, queued behind the crash (or refused, if the crash won).
    for &id in &spokes[LINKED + 1..] {
        engine.ingest(add_v(id));
    }
    assert!(supervisor.inject_crash(0));
    engine.ingest(add_e(center, spokes[LINKED]));

    assert!(
        supervisor.restart_worker(0),
        "restart after the crash lands"
    );
    assert!(engine.quiesce(Duration::from_secs(30)));
    let stats = engine.shutdown();
    assert_eq!((stats.crashes, stats.restarts), (1, 1));
    assert_eq!(
        stats.events_lost,
        LINKED as u64 + 1,
        "exactly the shares of the one batch, counted one by one"
    );
    assert_eq!(stats.events_replayed, spokes.len() as u64);
    let mut expected = spokes.clone();
    expected.push(center);
    expected.sort_unstable();
    let rebuilt: Vec<u64> = stats.ranks.keys().map(|id| id.0).collect();
    assert_eq!(rebuilt, expected);
}

/// Packed blocks queued behind a crash are lost item by item: two centers,
/// on workers 1 and 2, each push once to more spokes on worker 0 than a
/// block holds. A worker combines only its own round's shares, so the two
/// posts stay two: they fill a block, pack the second into the first's
/// tail block and spill into a third — all of it behind the crash (or
/// refused, if the crash won).
#[test]
fn crash_with_packed_blocks_queued_loses_exactly_their_items() {
    const SPOKES: usize = BLOCK_SHARES + 8;
    const STALL: usize = 100;
    let hub = MetricsHub::new();
    let config = EngineConfig {
        workers: 3,
        rank: RankParams {
            // Every topology change pushes, however little mass is left.
            epsilon: 1e-9,
            ..Default::default()
        },
        event_cost: Duration::from_millis(1),
        ..Default::default()
    };
    let engine = TideGraph::start(config, &hub);
    let supervisor = engine.supervisor();
    let spokes = owned_by(0, 3, 0, SPOKES + 2 + STALL);
    let centers = [1, 2].map(|worker| owned_by(worker, 3, 100_000, 1)[0]);
    for &id in centers.iter().chain(&spokes[..SPOKES + 2]) {
        engine.ingest(add_v(id));
    }
    for &center in &centers {
        for &id in &spokes[..SPOKES] {
            engine.ingest(add_e(center, id));
        }
    }
    assert!(engine.quiesce(Duration::from_secs(60)));
    assert_eq!(hub.counter("engine.events_lost").get(), 0);

    // Worker 0 is busy for ~100 ms; the crash queues behind that, and one
    // more edge a center makes each push to SPOKES + 1 spokes.
    for &id in &spokes[SPOKES + 2..] {
        engine.ingest(add_v(id));
    }
    assert!(supervisor.inject_crash(0));
    for (&center, &spoke) in centers.iter().zip(&spokes[SPOKES..]) {
        engine.ingest(add_e(center, spoke));
    }
    assert!(engine.quiesce(Duration::from_secs(30)));
    let stats = engine.shutdown();
    assert_eq!(stats.crashes, 1);
    assert_eq!(
        stats.events_lost,
        2 * (SPOKES as u64 + 1),
        "exactly the shares of the two pushes, counted one by one"
    );
}

/// Shares bound for a dead worker are lost by the item as well.
#[test]
fn shares_sent_to_a_dead_worker_are_lost_by_the_item() {
    const SPOKES: usize = 50;
    let hub = MetricsHub::new();
    let config = EngineConfig {
        workers: 2,
        ..Default::default()
    };
    let engine = TideGraph::start(config, &hub);
    let spokes = owned_by(0, 2, 0, SPOKES);
    let center = owned_by(1, 2, 1_000, 1)[0];
    for &id in &spokes {
        engine.ingest(add_v(id));
    }
    assert!(engine.quiesce(Duration::from_secs(10)));
    let supervisor = engine.supervisor();
    assert!(supervisor.inject_crash(0));
    eventually("the crash to land", || !supervisor.inject_crash(0));

    // All of the center's events reach worker 1 before it wakes up often
    // enough to split them: whatever the rounds, every share it pushes is
    // owed to the dead worker.
    engine.ingest(add_v(center));
    for &id in &spokes {
        engine.ingest(add_e(center, id));
    }
    assert!(engine.quiesce(Duration::from_secs(10)));
    let stats = engine.shutdown();
    assert_eq!(stats.shares, 0, "no share had a live receiver");
    assert!(
        stats.events_lost >= SPOKES as u64,
        "lost {} < one push to {SPOKES} spokes",
        stats.events_lost
    );
}

/// One batch of a thousand shares is a backlog of a thousand, for the
/// probe and for the gauge — not of one message.
#[test]
fn backlog_probe_and_queue_gauge_count_items() {
    const SPOKES: usize = 1_000;
    let hub = MetricsHub::new();
    let config = EngineConfig {
        workers: 2,
        // One round can take the whole fan-out.
        drain_batch: 2 * SPOKES,
        share_cost: Duration::from_micros(500),
        supervised: true,
        ..Default::default()
    };
    let engine = TideGraph::start(config, &hub);
    let supervisor = engine.supervisor();
    let spokes = owned_by(0, 2, 0, SPOKES);
    let center = owned_by(1, 2, 10_000, 1)[0];
    for &id in &spokes {
        engine.ingest(add_v(id));
    }
    assert!(engine.quiesce(Duration::from_secs(10)));
    assert_eq!(engine.total_queue_len(), 0);
    assert_eq!(hub.gauge("worker-0.queue").get(), 0);

    // The center and its edges reach worker 1 as one round — so it pushes
    // exactly once — by way of a restart: ingested while the worker is
    // dead, they are all replayed into its mailbox before it starts.
    assert!(supervisor.inject_crash(1));
    eventually("the crash to land", || !supervisor.inject_crash(1));
    engine.ingest(add_v(center));
    for &id in &spokes {
        engine.ingest(add_e(center, id));
    }
    assert!(supervisor.restart_worker(1));

    // Worker 0 needs ~500 ms for the batch; until then it is backlog.
    let mut backlog = 0;
    eventually("the batch to show as backlog", || {
        backlog = backlog.max(engine.total_queue_len());
        backlog >= 900 && hub.gauge("worker-0.queue").get() == SPOKES as i64
    });
    assert!(engine.quiesce(Duration::from_secs(30)));
    assert_eq!(engine.total_queue_len(), 0);
    assert_eq!(hub.gauge("worker-0.queue").get(), 0);
    let stats = engine.shutdown();
    assert_eq!(stats.shares, SPOKES as u64, "one push, one share a spoke");
}

// ---------------------------------------------------------------------
// The mailbox itself: packing, order, accounting, wake-ups, exit.
// ---------------------------------------------------------------------

/// SplitMix64: the property cases are reproducible from their index.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One received item, comparable with the reference.
#[derive(Debug, Clone, PartialEq)]
enum Item {
    Event(u64),
    Purge(u64),
    Marker(String),
    Share(u64, u64),
}

/// A worker's receiving side, consuming its mailbox the way the engine's
/// worker loop does: a round takes up to `n` items, a block is consumed
/// in place across rounds, each spent block is handed back with the next
/// receive, and the round is marked done at its end.
#[derive(Default)]
struct Receiver {
    block: Batch<f64>,
    cursor: usize,
    seen: Vec<Item>,
}

impl Receiver {
    fn round(&mut self, mailbox: &Mailbox<f64>, n: usize) {
        let mut items = 0;
        while items < n {
            if self.cursor < self.block.len() {
                let end = self.block.len().min(self.cursor + n - items);
                let shares = &self.block[self.cursor..end];
                let seen = shares.iter().map(|(v, p)| Item::Share(v.0, p.to_bits()));
                self.seen.extend(seen);
                items += end - self.cursor;
                self.cursor = end;
                continue;
            }
            let Some(msg) = mailbox.try_recv(&mut self.block) else {
                break;
            };
            assert!(self.block.is_empty(), "the spent block was not emptied");
            let item = match msg {
                Msg::Shares(block) => {
                    assert!(!block.is_empty() && block.len() <= BLOCK_SHARES);
                    assert_eq!(block.capacity(), BLOCK_SHARES);
                    self.block = block;
                    self.cursor = 0;
                    continue;
                }
                Msg::Event(_, seq) => Item::Event(seq),
                Msg::Purge(id) => Item::Purge(id.0),
                Msg::Marker(name) => Item::Marker(name.to_string()),
                Msg::Crash => unreachable!("never posted here"),
            };
            self.seen.push(item);
            items += 1;
        }
        mailbox.done(items as u64);
    }
}

/// Random interleavings of posts — events, markers, purges, share posts
/// of 0–2 000 items — and receiving rounds over 1–4 mailboxes: every
/// mailbox yields exactly the item sequence posted to it (a plain
/// message-per-item FIFO is the reference), and its backlog is always
/// the number of items posted and not yet consumed.
#[test]
fn packed_mailboxes_deliver_the_reference_item_sequence() {
    for case in 0..300u64 {
        let mut rng = Rng(case);
        let workers = 1 + rng.below(4) as usize;
        let mailboxes: Vec<Mailbox<f64>> = (0..workers).map(|_| mailbox()).collect();
        let mut receivers: Vec<Receiver> = (0..workers).map(|_| Receiver::default()).collect();
        let mut posted: Vec<Vec<Item>> = vec![Vec::new(); workers];
        let mut serial = 0u64;
        let mut part: Batch<f64> = Vec::new();
        for _ in 0..200 {
            serial += 1;
            let w = rng.below(workers as u64) as usize;
            let mailbox = &mailboxes[w];
            let lost = match rng.below(10) {
                0 | 1 => {
                    posted[w].push(Item::Event(serial));
                    mailbox.post(Msg::Event(add_v(serial), serial))
                }
                2 => {
                    posted[w].push(Item::Purge(serial));
                    mailbox.post(Msg::Purge(VertexId(serial)))
                }
                3 => {
                    let name = format!("m-{serial}");
                    posted[w].push(Item::Marker(name.clone()));
                    mailbox.post(Msg::Marker(Arc::from(name.as_str())))
                }
                4..=6 => {
                    let n = match rng.below(3) {
                        0 => rng.below(8),
                        1 => rng.below(BLOCK_SHARES as u64 + 8),
                        _ => rng.below(2_001),
                    };
                    for i in 0..n {
                        let share = (VertexId(serial), (serial * 10_000 + i) as f64);
                        posted[w].push(Item::Share(share.0 .0, share.1.to_bits()));
                        part.push(share);
                    }
                    let lost = mailbox.post_shares(&mut part);
                    assert!(part.is_empty(), "case {case}: shares left behind");
                    lost
                }
                _ => {
                    let n = 1 + rng.below(700) as usize;
                    receivers[w].round(mailbox, n);
                    0
                }
            };
            assert_eq!(lost, 0, "case {case}: a live mailbox refused a post");
            for (w, (mailbox, receiver)) in mailboxes.iter().zip(&receivers).enumerate() {
                let pending = (posted[w].len() - receiver.seen.len()) as u64;
                assert_eq!(mailbox.backlog(), pending, "case {case}, worker {w}");
            }
        }
        for (w, (mailbox, receiver)) in mailboxes.iter().zip(&mut receivers).enumerate() {
            receiver.round(mailbox, 1 << 30);
            assert_eq!(receiver.seen, posted[w], "case {case}, worker {w}");
            assert_eq!(mailbox.backlog(), 0, "case {case}, worker {w}");
        }
    }
}

/// A worker parks on an empty mailbox; every kind of post must wake it.
/// Each round posts while the worker is at its most likely to be just
/// going to sleep — right after it settled the previous round — so a
/// wake-up lost between its last look at the queue and its wait shows up
/// as a round that never settles.
#[test]
fn a_parked_worker_is_woken_by_every_kind_of_post() {
    const ROUNDS: u64 = 10_000;
    let hub = MetricsHub::new();
    let config = EngineConfig {
        workers: 2,
        supervised: true,
        ..Default::default()
    };
    let engine = TideGraph::start(config, &hub);
    let supervisor = engine.supervisor();
    let settle = |what: &str, round: u64| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !engine.quiesce(Duration::ZERO) {
            assert!(
                Instant::now() < deadline,
                "round {round} ({what}) never settled"
            );
            std::hint::spin_loop();
        }
    };
    let on_0 = owned_by(0, 2, 0, ROUNDS as usize);
    let on_1 = owned_by(1, 2, 0, ROUNDS as usize);
    for round in 0..ROUNDS {
        let (a, b) = (on_0[round as usize], on_1[round as usize]);
        match round % 5 {
            // An event, and the shares its push sends across.
            0 => engine.ingest(add_v(a)),
            1 => engine.ingest(add_v(b)),
            2 => engine.ingest(add_e(on_0[round as usize - 2], on_1[round as usize - 1])),
            // A purge on the other worker.
            3 => engine.ingest(GraphEvent::RemoveVertex { id: VertexId(b) }),
            // A marker on both.
            _ => {
                let acked = engine.ingest_marker_barrier("wake", Duration::from_secs(10));
                assert_eq!(acked, 2, "round {round}: a parked worker missed the marker");
            }
        }
        settle("post", round);
        // A crash, and the fresh mailbox of the restart.
        if round % 1_000 == 999 {
            let worker = (round / 1_000 % 2) as usize;
            assert!(supervisor.inject_crash(worker));
            assert!(
                supervisor.restart_worker(worker),
                "round {round}: crash never landed"
            );
            settle("restart", round);
        }
    }
    // And the shutdown's finish: a lost wake-up here hangs the join.
    let stats = engine.shutdown();
    assert_eq!((stats.crashes, stats.restarts), (10, 10));
    assert_eq!(stats.events_lost, 0);
}

/// A rank partition that counts how many of its kind are still alive.
/// Its worker returns it on exit, so a count of zero means every worker
/// thread has left its loop.
struct Watched {
    rank: RankPartition,
    alive: Arc<AtomicUsize>,
}

impl Drop for Watched {
    fn drop(&mut self) {
        self.alive.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Partition for Watched {
    type Msg = f64;

    fn combine(into: &mut f64, mass: f64) {
        RankPartition::combine(into, mass);
    }

    fn apply_event_deferred(&mut self, event: &GraphEvent, dirty: &mut Vec<VertexId>) -> bool {
        self.rank.apply_event_deferred(event, dirty)
    }

    fn receive_deferred(&mut self, target: VertexId, mass: f64, dirty: &mut Vec<VertexId>) {
        self.rank.receive_deferred(target, mass, dirty);
    }

    fn flush_dirty(&mut self, dirty: &[VertexId], out: &mut Vec<(VertexId, f64)>) {
        self.rank.flush_dirty(dirty, out);
    }

    fn purge(&mut self, removed: VertexId, out: &mut Vec<(VertexId, f64)>) {
        self.rank.purge(removed, out);
    }

    fn summary_into(&self, out: &mut Vec<(VertexId, f64)>) {
        self.rank.summary_into(out);
    }
}

/// An engine dropped without `shutdown` — idle, or with a backlog — lets
/// its workers exit instead of leaving them parked forever.
#[test]
fn dropping_an_engine_without_shutdown_lets_its_workers_exit() {
    for backlog in [0u64, 2_000] {
        let alive = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&alive);
        let config = EngineConfig {
            workers: 3,
            event_cost: Duration::from_micros(100),
            ..Default::default()
        };
        let engine = Engine::start_with(config, &MetricsHub::new(), move |_| {
            counted.fetch_add(1, Ordering::SeqCst);
            Watched {
                rank: RankPartition::default(),
                alive: Arc::clone(&counted),
            }
        });
        for i in 0..backlog {
            engine.ingest(add_v(i));
        }
        assert_eq!(alive.load(Ordering::SeqCst), 3);
        drop(engine);
        eventually("every worker to exit", || alive.load(Ordering::SeqCst) == 0);
    }
}

// ---------------------------------------------------------------------
// The result board: one snapshot slot per worker, republished whole.
// ---------------------------------------------------------------------

/// A board that republishes after every round: what it shows once the
/// engine is quiet is exact, not eventual.
fn exact_board_config(workers: usize) -> EngineConfig {
    EngineConfig {
        workers,
        board_refresh_every: 1,
        ..Default::default()
    }
}

/// The board used to be insert-only: a removed vertex kept its last `p`
/// there for the rest of the run, and `board_ranks` normalised over it.
#[test]
fn removed_vertices_leave_the_board() {
    const V: u64 = 20;
    let removed = [3u64, 4, 9, 12, 17];
    for workers in [1, 2, 4] {
        let hub = MetricsHub::new();
        let engine = TideGraph::start(exact_board_config(workers), &hub);
        for i in 0..V {
            engine.ingest(add_v(i));
        }
        for i in 0..V {
            engine.ingest(add_e(i, (i + 1) % V));
            engine.ingest(add_e(i, (i * 7 + 3) % V));
        }
        assert!(engine.quiesce(Duration::from_secs(30)), "workers={workers}");
        assert_eq!(engine.board_values().len() as u64, V, "workers={workers}");

        for id in removed {
            engine.ingest(GraphEvent::RemoveVertex { id: VertexId(id) });
        }
        assert!(engine.quiesce(Duration::from_secs(30)), "workers={workers}");
        let survivors: Vec<u64> = (0..V).filter(|id| !removed.contains(id)).collect();
        let on_board: Vec<u64> = engine.board_values().keys().map(|id| id.0).collect();
        assert_eq!(on_board, survivors, "workers={workers}");
        let ranks = engine.board_ranks();
        assert_eq!(ranks.len(), survivors.len(), "workers={workers}");
        let total: f64 = ranks.values().sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "workers={workers}: sums to {total}"
        );
        engine.shutdown();
    }
}

/// A round publishes before it is accounted, so a settled account implies
/// the board of the settled state — bit for bit what `shutdown` returns.
#[test]
fn quiesced_board_equals_the_final_ranks() {
    const V: u64 = 120;
    for workers in [1, 2, 4] {
        let hub = MetricsHub::new();
        let engine = TideGraph::start(exact_board_config(workers), &hub);
        for i in 0..V {
            engine.ingest(add_v(i));
            engine.ingest(add_e(i, i / 2));
            engine.ingest(add_e(i, i % 7));
        }
        for i in 0..V {
            engine.ingest(add_e(i, (i + 1) % V));
        }
        assert!(engine.quiesce(Duration::from_secs(60)), "workers={workers}");
        let board = engine.board_values();
        let stats = engine.shutdown();
        assert_eq!(board.len() as u64, V, "workers={workers}");
        assert_eq!(board, stats.ranks, "workers={workers}");
    }
}

/// The same ordering, caught in the act: a reader that spins on the
/// account reads the board within nanoseconds of the round's last step.
/// Accounting first and publishing second loses that race now and then;
/// publishing first cannot.
#[test]
fn the_board_is_never_behind_a_settled_account() {
    for workers in [1, 2] {
        let hub = MetricsHub::new();
        let engine = TideGraph::start(exact_board_config(workers), &hub);
        for i in 0..1_500u64 {
            engine.ingest(add_v(i));
            let deadline = Instant::now() + Duration::from_secs(10);
            while !engine.quiesce(Duration::ZERO) {
                assert!(Instant::now() < deadline, "vertex {i} never settled");
                std::hint::spin_loop();
            }
            let on_board = engine.board_values().len() as u64;
            assert_eq!(on_board, i + 1, "workers={workers}: board behind");
        }
        engine.shutdown();
    }
}

/// A crashed worker's slot keeps the last snapshot it published — ghosts
/// included — until a restarted worker publishes over it.
#[test]
fn crashed_workers_slot_is_frozen_until_a_restart_replaces_it() {
    let hub = MetricsHub::new();
    let config = EngineConfig {
        supervised: true,
        ..exact_board_config(2)
    };
    let engine = TideGraph::start(config, &hub);
    let supervisor = engine.supervisor();
    let dead = owned_by(0, 2, 0, 12);
    let alive = owned_by(1, 2, 0, 10);
    for &id in dead[..10].iter().chain(&alive) {
        engine.ingest(add_v(id));
    }
    for pair in dead[..10].windows(2) {
        engine.ingest(add_e(pair[0], pair[1]));
    }
    assert!(engine.quiesce(Duration::from_secs(10)));
    let before = engine.board_values();
    assert_eq!(before.len(), 20);

    assert!(supervisor.inject_crash(0));
    eventually("the crash to land", || !supervisor.inject_crash(0));
    // Lost on the dead worker, kept in its log: one of its
    // vertices goes, two arrive.
    engine.ingest(GraphEvent::RemoveVertex {
        id: VertexId(dead[0]),
    });
    engine.ingest(add_v(dead[10]));
    engine.ingest(add_v(dead[11]));
    assert!(engine.quiesce(Duration::from_secs(10)));
    assert_eq!(engine.board_values(), before, "a dead slot does not move");

    assert!(supervisor.restart_worker(0));
    assert!(engine.quiesce(Duration::from_secs(30)));
    let after = engine.board_values();
    let mut expected: Vec<u64> = dead[1..].iter().chain(&alive).copied().collect();
    expected.sort_unstable();
    let on_board: Vec<u64> = after.keys().map(|id| id.0).collect();
    assert_eq!(on_board, expected, "the replayed state replaced the slot");
    let stats = engine.shutdown();
    assert_eq!((stats.crashes, stats.restarts), (1, 1));
    assert_eq!(after, stats.ranks);
}

/// Events per second of one ingest + quiesce of `stream`.
fn ingest_rate(stream: &[GraphEvent], board_refresh_every: u64) -> f64 {
    let hub = MetricsHub::new();
    let config = EngineConfig {
        workers: 2,
        rank: RankParams {
            epsilon: 1e-2,
            ..Default::default()
        },
        board_refresh_every,
        ..Default::default()
    };
    let engine = TideGraph::start(config, &hub);
    let started = Instant::now();
    for event in stream {
        engine.ingest(event.clone());
    }
    assert!(engine.quiesce(Duration::from_secs(120)));
    let rate = stream.len() as f64 / started.elapsed().as_secs_f64();
    engine.shutdown();
    rate
}

/// The observer-cost guard (ROADMAP item 8): what Level-2 result dumping
/// costs the engine, as a ratio. Insert-under-a-global-lock measured
/// ≈ 0.4 here; the bound is loose because shared runners are.
#[test]
#[ignore = "wall-clock ratio; run with --release -- --ignored (CI timing job)"]
fn board_refresh_costs_less_than_forty_percent_of_throughput() {
    // Shaped and sized like the benchmark's `graph-direct-rank` stream:
    // 526 persons, each joining with 18 edges drawn by degree (~9 700
    // events). Far fewer vertices a worker and a refresh is too cheap
    // for the ratio to tell a costly board from a cheap one.
    let stream: Vec<GraphEvent> = gt_graph::builders::BarabasiAlbert {
        n: 526,
        m0: 18,
        m: 18,
        seed: 2018,
    }
    .generate()
    .graph_events()
    .cloned()
    .collect();
    let median = |mut rates: Vec<f64>| {
        rates.sort_by(f64::total_cmp);
        rates[rates.len() / 2]
    };
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        on.push(ingest_rate(&stream, 256));
        off.push(ingest_rate(&stream, u64::MAX));
    }
    let (on, off) = (median(on), median(off));
    println!(
        "board on {on:.0} events/s, off {off:.0} events/s: {:.2}",
        on / off
    );
    assert!(on >= 0.6 * off, "board on {on:.0} events/s, off {off:.0}");
}

//! The share transport's contract: shares travel in per-round,
//! per-destination batches, but everything observable — rank mass,
//! marker barriers, loss counts, backlog probes, quiescence — is in
//! *items*, as if every share were still its own mailbox message.

use std::time::{Duration, Instant};

use gt_core::prelude::*;
use gt_metrics::MetricsHub;
use tide_graph::{owner, EngineConfig, RankParams, TideGraph};

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
        .filter(|id| owner(VertexId(*id), workers) == worker)
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
/// or behind `Stop`.
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
            stats.events + stats.shares + workers as u64, // + one Stop each
            "workers={workers}: ops count items"
        );
    }
}

/// `quiesce` used to return while a round longer than its poll gap was
/// still running on an empty mailbox; `shutdown` then queued `Stop` ahead
/// of the round's output and the mass in it was never delivered.
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
/// been applied — on every worker, with share batches in flight between
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

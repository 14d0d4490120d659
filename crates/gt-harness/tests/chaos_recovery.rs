//! End-to-end chaos runs against the registry platforms: a worker killed
//! mid-stream must never hang the harness, fault/recovery events must
//! land in the merged log, and identical `(schedule, seed)` runs must
//! produce identical fault sequences.

use std::time::{Duration, Instant};

use gt_core::prelude::*;
use gt_harness::run::ChaosPlan;
use gt_harness::watchdog::WatchdogConfig;
use gt_harness::{
    run, EvaluationLevel, FaultSchedule, RunPlan, RunStatus, SutOptions, SutRegistry, Target,
    CHAOS_SOURCE,
};

fn registry() -> SutRegistry {
    let mut registry = SutRegistry::new();
    tide_store::sut::register(&mut registry);
    tide_graph::sut::register(&mut registry);
    registry
}

fn stream(n: u64) -> GraphStream {
    let mut s: GraphStream = (0..n)
        .map(|i| {
            StreamEntry::graph(GraphEvent::AddVertex {
                id: VertexId(i),
                state: State::empty(),
            })
        })
        .collect();
    s.push(StreamEntry::marker("stream-end"));
    s
}

/// The tentpole acceptance shape: kill a worker of each registry platform
/// mid-stream under a watchdog. The run must terminate well within the
/// deadline with a typed outcome and both fault and recovery markers in
/// the merged log.
#[test]
fn killing_a_worker_mid_stream_never_hangs_either_platform() {
    for (name, options) in [
        (
            "tide-store",
            SutOptions::new()
                .set("timestamper_cost_us", 0)
                .set("shard_cost_us", 0)
                .set("supervised", 1),
        ),
        (
            "tide-graph",
            SutOptions::new().set("workers", 2).set("supervised", 1),
        ),
    ] {
        let chaos =
            ChaosPlan::new(FaultSchedule::parse("crash@200,worker=0,restart=300", 5).unwrap());
        let journal = chaos.journal.clone();
        let plan = RunPlan::new(stream(1_000), 400_000.0)
            .at_level(EvaluationLevel::Level1)
            .with_chaos(chaos)
            .with_watchdog(
                WatchdogConfig::stall_after(Duration::from_secs(20))
                    .with_deadline(Duration::from_secs(60)),
            );

        let started = Instant::now();
        let outcome = run(plan, Target::Sut(&registry(), name, &options))
            .unwrap_or_else(|e| panic!("{name}: chaos run failed: {e}"));
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "{name}: run exceeded the watchdog deadline"
        );
        assert_eq!(outcome.status, RunStatus::Completed, "{name}");

        let log = &outcome.log;
        assert!(
            log.records()
                .iter()
                .any(|r| r.source == CHAOS_SOURCE && r.metric == "fault"),
            "{name}: no fault marker in merged log"
        );
        assert!(
            log.records()
                .iter()
                .any(|r| r.source == CHAOS_SOURCE && r.metric == "recovery"),
            "{name}: no recovery marker in merged log"
        );
        assert_eq!(
            journal.signature(),
            vec![
                (200, "crash(worker=0, restart=+300) ok".to_owned()),
                (500, "restart(worker=0) ok".to_owned()),
            ],
            "{name}"
        );
        assert_eq!(outcome.sut_report().get("crashes"), Some(1.0), "{name}");
        assert_eq!(outcome.sut_report().get("restarts"), Some(1.0), "{name}");
        assert!(log.marker("stream-end").is_some(), "{name}");
    }
}

/// The determinism contract: the same `(schedule, seed)` against the same
/// stream fires the same faults at the same stream positions, run after
/// run — wall-clock jitter must not leak into the fault sequence. (The
/// partial-batch fault is exercised elsewhere: its *recovery* entry
/// reports how many entries the truncated batch actually dropped, which
/// depends on the replayer's catch-up coalescing and is therefore
/// batch-shape- rather than stream-position-deterministic.)
#[test]
fn identical_schedule_and_seed_yield_identical_fault_sequences() {
    let spec = "crash@150,worker=1,restart=100; disconnect@400,lose=50; stall@700,ms=5";
    let run_once = || {
        let chaos = ChaosPlan::new(FaultSchedule::parse(spec, 42).unwrap());
        let journal = chaos.journal.clone();
        let options = SutOptions::new()
            .set("timestamper_cost_us", 0)
            .set("shard_cost_us", 0)
            .set("supervised", 1);
        let plan = RunPlan::new(stream(800), 400_000.0).with_chaos(chaos);
        run(plan, Target::Sut(&registry(), "tide-store", &options)).unwrap();
        journal.signature()
    };
    let first = run_once();
    assert!(!first.is_empty());
    assert_eq!(first, run_once());
    assert_eq!(first, run_once());
}

/// A crash that is never repaired: the platform must degrade (events
/// lost to the dead worker) without wedging the run or the shutdown.
#[test]
fn unrepaired_crash_degrades_without_hanging() {
    let chaos = ChaosPlan::new(FaultSchedule::parse("crash@100,worker=0", 3).unwrap());
    let options = SutOptions::new()
        .set("timestamper_cost_us", 0)
        .set("shard_cost_us", 0)
        .set("supervised", 1);
    let plan = RunPlan::new(stream(500), 400_000.0)
        .with_chaos(chaos)
        .with_watchdog(WatchdogConfig::default().with_deadline(Duration::from_secs(60)));
    let started = Instant::now();
    let outcome = run(plan, Target::Sut(&registry(), "tide-store", &options)).unwrap();
    assert!(started.elapsed() < Duration::from_secs(60));
    assert_eq!(outcome.sut_report().get("crashes"), Some(1.0));
    assert_eq!(outcome.sut_report().get("restarts"), Some(0.0));
    let lost = outcome.sut_report().get("events_lost").unwrap_or(0.0);
    assert!(lost > 0.0, "dead shard should have lost events, got {lost}");
}

/// Wall-clock watchdog check for the release timing job: a scripted
/// pause far longer than the stall timeout must be cut short at roughly
/// the configured bound — not instantly, not at the full pause length.
#[test]
#[ignore = "wall-clock timing; run with --release -- --ignored"]
fn watchdog_stall_detection_holds_at_wall_clock_scale() {
    let mut s: GraphStream = (0..500)
        .map(|i| {
            StreamEntry::graph(GraphEvent::AddVertex {
                id: VertexId(i),
                state: State::empty(),
            })
        })
        .collect();
    s.push(StreamEntry::pause(Duration::from_secs(120)));
    s.push(StreamEntry::marker("unreachable"));

    let mut plan = RunPlan::new(s, 200_000.0)
        .with_watchdog(WatchdogConfig::stall_after(Duration::from_secs(2)));
    plan.sysmon = None;
    let mut sink = gt_replayer::CollectSink::new();
    let started = Instant::now();
    let outcome = run(plan, Target::Sink(&mut sink)).unwrap();
    let elapsed = started.elapsed();
    assert!(outcome.replay().aborted);
    assert!(outcome.status.is_aborted());
    assert!(
        elapsed >= Duration::from_secs(2),
        "stall fired early: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_secs(30),
        "stall detection took too long: {elapsed:?}"
    );
    assert_eq!(outcome.replay().graph_events, 500);
    assert!(outcome.log.marker("unreachable").is_none());
}

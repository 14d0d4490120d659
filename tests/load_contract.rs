//! Contract tests of the multi-client load layer (`gt-load`):
//!
//! * **Coordinated-omission guard** (property): an open-loop client's
//!   emitted arrival schedule is bit-identical whether the sink acks
//!   promptly or stalls — the schedule is a function of the plan, never
//!   of the SUT.
//! * **Marker total order**: a stream fanned across many connections
//!   still delivers every marker exactly once, in stream order, after
//!   all events that preceded it — verified end to end on *both*
//!   built-in platforms through the harness load runner.
//! * **Open-loop stall visibility** (the acceptance demo): under an
//!   injected 200 ms sink stall the open-loop client reports its offered
//!   schedule unchanged and a p999 sojourn spike; the closed-loop client
//!   absorbs the stall into a collapsed offered rate instead.

use std::io;
use std::sync::Arc;
use std::time::Duration;

use graphtides::analysis::TailQuantiles;
use graphtides::harness::{run, EvaluationLevel, LoadPlan, LoopModel, RunPlan, SutOptions, Target};
use graphtides::load::{run_client, ClientConfig};
use graphtides::metrics::{Clock, WallClock};
use graphtides::prelude::*;
use proptest::prelude::*;

/// A sink that acks instantly, optionally stalling once for `stall` at
/// graph event number `stall_at` (counted across send/send_batch).
struct MaybeStallingSink {
    seen: u64,
    stall_at: Option<u64>,
    stall: Duration,
}

impl MaybeStallingSink {
    fn prompt() -> Self {
        MaybeStallingSink {
            seen: 0,
            stall_at: None,
            stall: Duration::ZERO,
        }
    }

    fn stalling(stall_at: u64, stall: Duration) -> Self {
        MaybeStallingSink {
            seen: 0,
            stall_at: Some(stall_at),
            stall,
        }
    }

    fn tick(&mut self) {
        if Some(self.seen) == self.stall_at {
            std::thread::sleep(self.stall);
        }
        self.seen += 1;
    }
}

impl EventSink for MaybeStallingSink {
    fn send(&mut self, entry: &StreamEntry) -> io::Result<()> {
        if matches!(entry, StreamEntry::Graph(_)) {
            self.tick();
        }
        Ok(())
    }

    fn send_batch(&mut self, batch: &[SharedEntry]) -> io::Result<()> {
        for entry in batch {
            self.send(entry)?;
        }
        Ok(())
    }
}

fn vertices(n: u64) -> Vec<StreamEntry> {
    (0..n)
        .map(|i| {
            StreamEntry::graph(GraphEvent::AddVertex {
                id: VertexId(i),
                state: State::empty(),
            })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The coordinated-omission guard: a stalling SUT must not be able to
    // edit the offered arrival schedule out of the record.
    #[test]
    fn open_loop_schedule_is_sink_independent(
        rate in 2_000.0f64..20_000.0,
        events in 20u64..150,
        seed in 0u64..1_000,
        stall_at in 0u64..20,
    ) {
        let entries = vertices(events);
        let config = ClientConfig::new("main", LoopModel::Open, rate, seed);
        let clock: Arc<dyn Clock> = Arc::new(WallClock::start());

        let prompt = run_client(
            &entries,
            &config,
            Box::new(MaybeStallingSink::prompt()),
            Arc::clone(&clock),
        ).unwrap();
        let stalled = run_client(
            &entries,
            &config,
            Box::new(MaybeStallingSink::stalling(stall_at.min(events - 1), Duration::from_millis(30))),
            Arc::clone(&clock),
        ).unwrap();

        // Bit-identical emitted schedules, equal to the pure plan schedule.
        prop_assert_eq!(&prompt.schedule_micros, &stalled.schedule_micros);
        let pure = config.schedule(entries.len());
        prop_assert_eq!(prompt.schedule_micros.as_slice(), pure.offsets_micros());
        prop_assert_eq!(prompt.offered, events);
        prop_assert_eq!(stalled.offered, events);
    }
}

/// A stream with two interleaved markers, sized so every one of many
/// substreams carries events on both sides of each marker.
fn marked_stream(n: u64) -> GraphStream {
    let mut stream = GraphStream::new();
    for i in 0..n {
        stream.push(StreamEntry::graph(GraphEvent::AddVertex {
            id: VertexId(i),
            state: State::empty(),
        }));
        if i == n / 3 {
            stream.push(StreamEntry::marker("phase-one"));
        }
    }
    stream.push(StreamEntry::marker("stream-end"));
    stream
}

fn marker_order_holds_on(sut: &str, options: SutOptions) {
    let mut plan = RunPlan::new(marked_stream(900), 0.0)
        .at_level(EvaluationLevel::Level1)
        .with_load(LoadPlan::single(9, 300_000.0, LoopModel::Open, 42));
    plan.sysmon = None;
    let outcome = run(
        plan,
        Target::Sut(&graphtides::builtin_registry(), sut, &options),
    )
    .unwrap();

    // Every event arrived exactly once across the 9 connections...
    assert_eq!(outcome.sut_report().get("events"), Some(900.0), "{sut}");
    // ...and both markers crossed the multi-connection boundary exactly
    // once, in stream order, with no ordering violation on any reader.
    assert_eq!(outcome.load().listener.marker_violations, 0, "{sut}");
    let names: Vec<&str> = outcome
        .load()
        .listener
        .markers
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    assert_eq!(names, ["phase-one", "stream-end"], "{sut}");
    assert!(outcome.log.marker("phase-one").is_some(), "{sut}");
    assert!(outcome.log.marker("stream-end").is_some(), "{sut}");
}

#[test]
fn markers_stay_totally_ordered_across_connections_on_tide_store() {
    marker_order_holds_on(
        "tide-store",
        SutOptions::new()
            .set("timestamper_cost_us", 0)
            .set("shard_cost_us", 0)
            .set("batch_size", 16),
    );
}

#[test]
fn markers_stay_totally_ordered_across_connections_on_tide_graph() {
    marker_order_holds_on("tide-graph", SutOptions::new().set("workers", 3));
}

// The sharded variants honour the same contract at shards=4: the marker
// barrier broadcasts behind every connection's flushed events, so the
// listener's total order survives both hash-partitioned fabrics.
#[test]
fn markers_stay_totally_ordered_across_connections_on_sharded_store() {
    marker_order_holds_on(
        "tide-store-sharded",
        SutOptions::new()
            .set("shards", 4)
            .set("timestamper_cost_us", 0)
            .set("shard_cost_us", 0)
            .set("batch_size", 16),
    );
}

#[test]
fn markers_stay_totally_ordered_across_connections_on_sharded_graph() {
    marker_order_holds_on("tide-graph-sharded", SutOptions::new().set("shards", 4));
}

// The acceptance demo, client-level: a 200 ms stall is *charged to the
// SUT* by the open-loop client (offered unchanged, p999 sojourn spike)
// and *erased* by the closed-loop client (offered collapses, sojourn
// stays flat) — the two halves of the coordinated-omission story.
#[test]
fn open_loop_charges_a_200ms_stall_where_closed_loop_absorbs_it() {
    const EVENTS: u64 = 400;
    const RATE: f64 = 2_000.0;
    let entries = vertices(EVENTS);
    let clock: Arc<dyn Clock> = Arc::new(WallClock::start());
    let stall = Duration::from_millis(200);

    let open = run_client(
        &entries,
        &ClientConfig::new("main", LoopModel::Open, RATE, 7),
        Box::new(MaybeStallingSink::stalling(EVENTS / 2, stall)),
        Arc::clone(&clock),
    )
    .unwrap();
    let closed = run_client(
        &entries,
        &ClientConfig::new("main", LoopModel::Closed, RATE, 7),
        Box::new(MaybeStallingSink::stalling(EVENTS / 2, stall)),
        Arc::clone(&clock),
    )
    .unwrap();

    // Open loop: the offered schedule is untouched by the stall...
    assert_eq!(open.offered, EVENTS);
    assert_eq!(
        open.schedule_micros.as_slice(),
        ClientConfig::new("main", LoopModel::Open, RATE, 7)
            .schedule(entries.len())
            .offsets_micros()
    );
    // ...and the stall surfaces as a tail-latency spike: every event that
    // was scheduled to arrive during the 200 ms stall is charged its full
    // queueing delay, so roughly half the samples sit above 80 ms.
    let open_sojourns: Vec<f64> = open.sojourn.iter().map(|&(_, s)| s as f64).collect();
    let open_tail = TailQuantiles::of(&open_sojourns).unwrap();
    assert!(
        open_tail.max >= 150_000.0,
        "open-loop max sojourn {} us must expose the 200 ms stall",
        open_tail.max
    );
    assert!(
        open_tail.p95 >= 80_000.0,
        "open-loop p95 {} us must charge the backlog its queueing delay",
        open_tail.p95
    );
    let open_hit = open_sojourns.iter().filter(|&&s| s >= 50_000.0).count();
    assert!(
        open_hit >= 50,
        "open loop charged only {open_hit} events for the stall"
    );

    // Closed loop: each send is timed after the previous ack, so only the
    // one stalled write measures the stall — every event queued behind it
    // is silently re-scheduled and its wait erased from the latency
    // record. The stall survives only as a collapsed offered rate; this
    // is the coordinated-omission bias the open loop exists to avoid.
    let closed_sojourns: Vec<f64> = closed.sojourn.iter().map(|&(_, s)| s as f64).collect();
    let closed_tail = TailQuantiles::of(&closed_sojourns).unwrap();
    let closed_hit = closed_sojourns.iter().filter(|&&s| s >= 50_000.0).count();
    assert!(
        closed_hit <= 3,
        "closed loop should hide the stall from all but the stalled write, saw {closed_hit}"
    );
    assert!(
        closed_tail.p95 < 50_000.0,
        "closed-loop p95 {} us should not see the stall",
        closed_tail.p95
    );
    assert!(
        closed.offered_rate() < open.offered_rate(),
        "closed-loop offered rate {} must collapse below open-loop {}",
        closed.offered_rate(),
        open.offered_rate()
    );

    // Measured numbers quoted in EXPERIMENTS.md; run with `--nocapture`.
    println!(
        "# 200 ms stall at event {}/{EVENTS}, target {RATE:.0} e/s",
        EVENTS / 2
    );
    println!("loop     offered[e/s]   p50[us]   p95[us]  p999[us]   max[us]  >=50ms",);
    for (name, report, tail, hit) in [
        ("open", &open, &open_tail, open_hit),
        ("closed", &closed, &closed_tail, closed_hit),
    ] {
        println!(
            "{name:<8} {:>12.0} {:>9.0} {:>9.0} {:>9.0} {:>9.0} {:>7}",
            report.offered_rate(),
            tail.p50,
            tail.p95,
            tail.p999,
            tail.max,
            hit
        );
    }
}

//! **Figure 3d** — stacked time-series of a Chronograph-class experiment
//! run with a social network workload.
//!
//! Paper setup (Table 4): converted LDBC SNB workload (persons and
//! connections only, 190,518 events), online influence rank, four
//! workers; base streaming rate 2,000 events/s, a 20 s pause after the
//! 100,000th event, doubled rate between events 100,001 and 150,000.
//!
//! Plotted series (top to bottom in the paper): replay rate, internal
//! ops/s per worker, CPU utilization, worker queue lengths, and the
//! relative rank error of the online computation, estimated
//! retrospectively against batch PageRank on the final graph.
//!
//! Scaled-down by default to 1/10 of the paper's stream (≈19k events,
//! pause after 10k, doubled rate for the next 5k) so the run finishes in
//! ~25 s; set `GT_BENCH_SCALE=10` for the paper-sized stream.
//!
//! The shape is a gate: the run exits non-zero, naming the predicate,
//! when the engine does not drain, when its drain tail is shorter than
//! [`MIN_DRAIN_SHARE`] of the stream's duration, or when the summed
//! worker queues peak before the stream ends ([`shape_failures`]). The
//! thresholds hold at the default scale; at a tenth of it the engine
//! keeps up and the tail all but vanishes.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use gt_algorithms::pagerank::{pagerank, PageRankConfig};
use gt_analysis::{phase_summaries, window_correlation};
use gt_bench::{header, scale};
use gt_core::prelude::*;
use gt_generator::StreamComposer;
use gt_graph::{CsrSnapshot, EvolvingGraph};
use gt_harness::run::replay_records;
use gt_harness::{SutOptions, SutRegistry};
use gt_metrics::{Clock, MetricRecord, MetricsHub, MetricsLogger, ResultLog, WallClock};
use gt_replayer::{ReplaySession, ReplaySessionConfig, ReplayerConfig};
use gt_sysmon::{SamplerConfig, SysmonSampler};
use gt_workloads::SnbWorkload;
use tide_graph::{TideGraph, TideGraphSut};

/// How often the stack of series (and the Level-0 monitor) is sampled.
const SAMPLING: Duration = Duration::from_millis(250);

/// The shortest drain tail the gate accepts, as a share of the stream's
/// duration. Three default-scale runs on a 2-core host read tails of
/// 1.13–1.38 streams (2.37–2.73 before shares were combined per target),
/// a margin of more than 2×; draining everything per round read 0.01.
const MIN_DRAIN_SHARE: f64 = 0.5;

/// One row of the stacked plot: the replay rate and the mean worker's
/// ops rate and CPU over the measured interval that ends at `t_micros`,
/// plus the worker queues and the rank board at that instant.
struct Samples {
    t_micros: u64,
    replay_rate: f64,
    ops_per_worker: f64,
    cpu_per_worker: f64,
    queues: Vec<i64>,
    board: BTreeMap<VertexId, f64>,
}

/// The run clock's time and the engine's cumulative counters: replayer
/// ingress (the replay session publishes into the engine's hub), and
/// worker ops and busy microseconds summed over workers.
fn totals(hub: &MetricsHub, clock: &dyn Clock, workers: usize) -> (u64, [u64; 3]) {
    let sum = |counter: &str| {
        let worker = |w| hub.counter(&format!("worker-{w}.{counter}")).get();
        (0..workers).map(worker).sum()
    };
    let ingress = hub.counter("ingress_events").get();
    (
        clock.now_micros(),
        [ingress, sum("ops"), sum("busy_micros")],
    )
}

fn main() -> ExitCode {
    header("Figure 3d: Chronograph-class engine under a varying-rate social stream");
    let workers = 4usize;
    let fraction = (scale() / 10.0).min(1.0);
    let workload = SnbWorkload::scaled(fraction, 2018);
    let total = workload.total_events();
    let pause_after = total / 2; // paper: pause after 100k of 190,518
    let doubled_until = total * 3 / 4; // doubled rate for the next quarter

    println!(
        "# Table 4 setup (scaled {fraction:.2}x): {} events, pause after {} events,",
        total, pause_after
    );
    println!(
        "# doubled rate until event {}, {} workers, online influence rank",
        doubled_until, workers
    );

    // Compose the varying-rate stream: base rate, pause, 2x phase, 1x tail.
    let base = workload.generate();
    let entries = base.entries().to_vec();
    let (head, rest) = entries.split_at(pause_after as usize);
    let (burst, tail) = rest.split_at((doubled_until - pause_after) as usize);
    let stream = StreamComposer::new()
        .segment(GraphStream::from_entries(head.to_vec()))
        .marker("pause-start")
        .pause(Duration::from_secs_f64(2.0 * scale().min(10.0))) // paper: 20 s
        .speed(2.0)
        .segment(GraphStream::from_entries(burst.to_vec()))
        .speed(1.0)
        .segment(GraphStream::from_entries(tail.to_vec()))
        .marker("stream-end")
        .build();

    // The engine is started through the SUT registry — the same boundary
    // the harness uses — and its typed handle recovered via the `as_any`
    // escape hatch for the board-sampling thread below.
    let mut registry = SutRegistry::new();
    tide_graph::sut::register(&mut registry);
    let options = SutOptions::new()
        .set("workers", workers)
        // A coarse push threshold keeps share traffic at a realistic
        // handful per mutation; the reseed fraction still forces
        // continuous recomputation (DESIGN.md §5, "Push threshold ε").
        .set("epsilon", 0.05)
        .set("reseed", 0.3)
        // Per-message costs chosen so 4 workers saturate at the doubled
        // rate (~4k events/s + share fan-out) but keep up at the base
        // rate — the regime of the paper's experiment.
        .set("event_cost_us", 150)
        .set("share_cost_us", 15)
        .set("board_refresh_every", 128);
    let mut sut = registry
        .start(tide_graph::sut::SUT_NAME, &options)
        .expect("start engine");
    let hub = sut.hub().expect("engine exposes native metrics").clone();
    let engine = Arc::clone(
        sut.as_any()
            .downcast_mut::<TideGraphSut>()
            .expect("registered as TideGraphSut")
            .engine(),
    );

    // Shared run clock: sample times, marker timestamps, the ingress-rate
    // series, and the Level-0 resource series all live on the same time
    // base.
    let clock: Arc<dyn Clock> = Arc::new(WallClock::start());
    let mut monitor =
        SysmonSampler::new(SamplerConfig::default().every(SAMPLING), Arc::clone(&clock))
            .with_hub(&hub);
    // The replay, at the Table 4 base rate.
    let session = ReplaySession::new(ReplaySessionConfig {
        replayer: ReplayerConfig {
            target_rate: 2_000.0,
            ..Default::default()
        },
        ..Default::default()
    })
    .with_clock(Arc::clone(&clock))
    .with_hub(hub.clone());

    // Background sampler: every 250 ms capture the full stack of series,
    // and sample the Level-0 monitor beside it.
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let hub = hub.clone();
        let engine = Arc::clone(&engine);
        let clock = Arc::clone(&clock);
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("fig3d-sampler".into())
            .spawn(move || {
                let mut stack: Vec<Samples> = Vec::new();
                let mut resources = monitor.sample();
                let (mut then, mut last) = totals(&hub, &*clock, workers);
                loop {
                    std::thread::sleep(SAMPLING);
                    let (now, curr) = totals(&hub, &*clock, workers);
                    // Counter deltas over the measured gap, per second (1e6
                    // per microsecond) or in percent of it (100).
                    let gap = now.saturating_sub(then).max(1) as f64;
                    let rate = |i: usize, scale: f64| (curr[i] - last[i]) as f64 * scale / gap;
                    let queue = |w| hub.gauge(&format!("worker-{w}.queue")).get();
                    stack.push(Samples {
                        t_micros: now,
                        replay_rate: rate(0, 1e6),
                        ops_per_worker: rate(1, 1e6) / workers as f64,
                        cpu_per_worker: rate(2, 100.0) / workers as f64,
                        queues: (0..workers).map(queue).collect(),
                        board: engine.board_ranks(),
                    });
                    resources.extend(monitor.sample());
                    (then, last) = (now, curr);
                    if stop.load(Ordering::Relaxed) {
                        return (stack, resources);
                    }
                }
            })
            .expect("spawn fig3d-sampler thread")
    };

    let mut connector = sut.connector().expect("engine connector");
    let report = session
        .run(&stream, &mut connector)
        .expect("replay succeeds")
        .replay;
    let stream_end_micros = report
        .markers
        .iter()
        .find(|(name, _)| name == "stream-end")
        .map(|&(_, t)| t)
        .expect("the composed stream ends with a stream-end marker");
    let stream_end_t = stream_end_micros as f64 / 1e6;

    // Keep sampling until the backlog drains (the long tail of Fig. 3d).
    let drained = engine.quiesce(Duration::from_secs(600));
    let run_end_micros = clock.now_micros();
    stop.store(true, Ordering::Relaxed);
    let (samples, resources) = sampler.join().expect("sampler");
    // All engine handles must be gone before the typed shutdown: the
    // connector's, the sampler's (already joined), and the local clone.
    drop(connector);
    drop(engine);
    let stats = sut
        .into_any()
        .downcast::<TideGraphSut>()
        .expect("registered as TideGraphSut")
        .shutdown_engine();

    // Retrospective reference: batch PageRank on the final graph.
    let final_graph = EvolvingGraph::from_stream(&base).expect("stream applies");
    let csr = CsrSnapshot::from_graph(&final_graph);
    let exact = pagerank(&csr, &PageRankConfig::default());
    let exact_map: BTreeMap<VertexId, f64> = csr
        .indices()
        .map(|i| (csr.id_of(i), exact.ranks[i as usize]))
        .collect();
    // "relative errors of the online computations of certain vertices":
    // track the paper's "most influential users" — the exact top-10.
    let mut order: Vec<(&VertexId, &f64)> = exact_map.iter().collect();
    order.sort_by(|a, b| b.1.partial_cmp(a.1).expect("finite"));
    let watched: Vec<VertexId> = order.iter().take(10).map(|(id, _)| **id).collect();

    println!(
        "\n{:>7} {:>11} {:>10} {:>10} {:>10} {:>10} {:>11} {:>12}",
        "t[s]",
        "replay[e/s]",
        "ops/w[1/s]",
        "cpu/w[%]",
        "queue-max",
        "queue-sum",
        "rank-err[%]",
        "phase"
    );
    for s in &samples {
        let queue_max = s.queues.iter().copied().max().unwrap_or(0);
        let queue_sum: i64 = s.queues.iter().sum();
        let err = rank_error(&s.board, &exact_map, &watched);
        let phase = if s.t_micros < stream_end_micros {
            "stream"
        } else {
            "drain"
        };
        println!(
            "{:>7.2} {:>11.0} {:>10.0} {:>10.1} {:>10} {:>10} {:>11.2} {:>12}",
            s.t_micros as f64 / 1e6,
            s.replay_rate,
            s.ops_per_worker,
            s.cpu_per_worker,
            queue_max,
            queue_sum,
            err * 100.0,
            phase
        );
    }

    let final_ranks = TideGraph::normalized(&stats.ranks);
    let final_err = rank_error(&final_ranks, &exact_map, &watched);
    println!(
        "\nstream ended at t = {stream_end_t:.2}s; drained = {drained}; \
         final rank error of watched vertices: {:.2}%",
        final_err * 100.0
    );
    println!(
        "Expected shape (paper): worker queues build through the run and saturate\n\
         around stream end; the system keeps processing (ops > 0, workers busy)\n\
         long after the stream has ended, and the rank error decays only as the\n\
         backlog drains."
    );

    print_resource_phases(&report, resources, run_end_micros);

    let drain_s = (run_end_micros - stream_end_micros) as f64 / 1e6;
    let peak = samples
        .iter()
        .max_by_key(|s| s.queues.iter().sum::<i64>())
        .map(|s| s.t_micros as f64 / 1e6);
    println!("\ndrain tail {drain_s:.2}s after a {stream_end_t:.2}s stream");
    let failures = shape_failures(drained, stream_end_t, drain_s, peak);
    if failures.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!("fig3d: shape check failed: {}", failures.join("; "));
    ExitCode::FAILURE
}

/// The paper's fig 3d claim — the queues build while the stream runs and
/// the engine keeps computing long after it ends — as predicates over one
/// run: whether the engine drained, the stream's and the drain tail's
/// length, and when the summed queues peaked (seconds on the run clock;
/// `None` without samples). Returns the predicates that failed.
fn shape_failures(drained: bool, stream_s: f64, drain_s: f64, peak_s: Option<f64>) -> Vec<String> {
    let mut failures = Vec::new();
    if !drained {
        failures.push("the engine did not drain".to_owned());
    }
    if drain_s < MIN_DRAIN_SHARE * stream_s {
        failures.push(format!(
            "drain tail {drain_s:.2}s is shorter than {MIN_DRAIN_SHARE} of the {stream_s:.2}s stream"
        ));
    }
    match peak_s {
        Some(peak) if peak >= stream_s => {}
        Some(peak) => failures.push(format!(
            "queue-sum peaks at {peak:.2}s, before the stream ends at {stream_s:.2}s"
        )),
        None => failures.push("no queue samples".to_owned()),
    }
    failures
}

/// The Level-0 view of the same run: merge the monitor's resource series
/// with the replay markers into one result log, cut it along the stream
/// phases, and correlate CPU against the ingress rate.
fn print_resource_phases(
    report: &gt_replayer::ReplayReport,
    mut records: Vec<MetricRecord>,
    run_end_micros: u64,
) {
    if let Some(error) = records.iter().find(|r| r.metric == "error") {
        println!(
            "\nLevel-0 monitor unavailable on this host: {}",
            error.value
        );
        return;
    }
    records.push(MetricRecord::text(0, "replayer", "marker", "run-start"));
    let run_end = MetricRecord::text(run_end_micros, "replayer", "marker", "run-end");
    records.push(run_end);
    records.extend(replay_records(report));
    let log = ResultLog::from_records(records);

    println!("\nLevel-0 resource phases (black-box /proc monitor):");
    println!(
        "{:>12} {:>9} {:>11} {:>11} {:>12}",
        "phase", "len[s]", "cpu-mean[%]", "cpu-max[%]", "rss-max[MiB]"
    );
    let phases = [
        ("load", "run-start", "pause-start"),
        ("catch-up", "pause-start", "stream-end"),
        ("drain", "stream-end", "run-end"),
    ];
    let cpu = phase_summaries(&log, &phases, "sysmon", "cpu_percent");
    let rss = phase_summaries(&log, &phases, "sysmon", "rss_bytes");
    // Both calls skip exactly the phases whose markers are missing, so
    // the two lists stay aligned.
    for (c, r) in cpu.iter().zip(&rss) {
        println!(
            "{:>12} {:>9.2} {:>11.1} {:>11.1} {:>12.1}",
            c.phase,
            c.duration_secs(),
            c.summary.mean(),
            c.summary.max().unwrap_or(0.0),
            r.summary.max().map_or(f64::NAN, |b| b / (1024.0 * 1024.0))
        );
    }
    match window_correlation(
        &log,
        "run-start",
        "stream-end",
        ("replayer", "ingress_rate"),
        ("sysmon", "cpu_percent"),
        16,
    ) {
        Some(r) => println!("ingress rate vs process CPU over the stream: r = {r:.2}"),
        None => println!("ingress rate vs process CPU: series too short to correlate"),
    }
}

/// Median relative error of the watched vertices' normalized ranks.
fn rank_error(
    online: &BTreeMap<VertexId, f64>,
    exact: &BTreeMap<VertexId, f64>,
    watched: &[VertexId],
) -> f64 {
    let mut errors: Vec<f64> = watched
        .iter()
        .map(|v| {
            let e = exact.get(v).copied().unwrap_or(0.0);
            let o = online.get(v).copied().unwrap_or(0.0);
            if e == 0.0 {
                o.abs()
            } else {
                (o - e).abs() / e
            }
        })
        .collect();
    errors.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    errors[errors.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_long_drain_after_a_late_peak_passes() {
        assert!(shape_failures(true, 10.3, 11.2, Some(10.5)).is_empty());
    }

    #[test]
    fn each_failed_predicate_is_named() {
        let failed = shape_failures(false, 10.0, 4.9, Some(9.9));
        assert_eq!(failed.len(), 3, "{failed:?}");
        assert!(failed[0].contains("did not drain"));
        assert!(failed[1].contains("drain tail 4.90s"));
        assert!(failed[2].contains("peaks at 9.90s"));
        assert_eq!(shape_failures(true, 10.0, 5.0, None), ["no queue samples"]);
    }
}

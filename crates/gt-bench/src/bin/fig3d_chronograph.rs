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
//! ~15 s; set `GT_BENCH_SCALE=10` for the paper-sized stream.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gt_algorithms::pagerank::{pagerank, PageRankConfig};
use gt_analysis::{phase_summaries, window_correlation};
use gt_bench::{header, scale};
use gt_core::prelude::*;
use gt_generator::StreamComposer;
use gt_graph::{CsrSnapshot, EvolvingGraph};
use gt_harness::{SutOptions, SutRegistry};
use gt_metrics::{Clock, MetricRecord, ResultLog, WallClock};
use gt_replayer::{Replayer, ReplayerConfig};
use gt_sysmon::SamplerConfig;
use gt_workloads::SnbWorkload;
use tide_graph::{TideGraph, TideGraphSut};

struct Samples {
    t: f64,
    replay_rate: f64,
    ops_per_worker: Vec<f64>,
    cpu_per_worker: Vec<f64>,
    queue_per_worker: Vec<i64>,
    board: BTreeMap<VertexId, f64>,
}

fn main() {
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

    // Shared run clock: marker timestamps, the ingress-rate series, and
    // the Level-0 resource series all live on the same time base.
    let clock: Arc<dyn Clock> = Arc::new(WallClock::start());
    let sysmon = gt_sysmon::spawn(
        SamplerConfig::default().every(Duration::from_millis(100)),
        Arc::clone(&clock),
        Some(&hub),
    );

    // Background sampler: every 250 ms capture the full stack of series.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let sampler = {
        let hub = hub.clone();
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let started = Instant::now();
            let mut out: Vec<Samples> = Vec::new();
            let mut last_ingress = 0u64;
            let mut last_ops = vec![0u64; workers];
            let mut last_busy = vec![0u64; workers];
            loop {
                std::thread::sleep(Duration::from_millis(250));
                let t = started.elapsed().as_secs_f64();
                let ingress = hub.counter("replayer.ingress").get();
                let mut ops = Vec::with_capacity(workers);
                let mut cpu = Vec::with_capacity(workers);
                let mut queue = Vec::with_capacity(workers);
                for w in 0..workers {
                    let o = hub.counter(&format!("worker-{w}.ops")).get();
                    ops.push((o - last_ops[w]) as f64 * 4.0);
                    last_ops[w] = o;
                    let b = hub.counter(&format!("worker-{w}.busy_micros")).get();
                    cpu.push((b - last_busy[w]) as f64 / 250_000.0 * 100.0);
                    last_busy[w] = b;
                    queue.push(hub.gauge(&format!("worker-{w}.queue")).get());
                }
                out.push(Samples {
                    t,
                    replay_rate: (ingress - last_ingress) as f64 * 4.0,
                    ops_per_worker: ops,
                    cpu_per_worker: cpu,
                    queue_per_worker: queue,
                    board: engine.board_ranks(),
                });
                last_ingress = ingress;
                if stop.load(std::sync::atomic::Ordering::Relaxed) {
                    return out;
                }
            }
        })
    };

    // Replay at the Table 4 base rate.
    let replayer = Replayer::new(ReplayerConfig {
        target_rate: 2_000.0,
        ..Default::default()
    })
    .with_clock(Arc::clone(&clock))
    .with_ingress_counter(hub.counter("replayer.ingress"));
    let mut connector = sut.connector().expect("engine connector");
    let report = replayer
        .replay_stream(&stream, &mut connector)
        .expect("replay succeeds");
    let stream_end_t = report.duration_micros as f64 / 1e6;

    // Keep sampling until the backlog drains (the long tail of Fig. 3d).
    let drained = engine.quiesce(Duration::from_secs(600));
    let run_end_micros = clock.now_micros();
    let resources = sysmon.stop();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let samples = sampler.join().expect("sampler");
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
        let ops_mean = s.ops_per_worker.iter().sum::<f64>() / workers as f64;
        let cpu_mean = s.cpu_per_worker.iter().sum::<f64>() / workers as f64;
        let queue_max = s.queue_per_worker.iter().copied().max().unwrap_or(0);
        let queue_sum: i64 = s.queue_per_worker.iter().sum();
        let err = rank_error(&s.board, &exact_map, &watched);
        let phase = if s.t < stream_end_t {
            "stream"
        } else {
            "drain"
        };
        println!(
            "{:>7.2} {:>11.0} {:>10.0} {:>10.1} {:>10} {:>10} {:>11.2} {:>12}",
            s.t,
            s.replay_rate,
            ops_mean,
            cpu_mean,
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
}

/// The Level-0 view of the same run: merge the monitor's resource series
/// with the replay markers into one result log, cut it along the stream
/// phases, and correlate CPU against the ingress rate.
fn print_resource_phases(
    report: &gt_replayer::ReplayReport,
    resources: gt_sysmon::SysmonOutcome,
    run_end_micros: u64,
) {
    if let Some(err) = &resources.error {
        println!("\nLevel-0 monitor unavailable on this host: {err}");
        return;
    }
    let mut records = resources.records;
    records.push(MetricRecord::text(0, "replayer", "marker", "run-start"));
    records.push(MetricRecord::text(
        run_end_micros,
        "replayer",
        "marker",
        "run-end",
    ));
    for (name, t) in &report.markers {
        records.push(MetricRecord::text(*t, "replayer", "marker", name.clone()));
    }
    for (t, rate) in &report.rate_series {
        records.push(MetricRecord::float(
            (*t * 1e6) as u64,
            "replayer",
            "ingress_rate",
            *rate,
        ));
    }
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

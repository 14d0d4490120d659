//! `gt-bench` — the persistent perf-trajectory runner.
//!
//! ```text
//! gt-bench trajectory [--smoke] [--check] [--out DIR]
//! ```
//!
//! Measures the §4.2 parse path (borrowed vs owned) and its writer, the
//! graph-event ingest path (the reference `EvolvingGraph` and the store's
//! `PartitionState`, each also under the paper's Table 3 mix with its
//! vertex removals; plus the rank engine's result-board publish and one
//! worker's drain, per share and per event) and
//! the load layer's client side (one open-loop
//! client at an unbounded rate into a counting sink, the stream
//! partitioner, the replayer's whole file → reader → emitter session
//! at an unbounded rate, the load front's routing pass from a file into
//! two drained queues, and the fold of a finished load run into its
//! result log) with a counting global allocator, then writes
//! `BENCH_parse.json`, `BENCH_ingest.json` and `BENCH_load.json` into
//! `--out` (default: the current directory — run from the repo root so
//! the files land next to the sources and get committed).
//!
//! * `--smoke` shrinks event counts and rounds for CI.
//! * `--check` compares against the committed files first and exits
//!   non-zero if any suite's median ns/event regressed by more than 15%
//!   or its allocations-per-event counter grew.

use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use gt_bench::trajectory::{self, measure, BenchRecord, CountingAlloc};
use gt_core::format::{entry_to_line, parse_line, parse_line_ref, write_line};
use gt_core::prelude::*;
use gt_graph::EvolvingGraph;
use gt_harness::sut::report_records;
use gt_harness::{load_records, LoadPlan, SutReport};
use gt_load::{
    run_client, ClientConfig, ClientReport, ListenerReport, LoadOutcome, LoopModel, Router,
    SeededPartitioner,
};
use gt_metrics::{Clock, MetricsHub, ResultLog, WallClock};
use gt_replayer::reader::MAX_CHUNK;
use gt_replayer::{EventSink, ReplaySession, ReplaySessionConfig, ReplayerConfig};
use gt_workloads::{SnbWorkload, Table3Workload};
use std::hint::black_box;
use tide_graph::board::{ResultBoard, Snapshot};
use tide_graph::rank::{RankParams, RankPartition};
use tide_graph::{Engine, EngineConfig, Partition};
use tide_store::PartitionState;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    smoke: bool,
    check: bool,
    out: PathBuf,
}

const USAGE: &str = "usage: gt-bench trajectory [--smoke] [--check] [--out DIR]";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("trajectory") => {}
        Some("--help") | Some("-h") | None => return Err(USAGE.into()),
        Some(other) => return Err(format!("unknown subcommand `{other}`\n{USAGE}")),
    }
    let mut smoke = false;
    let mut check = false;
    let mut out = PathBuf::from(".");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--check" => check = true,
            "--out" => out = PathBuf::from(args.next().ok_or("--out needs a directory")?),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(Args { smoke, check, out })
}

/// A deterministic mixed stream: the same LCG-scrambled shape the
/// differential tests replay, so parse and ingest measure realistic
/// entry diversity (vertices, hub-forming edges, updates, removals).
fn sample_events(n: u64) -> Vec<GraphEvent> {
    let vertices = (n / 8).max(16);
    let mut events: Vec<GraphEvent> = (0..vertices)
        .map(|i| GraphEvent::AddVertex {
            id: VertexId(i),
            state: State::new("name=v"),
        })
        .collect();
    let mut x = 0x9E37_79B9u64;
    while (events.len() as u64) < n {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let src = VertexId((x >> 17) % vertices);
        let dst = VertexId((x >> 41) % vertices);
        let event = match x % 10 {
            0..=5 => GraphEvent::AddEdge {
                id: EdgeId::new(src, dst),
                state: State::weight(((x >> 7) % 9 + 1) as f64),
            },
            6..=7 => GraphEvent::UpdateEdge {
                id: EdgeId::new(src, dst),
                state: State::weight(((x >> 9) % 9 + 1) as f64),
            },
            8 => GraphEvent::UpdateVertex {
                id: src,
                state: State::new("name=w"),
            },
            _ => GraphEvent::RemoveEdge {
                id: EdgeId::new(src, dst),
            },
        };
        events.push(event);
    }
    events
}

/// The sample stream as entries: the events, with every 64th a marker.
fn sample_entries(events: &[GraphEvent]) -> Vec<StreamEntry> {
    events
        .iter()
        .enumerate()
        .map(|(i, e)| {
            if i % 64 == 63 {
                StreamEntry::marker(format!("w-{i}"))
            } else {
                StreamEntry::graph(e.clone())
            }
        })
        .collect()
}

fn parse_suites(entries: &[StreamEntry], rounds: u32) -> Vec<BenchRecord> {
    let lines: Vec<String> = entries.iter().map(entry_to_line).collect();
    let n = lines.len() as u64;
    let mut line = String::with_capacity(128);
    vec![
        measure("parse/borrowed", n, rounds, || {
            let mut kept = 0usize;
            for line in &lines {
                if parse_line_ref(black_box(line)).unwrap().is_some() {
                    kept += 1;
                }
            }
            black_box(kept);
        }),
        measure("parse/owned", n, rounds, || {
            let mut kept = 0usize;
            for line in &lines {
                if parse_line(black_box(line)).unwrap().is_some() {
                    kept += 1;
                }
            }
            black_box(kept);
        }),
        // The same lines written back, each into one reused buffer, as
        // every sink and the stream writer do.
        measure("format/line", n, rounds, || {
            let mut bytes = 0usize;
            for entry in entries {
                line.clear();
                write_line(black_box(entry), &mut line);
                bytes += black_box(&line).len();
            }
            black_box(bytes);
        }),
    ]
}

/// One round of the store's shard apply: a fresh partition fed events by
/// value, as the shard threads receive them. With no sequencer in front,
/// every `AddEdge` is taken to have a live destination.
fn apply_to_partition(events: &[GraphEvent]) {
    let mut state = PartitionState::new();
    for event in events {
        state.apply(black_box(event));
    }
    black_box(state.edge_count());
}

/// One round of the reference graph: strict apply, endpoints checked and
/// states cloned — what the generator's shadow graph and the oracles run
/// per event.
fn apply_to_graph(events: &[GraphEvent]) {
    let mut graph = EvolvingGraph::new();
    for event in events {
        let _ = black_box(graph.apply(black_box(event)));
    }
    black_box(graph.vertex_count());
}

/// Vertices in the partition `ingest/rank-board-publish` publishes.
const BOARD_VERTICES: u64 = 1_000;

/// Publishes per round of `ingest/rank-board-publish` (its events), and
/// how many of them pass between two reads of the slot.
const BOARD_PUBLISHES: u64 = 10_000;
const BOARD_READ_EVERY: u64 = 1_000;

/// One `tide-graph` worker's side of the result board: its partition's
/// summary, published over and over, with a reader copying the slot out
/// now and then. Both buffers are recycled, so a round allocates nothing.
fn board_publish_suite(rounds: u32) -> BenchRecord {
    let mut partition = RankPartition::default();
    let mut dirty = Vec::new();
    for id in 0..BOARD_VERTICES {
        let vertex = GraphEvent::AddVertex {
            id: VertexId(id),
            state: State::empty(),
        };
        partition.apply_event_deferred(&vertex, &mut dirty);
    }
    let board = ResultBoard::new(1);
    let (mut scratch, mut copy) = (Snapshot::new(), Snapshot::new());
    measure("ingest/rank-board-publish", BOARD_PUBLISHES, rounds, || {
        for publish in 1..=BOARD_PUBLISHES {
            scratch.clear();
            partition.summary_into(&mut scratch);
            board.publish(0, &mut scratch);
            if publish % BOARD_READ_EVERY == 0 {
                copy.clear();
                board.read_slot(0, &mut copy);
                black_box(copy.len());
            }
        }
    })
}

/// A rank partition whose first event waits for `open`: the worker's
/// mailbox then holds the whole stream before its first round, so the
/// rounds — and the shares they push — are the same on every run.
struct Gated {
    rank: RankPartition,
    open: Arc<AtomicBool>,
}

impl Partition for Gated {
    type Msg = f64;

    fn combine(into: &mut f64, mass: f64) {
        RankPartition::combine(into, mass);
    }

    fn apply_event_deferred(&mut self, event: &GraphEvent, dirty: &mut Vec<VertexId>) -> bool {
        while !self.open.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
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

/// One `tide-graph` worker draining `stream` to quiescence, with the
/// benchmark's rank parameters; returns the shares it processed. Every
/// share goes through the worker's own mailbox. The events are copied
/// in by value, as the engine's connector copies them from a replayer
/// batch.
fn drain_shares(stream: &[GraphEvent]) -> u64 {
    let open = Arc::new(AtomicBool::new(false));
    let gate = Arc::clone(&open);
    let rank = RankParams {
        epsilon: 1e-2,
        ..RankParams::default()
    };
    let config = EngineConfig {
        workers: 1,
        rank,
        ..EngineConfig::default()
    };
    let engine = Engine::start_with(config, &MetricsHub::new(), move |_| Gated {
        rank: RankPartition::new(rank),
        open: Arc::clone(&gate),
    });
    for event in stream {
        engine.ingest(event.clone());
    }
    open.store(true, Ordering::Release);
    assert!(
        engine.quiesce(Duration::from_secs(120)),
        "the drain never settled"
    );
    engine.shutdown().shares
}

/// One worker draining a fixed preferential-attachment stream (shaped
/// like the benchmark's `graph-direct-rank` one), measured twice:
///
/// * `ingest/share-transport`, ns and allocations per *share* — mailbox
///   posts, the per-target combine, packing, block recycling and the rank
///   program's receive side;
/// * `ingest/rank-round`, the same drain per *stream event* — the whole
///   rank computation's cost, so a change that sends fewer shares for the
///   same stream reads as a gain here.
///
/// Engine start-up and the graph's own growth are in both.
fn rank_drain_suites(rounds: u32) -> [BenchRecord; 2] {
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
    let shares = drain_shares(&stream);
    let drain = || {
        assert_eq!(
            drain_shares(&stream),
            shares,
            "the drain is not deterministic"
        );
    };
    [
        measure("ingest/share-transport", shares, rounds, drain),
        measure("ingest/rank-round", stream.len() as u64, rounds, drain),
    ]
}

/// Events of `ingest/evolving-graph-snb`'s stream (persons and "knows"
/// edges in the generator's 1 : 18 ratio).
const SNB_EVENTS: u64 = 500_000;

fn ingest_suites(events: &[GraphEvent], rounds: u32) -> Vec<BenchRecord> {
    let n = events.len() as u64;
    // The paper's Table 3 mix (35 % update-vertex, 35 % add-edge, 15 %
    // remove-edge, 10 % add-vertex, 5 % remove-vertex) over a hub-forming
    // bootstrap: the stream shape whose vertex removals `sample_events`
    // lacks.
    let mixed: Vec<GraphEvent> = Table3Workload::small(events.len(), 7)
        .generate()
        .graph_events()
        .cloned()
        .collect();
    let mixed_n = mixed.len() as u64;
    // An SNB stream at `store-tcp-unpaced`'s size: out-lists at p50
    // degree 17 sit in the adjacency's sorted tier and the largest
    // in-lists (past 1 024) in its tree, where `sample_events`' lists
    // (about 5 neighbours) mostly stay in the inline tier.
    let persons = SNB_EVENTS / 19;
    let snb_workload = SnbWorkload {
        persons,
        connections: SNB_EVENTS - persons,
        seed: 7,
    };
    let snb: Vec<GraphEvent> = snb_workload.generate().graph_events().cloned().collect();
    let snb_n = snb.len() as u64;
    let mut suites = vec![
        measure("ingest/evolving-graph", n, rounds, || {
            apply_to_graph(events)
        }),
        measure("ingest/evolving-graph-mixed", mixed_n, rounds, || {
            apply_to_graph(&mixed)
        }),
        measure("ingest/evolving-graph-snb", snb_n, rounds, || {
            apply_to_graph(&snb)
        }),
        measure("ingest/partition-state", n, rounds, || {
            apply_to_partition(events)
        }),
        measure("ingest/partition-state-mixed", mixed_n, rounds, || {
            apply_to_partition(&mixed)
        }),
        board_publish_suite(rounds),
    ];
    suites.extend(rank_drain_suites(rounds));
    suites
}

/// A sink that only counts: what is left is the client's own cost.
struct CountingSink(u64);

impl EventSink for CountingSink {
    fn send(&mut self, entry: &StreamEntry) -> io::Result<()> {
        black_box(entry);
        self.0 += 1;
        Ok(())
    }
}

/// Offered rate of the unpaced client, events/s: every arrival is due at
/// once, so the client never waits.
const UNPACED_RATE: f64 = 1e9;

/// Substreams `load/partition-split` splits into.
const SPLIT_PARTITIONS: usize = 2;

fn load_suites(events: &[GraphEvent], rounds: u32) -> Vec<BenchRecord> {
    let n = events.len() as u64;
    let graph = |event: &GraphEvent| StreamEntry::graph(event.clone());
    let stream = GraphStream::from_entries(events.iter().map(graph).collect());
    let config = ClientConfig::new("bench", LoopModel::Open, UNPACED_RATE, 7);
    let clock: Arc<dyn Clock> = Arc::new(WallClock::start());
    let snb_file = snb_file(n);
    let suites = vec![
        // Schedule, burst loop, per-event `send`, sojourn stamps: the
        // whole of `run_client` short of the socket.
        measure("load/client-open-unpaced", n, rounds, || {
            let sink = Box::new(CountingSink(0));
            let report = run_client(stream.entries(), &config, sink, Arc::clone(&clock))
                .expect("a counting sink cannot fail");
            assert_eq!(report.sent, n);
            black_box(report);
        }),
        measure("load/partition-split", n, rounds, || {
            let parts = SeededPartitioner::new(SPLIT_PARTITIONS, 7).split(black_box(&stream));
            black_box(parts);
        }),
        session_suite(&snb_file, n, rounds),
        feed_suite(&snb_file, n, rounds),
        fold_records_suite(n, rounds),
    ];
    std::fs::remove_file(&snb_file).ok();
    suites
}

/// An SNB stream file of `n` entries: persons and `knows` edges at Table
/// 4's ratio, no markers — event = entry.
fn snb_file(n: u64) -> PathBuf {
    let persons = n / 19;
    let workload = SnbWorkload {
        persons,
        connections: n - persons,
        seed: 7,
    };
    let path = std::env::temp_dir().join(format!("gt-bench-snb-{}.csv", std::process::id()));
    workload
        .generate()
        .write_to_file(&path)
        .expect("writing the load suites' stream file");
    path
}

/// Queues `load/feed-file` routes to.
const FEED_QUEUES: usize = 2;

/// The load front's routing pass: the SNB stream file read once and
/// routed to [`FEED_QUEUES`] bounded queues, each drained by a consumer
/// thread that counts entries. What is left is read + parse + route + the
/// chunk hand-off; chunks go back to the router, so the allocations are
/// the run's fixed set (threads, channels, the chunks themselves), not
/// one per entry.
fn feed_suite(path: &Path, n: u64, rounds: u32) -> BenchRecord {
    measure("load/feed-file", n, rounds, || {
        let (router, queues) = Router::new(SeededPartitioner::new(FEED_QUEUES, 7));
        let counted = std::thread::scope(|scope| {
            let drains: Vec<_> = queues
                .into_iter()
                .map(|mut queue| {
                    scope.spawn(move || {
                        let mut count = 0;
                        while queue.refill(|| {}) {
                            count += black_box(queue.chunk()).len() as u64;
                        }
                        count
                    })
                })
                .collect();
            let routed = router
                .route(path.into())
                .expect("the suite's own file parses");
            assert_eq!(routed, n);
            drains.into_iter().map(|d| d.join().unwrap()).sum::<u64>()
        });
        assert_eq!(counted, n);
    })
}

/// What the harness does with a finished load run after `quiesce`: `n`
/// sojourn samples from two clients (interleaved in time) are folded into
/// their class's exact tail (one sort of the samples) and two one-second
/// rate series; those records join the platform's report in the
/// collector and come out as one sorted result log. Event = sample.
fn fold_records_suite(n: u64, rounds: u32) -> BenchRecord {
    const SPACING_MICROS: u64 = 20;
    let per_client = n / 2;
    let client = |index: u64| ClientReport {
        class: "main".to_owned(),
        model: LoopModel::Open,
        offered: per_client,
        sent: per_client,
        backlog_peak: 0,
        schedule_micros: (0..per_client).map(|i| i * SPACING_MICROS).collect(),
        sojourn: (0..per_client)
            .map(|i| (i * SPACING_MICROS + 7 * index + 3, 3 + i % 97))
            .collect(),
        feed_stall_micros: 0,
        started_micros: 0,
        finished_micros: per_client * SPACING_MICROS,
    };
    let t_end = per_client * SPACING_MICROS + 10;
    let outcome = LoadOutcome {
        clients: vec![client(0), client(1)],
        client_failures: Vec::new(),
        listener: ListenerReport {
            connections: 2,
            entries: n,
            graph_events: n,
            markers: vec![("stream-end".to_owned(), t_end)],
            ..ListenerReport::default()
        },
        netem: None,
    };
    let plan = LoadPlan::single(2, UNPACED_RATE, LoopModel::Open, 7);
    let report = SutReport::new("tide-store")
        .with("events", n as f64)
        .with("vertices", 1.0)
        .with("edges", 2.0);
    measure("load/fold-records", 2 * per_client, rounds, || {
        let mut records = load_records(&outcome, &plan, t_end);
        records.extend(report_records(&report, t_end));
        black_box(ResultLog::from_records(records));
    })
}

/// The replayer's ceiling: the SNB stream file of `n` entries through
/// `ReplaySession`, never waiting on the pacer, into a counting sink.
/// What is left is read + parse + the reader→emitter hand-off + the emit
/// loop.
///
/// The queue holds one chunk (`buffer` = [`MAX_CHUNK`]). The reader
/// mints a chunk of entries only when none has come back, so a session
/// makes at most its queue's depth + 2 chunks, and how many of those a
/// round makes depends on how far a preempted emitter lets the reader
/// run ahead. At the default 16-chunk depth that is anywhere from 3 to
/// 18 chunks of 257 allocations a session — up to 0.046 per event here,
/// past the gate. At depth 1 a round makes two or three chunks, 257
/// allocations apart (0.003 per event), inside the gate's 0.005: the
/// row's count is the per-event work plus a bounded constant, and the
/// committed row keeps it.
fn session_suite(path: &Path, n: u64, rounds: u32) -> BenchRecord {
    let config = ReplaySessionConfig {
        replayer: ReplayerConfig {
            target_rate: UNPACED_RATE,
            ..ReplayerConfig::default()
        },
        buffer: MAX_CHUNK,
    };
    measure("load/session-unpaced", n, rounds, || {
        let mut sink = CountingSink(0);
        let report = ReplaySession::new(config.clone())
            .run(path, &mut sink)
            .expect("a counting sink cannot fail");
        assert_eq!((report.entries_read, sink.0), (n, n));
        black_box(report);
    })
}

fn load_previous(path: &Path) -> Vec<BenchRecord> {
    match std::fs::read_to_string(path) {
        Ok(text) => trajectory::from_json(&text),
        Err(_) => Vec::new(),
    }
}

fn run(args: Args) -> Result<(), String> {
    // Smoke mode keeps the full event count (per-event medians are only
    // comparable at equal scale) and saves time on rounds instead.
    let (events_n, rounds) = if args.smoke {
        (100_000, 3)
    } else {
        (100_000, 9)
    };
    let events = sample_events(events_n);
    let entries = sample_entries(&events);

    let mut failed = false;
    for (area, fresh) in [
        ("parse", parse_suites(&entries, rounds)),
        ("ingest", ingest_suites(&events, rounds)),
        ("load", load_suites(&events, rounds)),
    ] {
        let path = args.out.join(format!("BENCH_{area}.json"));
        println!("[{area}] ({} events x {rounds} rounds)", events_n);
        let previous = load_previous(&path);
        let delta = trajectory::compare(&previous, &fresh);
        for (name, old, new) in &delta.regressions {
            eprintln!(
                "REGRESSION {name}: {old:.1} -> {new:.1} ns/event \
                 (> {:.0}% threshold)",
                trajectory::REGRESSION_THRESHOLD * 100.0
            );
        }
        // Allocation counts are exact (a deterministic counter, not a
        // timing), so growth is gated as hard as ns/event regressions.
        for (name, old, new) in &delta.alloc_warnings {
            eprintln!("ALLOC GROWTH {name}: {old:.3} -> {new:.3} allocations per event");
        }
        if args.check && !(delta.regressions.is_empty() && delta.alloc_warnings.is_empty()) {
            failed = true;
        }
        std::fs::write(&path, trajectory::to_json(area, &fresh))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    if failed {
        return Err("perf trajectory check failed (median regression > 15%)".into());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("gt-bench: {msg}");
            ExitCode::FAILURE
        }
    }
}

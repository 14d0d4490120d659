//! The four workloads: what stream each generates, which path it takes
//! into which platform, and the reference its outputs are checked
//! against.

use std::time::Duration;

use gt_core::prelude::*;
use gt_graph::{ApplyPolicy, EvolvingGraph};
use gt_sut::SutOptions;
use gt_workloads::{SnbWorkload, Table3Workload};

use crate::json::Json;

/// The seed used when `--seed` is not given (the paper's year). `--seed`
/// moves every generator seed and the load seed together: streams are
/// generated from the seed itself (except [`StreamKind::SnbPinned`]), the
/// load plan (partitioner and arrival schedules) from `seed + 1`.
pub const DEFAULT_SEED: u64 = 2018;

/// "Unpaced" for APIs that insist on a finite positive rate: every
/// deadline is already in the past, so nothing ever waits.
pub const UNPACED_RATE: f64 = 1e9;

/// Client connections of the TCP workloads, and worker threads of both
/// platforms: the sandbox has two cores.
pub const CONNECTIONS: usize = 2;

/// An event of a paced workload is on time when its write completed
/// within this long of its *scheduled* arrival.
pub const ON_TIME_LIMIT_US: u64 = 5_000;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamKind {
    /// `SnbWorkload`: add-only persons and "knows" edges, as generated —
    /// always from [`DEFAULT_SEED`], whatever `--seed` says.
    ///
    /// Rank work per event depends on which hubs a seed happens to grow:
    /// between seeds 3 and 4 the same 10k-event stream costs 67.7 against
    /// 50.4 allocations and 3 300 against 4 700 events/s, and neither a
    /// larger stream (80k events) nor an ensemble of independent
    /// communities brings the seed-to-seed range under ±10%. Runs with
    /// different seeds are compared with each other, and that comparison
    /// must see the engine, not the input; the same stream repeats within
    /// ±2%.
    SnbPinned,
    /// The same events in two phases — every person, a marker, every
    /// connection, a marker — for the multi-connection workloads.
    ///
    /// The load partitioner keeps only per-entity order (events route by
    /// source vertex), so in the generated order an `ADD_EDGE` on one
    /// connection can overtake the `ADD_VERTEX` of its target on the
    /// other; both platforms then drop the edge under their lenient
    /// policy, and 1–8% of the edges of an as-generated stream are lost
    /// that way, differently on every pass. Markers are barriers across
    /// connections: with all persons ahead of one, no edge can overtake
    /// its endpoints, nothing is dropped, and the final state equals the
    /// in-order reference exactly.
    SnbTwoPhase,
    /// `Table3Workload::small` with no warm-up pause: hubs, then the
    /// Table 3 mix of updates, adds and removes.
    Mixed,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Front {
    /// File → partition → `CONNECTIONS` open-loop clients → TCP →
    /// `LoadListener` → one connector per connection, at this total rate.
    Tcp { rate: f64 },
    /// File → `ReplaySession` → one in-process connector, unpaced.
    Direct,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: StreamKind,
    /// Generator size: total events for the SNB kinds, evolution events
    /// for `Mixed` (the bootstrap adds ~2 900 more).
    pub events: usize,
    pub front: Front,
    pub sut: &'static str,
    pub options: &'static [(&'static str, &'static str)],
}

/// Simulated per-event costs off: with the defaults `busy_work`
/// spin-loops cap the store near 9.4k events/s and no code change could
/// move any metric.
pub const STORE_OPTIONS: &[(&str, &str)] = &[("timestamper_cost_us", "0"), ("shard_cost_us", "0")];

/// `epsilon` pinned: at the default 1e-4 the engine does not quiesce
/// within the harness's 30 s and reports lost events.
pub const RANK_OPTIONS: &[(&str, &str)] = &[
    ("workers", "2"),
    ("epsilon", "1e-2"),
    ("event_cost_us", "0"),
    ("share_cost_us", "0"),
];

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "store-tcp-unpaced",
        why: "full wire path as a firehose: parse, format, socket and listener do the work, apply is cheap",
        kind: StreamKind::SnbTwoPhase,
        events: 500_000,
        front: Front::Tcp { rate: UNPACED_RATE },
        sut: "tide-store",
        options: STORE_OPTIONS,
    },
    Workload {
        name: "store-tcp-150k",
        why: "same path paced at 150k events/s: shows pacing and latency regressions the firehose hides",
        kind: StreamKind::SnbTwoPhase,
        events: 375_000,
        front: Front::Tcp { rate: 150_000.0 },
        sut: "tide-store",
        options: STORE_OPTIONS,
    },
    Workload {
        name: "store-direct-mixed",
        why: "deletes, updates and hubs into the store with the wire bypassed: the apply layer does the work",
        kind: StreamKind::Mixed,
        events: 400_000,
        front: Front::Direct,
        sut: "tide-store",
        options: STORE_OPTIONS,
    },
    Workload {
        name: "graph-direct-rank",
        why: "rank engine compute dominates (~800 shares/event): wire and parse changes must show no change here",
        kind: StreamKind::SnbPinned,
        events: 10_000,
        front: Front::Direct,
        sut: "tide-graph",
        options: RANK_OPTIONS,
    },
];

/// Divisor applied to every size by `--smoke`.
pub const SMOKE_DIVISOR: usize = 20;

impl Workload {
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn sized(&self, smoke: bool) -> usize {
        if smoke {
            self.events / SMOKE_DIVISOR
        } else {
            self.events
        }
    }

    pub fn sut_options(&self) -> SutOptions {
        sut_options(self.options)
    }

    /// The seed the stream is generated from when the run's is `seed`.
    pub fn stream_seed(&self, seed: u64) -> u64 {
        match self.kind {
            StreamKind::SnbPinned => DEFAULT_SEED,
            StreamKind::SnbTwoPhase | StreamKind::Mixed => seed,
        }
    }

    /// The resolved configuration, for the run manifest.
    pub fn describe(&self, smoke: bool, seed: u64) -> Json {
        let front = match self.front {
            Front::Tcp { rate } if rate >= UNPACED_RATE => Json::str("tcp, unpaced"),
            Front::Tcp { rate } => Json::str(format!("tcp, poisson open loop at {rate} events/s")),
            Front::Direct => Json::str("direct, unpaced"),
        };
        Json::obj([
            ("name", Json::str(self.name)),
            ("why", Json::str(self.why)),
            ("stream", Json::str(format!("{:?}", self.kind))),
            ("generator_events", Json::Num(self.sized(smoke) as f64)),
            ("stream_seed", Json::Num(self.stream_seed(seed) as f64)),
            ("front", front),
            ("connections", Json::Num(CONNECTIONS as f64)),
            ("sut", Json::str(self.sut)),
            (
                "sut_options",
                Json::obj(self.options.iter().map(|(k, v)| (*k, Json::str(*v)))),
            ),
        ])
    }
}

pub fn sut_options(pairs: &[(&str, &str)]) -> SutOptions {
    pairs
        .iter()
        .fold(SutOptions::new(), |options, (key, value)| {
            options.set(*key, value)
        })
}

fn snb(events: usize, seed: u64) -> GraphStream {
    let full = SnbWorkload::table4().total_events() as f64;
    SnbWorkload::scaled(events as f64 / full, seed).generate()
}

/// Generates a workload's stream; `seed` is its [`Workload::stream_seed`].
pub fn generate(kind: StreamKind, events: usize, seed: u64) -> GraphStream {
    match kind {
        StreamKind::SnbPinned => snb(events, seed),
        StreamKind::SnbTwoPhase => {
            let (mut entries, connections): (Vec<_>, Vec<_>) = snb(events, seed)
                .into_entries()
                .into_iter()
                .partition(|e| matches!(e, StreamEntry::Graph(GraphEvent::AddVertex { .. })));
            entries.push(StreamEntry::marker("persons-done"));
            entries.extend(connections);
            entries.push(StreamEntry::marker("stream-end"));
            GraphStream::from_entries(entries)
        }
        StreamKind::Mixed => {
            let mut workload = Table3Workload::small(events, seed);
            workload.warmup_pause = Duration::ZERO;
            workload.generate()
        }
    }
}

/// What the platform's final report must say: the stream applied by a
/// single-threaded [`EvolvingGraph`] under the lenient policy both
/// platforms use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    pub events: u64,
    pub vertices: u64,
    pub edges: u64,
}

pub fn reference(stream: &GraphStream) -> Reference {
    let mut graph = EvolvingGraph::new();
    let mut events = 0u64;
    for event in stream.graph_events() {
        let _ = graph.apply_with(event, ApplyPolicy::Lenient);
        events += 1;
    }
    Reference {
        events,
        vertices: graph.vertex_count() as u64,
        edges: graph.edge_count() as u64,
    }
}

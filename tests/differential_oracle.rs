//! The serial-vs-sharded differential oracle: the same seeded stream
//! replayed through a `shards=1` serial baseline and a `shards=N`
//! candidate must leave **bit-identical** observable state — the final
//! adjacency and every per-marker-window adjacency — on *both* built-in
//! platforms.
//!
//! The oracle is exercised three ways:
//!
//! * **clean** — the plain A/B over a mixed add/remove stream with
//!   marker-cut windows;
//! * **under a-priori stream faults** — the same `drop`+`dup` derived
//!   stream (gt-faults, seeded) fed to both sides: an unreliable stream
//!   weakens *what* the platforms see, never whether sharding preserves
//!   it;
//! * **under live chaos** — a single shard is crashed mid-run and
//!   supervised-restarted on the *candidate only*; its retained-event
//!   replay must converge back to the serial baseline's state, while the
//!   degradation counters (excluded from the diff by design) record the
//!   incident.
//!
//! Engine chaos caveat: markers are not retained, so a worker restarted
//! after a marker misses that marker's snapshot — the engine chaos case
//! therefore streams without markers and compares final state, which is
//! exactly the convergence claim.

use graphtides::faults::{parse_pipeline, FaultInjector};
use graphtides::harness::{
    run, run_differential, ChaosPlan, EvaluationLevel, FaultSchedule, RunPlan, StateDigest, Target,
};
use graphtides::prelude::*;

const RATE: f64 = 400_000.0;

/// A deterministic mixed stream: vertices, cross-linking weighted edges,
/// a sprinkle of removals, and `markers` evenly spaced marker cuts.
fn seeded_stream(vertices: u64, edges: u64, markers: usize) -> GraphStream {
    let mut entries: Vec<StreamEntry> = Vec::new();
    for i in 0..vertices {
        entries.push(StreamEntry::graph(GraphEvent::AddVertex {
            id: VertexId(i),
            state: State::empty(),
        }));
    }
    let mut x = 0x9E37_79B9u64;
    for _ in 0..edges {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let src = (x >> 33) % vertices;
        let dst = (x >> 13) % vertices;
        if src != dst {
            entries.push(StreamEntry::graph(GraphEvent::AddEdge {
                id: EdgeId::from((src, dst)),
                state: State::weight(((x >> 7) % 9 + 1) as f64),
            }));
        }
    }
    for i in (0..vertices / 10).map(|i| i * 7 % vertices) {
        entries.push(StreamEntry::graph(GraphEvent::RemoveVertex {
            id: VertexId(i),
        }));
    }
    // Space the markers evenly through the whole stream.
    let step = entries.len() / (markers + 1);
    for m in (1..=markers).rev() {
        entries.insert(m * step, StreamEntry::marker(format!("window-{m}")));
    }
    entries.into_iter().collect()
}

fn store_options() -> SutOptions {
    SutOptions::new()
        .set("timestamper_cost_us", 0)
        .set("shard_cost_us", 0)
        .set("batch_size", 8)
}

/// Runs the clean A/B for one platform pair and asserts bit-identity.
fn assert_clean_differential(stream: &GraphStream, serial: &str, base_options: SutOptions) {
    let registry = graphtides::builtin_registry();
    let sharded = format!("{serial}-sharded");
    let outcome = run_differential(
        stream,
        RATE,
        &registry,
        (serial, &base_options.clone().set("shards", 1)),
        (&sharded, &base_options.set("shards", 4)),
    )
    .unwrap();
    assert!(
        outcome.matches(),
        "{serial}: {}",
        outcome.mismatch.as_deref().unwrap_or_default()
    );
    // The oracle actually looked at something: every marker window was
    // digested on both sides.
    assert_eq!(outcome.baseline_digest.windows.len(), 3, "{serial}");
    assert_eq!(outcome.candidate_digest.windows.len(), 3, "{serial}");
    assert!(
        !outcome.baseline_digest.final_adjacency.is_empty(),
        "{serial}"
    );
}

#[test]
fn store_sharded_matches_serial_on_a_clean_stream() {
    assert_clean_differential(&seeded_stream(300, 900, 3), "tide-store", store_options());
}

#[test]
fn engine_sharded_matches_serial_on_a_clean_stream() {
    assert_clean_differential(&seeded_stream(300, 900, 3), "tide-graph", SutOptions::new());
}

#[test]
fn differential_holds_under_a_priori_drop_and_dup_faults() {
    // Derive ONE unreliable stream (drop 5%, duplicate 2%, seeded) and
    // feed the identical derived stream to both sides of both platforms:
    // the weakened stream changes what state is built, not whether the
    // sharded build matches the serial one.
    let pipeline = parse_pipeline("drop:0.05,dup:0.02").unwrap();
    let faulty = pipeline.inject(seeded_stream(300, 900, 3), 11);
    assert_clean_differential(&faulty, "tide-store", store_options());
    assert_clean_differential(&faulty, "tide-graph", SutOptions::new());
}

/// One digest-mode run, optionally with a chaos schedule on the run.
fn digest_run(
    stream: &GraphStream,
    sut: &str,
    options: SutOptions,
    chaos: Option<&str>,
) -> (StateDigest, graphtides::harness::SutReport) {
    let registry = graphtides::builtin_registry();
    let mut plan = RunPlan::new(stream.clone(), RATE).at_level(EvaluationLevel::Level0);
    plan.sysmon = None;
    if let Some(spec) = chaos {
        plan = plan.with_chaos(ChaosPlan::new(FaultSchedule::parse(spec, 5).unwrap()));
    }
    let options = options.set("digest", 1);
    let outcome = run(plan, Target::Sut(&registry, sut, &options)).unwrap();
    assert!(outcome.quiesced, "{sut} failed to quiesce");
    (
        outcome.digest.expect("digest=1 returns a digest"),
        outcome.report.expect("a registry target reports"),
    )
}

#[test]
fn store_differential_holds_under_single_shard_crash_and_restart() {
    let stream = seeded_stream(300, 900, 3);
    let (serial, _) = digest_run(
        &stream,
        "tide-store",
        store_options().set("shards", 1),
        None,
    );
    // Candidate: kill shard 1 at event 300, supervised restart 400 events
    // later; the replayed shard log carries the original global sequence
    // numbers, so the merged state — and every marker cut recorded at the
    // router — must still equal the undisturbed serial run.
    let (sharded, report) = digest_run(
        &stream,
        "tide-store-sharded",
        store_options().set("shards", 4).set("supervised", 1),
        Some("crash@300,worker=1,restart=400"),
    );
    assert_eq!(serial.diff(&sharded), None);
    // The incident is on the record — as degradation, not as divergence.
    assert_eq!(report.get("crashes"), Some(1.0));
    assert_eq!(report.get("restarts"), Some(1.0));
    assert_eq!(sharded.degradation("crashes"), Some(1));
    assert_eq!(sharded.degradation("restarts"), Some(1));
}

#[test]
fn engine_final_state_converges_after_single_worker_crash_and_restart() {
    // No markers: the engine does not retain markers for replay, so a
    // restarted worker would legitimately miss pre-crash snapshots. The
    // convergence claim is about final state.
    let stream = seeded_stream(300, 900, 0);
    let (serial, _) = digest_run(
        &stream,
        "tide-graph",
        SutOptions::new().set("shards", 1),
        None,
    );
    let (sharded, report) = digest_run(
        &stream,
        "tide-graph-sharded",
        SutOptions::new().set("shards", 4).set("supervised", 1),
        Some("crash@300,worker=1,restart=400"),
    );
    assert_eq!(serial.diff(&sharded), None);
    assert_eq!(report.get("crashes"), Some(1.0));
    assert_eq!(report.get("restarts"), Some(1.0));
}

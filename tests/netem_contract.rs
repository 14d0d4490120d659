//! Contract tests of the netem network-fault layer through the full
//! stack (load clients → fault proxy → SUT listener → platform):
//!
//! * **Determinism witness**: three runs of the same `(schedule, seed)`
//!   produce byte-identical fault journals (`signature()` equality),
//!   regardless of wall-clock noise — the property every robustness
//!   comparison in the paper's methodology rests on.
//! * **Partition mid-stream**: a timed blackhole over a subset of
//!   connections heals and the run still delivers every event and every
//!   marker in order, on *both* built-in platforms.
//! * **Kill one of four**: an abrupt RST against one client degrades
//!   typed — one failed client, a `connections_lost` count, and
//!   degradation records in the merged log — instead of hanging the
//!   marker barrier or failing the run, on both platforms.

use graphtides::harness::{
    run, EvaluationLevel, LoadPlan, LoopModel, NetemPlan, NetemSchedule, RunOutcome, RunPlan,
    SutOptions, Target,
};
use graphtides::prelude::*;

/// `n` vertex events with a marker at the midpoint and one at the end.
fn marked_stream(n: u64) -> GraphStream {
    let mut stream = GraphStream::new();
    for i in 0..n {
        stream.push(StreamEntry::graph(GraphEvent::AddVertex {
            id: VertexId(i),
            state: State::empty(),
        }));
        if i == n / 2 {
            stream.push(StreamEntry::marker("mid"));
        }
    }
    stream.push(StreamEntry::marker("end"));
    stream
}

/// Runs `clients` load clients through a netem proxy against `sut` and
/// returns the outcome plus the proxy's fault-journal signature.
fn run_with_netem(
    sut: &str,
    options: &SutOptions,
    spec: &str,
    seed: u64,
    clients: usize,
    events: u64,
    rate: f64,
) -> (RunOutcome, Vec<(u64, String)>) {
    let netem = NetemPlan::new(NetemSchedule::parse(spec, seed).unwrap());
    let journal = netem.journal.clone();
    let mut plan = RunPlan::new(marked_stream(events), 0.0)
        .at_level(EvaluationLevel::Level1)
        .with_load(LoadPlan::single(clients, rate, LoopModel::Open, 42).with_netem(netem));
    plan.sysmon = None;
    let outcome = run(
        plan,
        Target::Sut(&graphtides::builtin_registry(), sut, options),
    )
    .unwrap();
    (outcome, journal.signature())
}

// The acceptance criterion verbatim: three runs with one seed produce
// identical fault journals, through real TCP runs whose wall-clock
// timing differs every time. The journal seq is the *planned* offset and
// unfired events fast-forward at stop, so the witness is independent of
// scheduler noise and run length.
#[test]
fn three_runs_one_seed_produce_identical_fault_journals() {
    const SPEC: &str =
        "partition@150ms,dur=200ms,conns=0-1; delay@100ms,ms=3,jitter=2; kill@400ms,mode=rst,conns=2";
    let signatures: Vec<Vec<(u64, String)>> = (0..3)
        .map(|_| {
            let (_, signature) =
                run_with_netem("tide-store", &SutOptions::new(), SPEC, 11, 4, 1500, 3000.0);
            signature
        })
        .collect();
    // partition + its heal + delay + kill.
    assert_eq!(signatures[0].len(), 4, "{:?}", signatures[0]);
    assert_eq!(signatures[0], signatures[1]);
    assert_eq!(signatures[1], signatures[2]);
}

fn partition_mid_stream_completes_on(sut: &str, options: SutOptions) {
    const EVENTS: u64 = 1200;
    let (outcome, signature) = run_with_netem(
        sut,
        &options,
        "partition@200ms,dur=300ms,conns=0-1",
        5,
        6,
        EVENTS,
        1200.0,
    );
    // Every event rode through the blackhole-and-heal: the partitioned
    // connections' writes buffer in the proxy and drain on heal.
    assert_eq!(
        outcome.sut_report().get("events"),
        Some(EVENTS as f64),
        "{sut}"
    );
    assert!(outcome.load().client_failures.is_empty(), "{sut}");
    assert_eq!(outcome.load().listener.marker_violations, 0, "{sut}");
    let names: Vec<&str> = outcome
        .load()
        .listener
        .markers
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    assert_eq!(names, ["mid", "end"], "{sut}");
    // The journal witnessed exactly the fault and its heal.
    assert_eq!(signature.len(), 2, "{sut}: {signature:?}");
    assert!(signature[0].1.starts_with("partition("), "{sut}");
    assert!(signature[1].1.starts_with("heal(partition("), "{sut}");
}

#[test]
fn partition_mid_stream_completes_on_tide_store() {
    partition_mid_stream_completes_on("tide-store", SutOptions::new());
}

#[test]
fn partition_mid_stream_completes_on_tide_graph() {
    partition_mid_stream_completes_on("tide-graph", SutOptions::new().set("workers", 3));
}

fn kill_one_of_four_degrades_typed_on(sut: &str, options: SutOptions) {
    let (outcome, signature) = run_with_netem(
        sut,
        &options,
        "kill@250ms,mode=rst,conns=0",
        3,
        4,
        1600,
        3200.0,
    );
    // Exactly one client died to the RST; the run still completed.
    assert_eq!(outcome.load().client_failures.len(), 1, "{sut}");
    assert!(outcome.load().listener.connections_lost >= 1, "{sut}");
    assert_eq!(outcome.load().netem.as_ref().unwrap().kills_rst, 1, "{sut}");
    // The loss is typed into the merged log as degradation records, not
    // swallowed: the listener's excusal plus the client's failure.
    let degradations: Vec<&str> = outcome
        .log
        .records()
        .iter()
        .filter(|r| r.source == "load" && r.metric == "degradation")
        .filter_map(|r| match &r.value {
            graphtides::metrics::MetricValue::Text(text) => Some(text.as_str()),
            _ => None,
        })
        .collect();
    assert!(!degradations.is_empty(), "{sut}");
    // The proxy kills its 0th accepted connection, which is whichever
    // client dialed first — assert the failure is recorded, not its index.
    assert!(
        degradations.iter().any(|d| d.contains("failed")),
        "{sut}: {degradations:?}"
    );
    // The surviving quorum still carried both markers through, in order.
    let names: Vec<&str> = outcome
        .load()
        .listener
        .markers
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    assert_eq!(names, ["mid", "end"], "{sut}");
    assert_eq!(outcome.load().listener.marker_violations, 0, "{sut}");
    assert_eq!(signature.len(), 1, "{sut}: {signature:?}");
    assert!(signature[0].1.starts_with("kill(mode=rst"), "{sut}");
}

#[test]
fn kill_one_of_four_degrades_typed_on_tide_store() {
    kill_one_of_four_degrades_typed_on("tide-store", SutOptions::new());
}

#[test]
fn kill_one_of_four_degrades_typed_on_tide_graph() {
    kill_one_of_four_degrades_typed_on("tide-graph", SutOptions::new().set("workers", 3));
}

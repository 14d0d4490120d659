//! The source axis changes where entries come from, not what reaches the
//! sink or what the run observes: one seeded stream, replayed from memory
//! and from its file through the same session, must deliver the same
//! entries and log the same series — the pipeline's stage metrics
//! included — in one sorted log, and the same series on every run, at
//! Level 0 and at Level 2 (the tracer's stage-pair summaries included).

use std::collections::BTreeSet;
use std::sync::Arc;

use gt_analysis::{TRACE_SOURCE, TRACE_STAGE_METRICS};
use gt_harness::{run, EvaluationLevel, RunPlan, Target};
use gt_metrics::{Clock, GaugeSampler, ManualClock, MetricsLogger, ResultLog};
use gt_replayer::CollectSink;
use gt_sut::{SutOptions, SutRegistry};
use gt_workloads::Table3Workload;

fn probe() -> Box<dyn MetricsLogger> {
    let clock: Arc<dyn Clock> = Arc::new(ManualClock::new());
    Box::new(GaugeSampler::new(clock, "probe", "answer", || Some(42.0)))
}

/// The `(source, metric)` pairs a log carries.
fn series(log: &ResultLog) -> BTreeSet<(String, String)> {
    log.records()
        .iter()
        .map(|r| (r.source.to_string(), r.metric.to_string()))
        .collect()
}

fn assert_sorted(log: &ResultLog) {
    let times: Vec<u64> = log.records().iter().map(|r| r.t_micros).collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]), "log is not sorted");
}

#[test]
fn memory_and_file_sources_deliver_the_same_entries_and_series() {
    let stream = Table3Workload::small(1_000, 11).generate();
    let path = std::env::temp_dir().join(format!("gt-source-eq-{}.csv", std::process::id()));
    stream.write_to_file(&path).unwrap();

    let mut from_memory = CollectSink::new();
    let mut plan = RunPlan::new(stream, 400_000.0).with_logger(probe());
    plan.sysmon = None;
    let memory = run(plan, Target::Sink(&mut from_memory)).unwrap();

    let mut from_file = CollectSink::new();
    let mut plan = RunPlan::new(&path, 400_000.0).with_logger(probe());
    plan.sysmon = None;
    let file = run(plan, Target::Sink(&mut from_file)).unwrap();
    std::fs::remove_file(&path).ok();

    assert!(!from_memory.entries.is_empty());
    assert_eq!(from_memory.entries, from_file.entries);
    assert_eq!(memory.replay().graph_events, file.replay().graph_events);
    assert_eq!(memory.replay().markers.len(), file.replay().markers.len());

    assert_eq!(series(&memory.log), series(&file.log));
    let logged = series(&memory.log);
    for (source, metric) in [
        ("replayer", "marker"),
        ("pipeline", "ingress_events"),
        ("pipeline", "entries_read"),
    ] {
        assert!(
            logged.contains(&(source.to_owned(), metric.to_owned())),
            "{source}/{metric}"
        );
    }
    assert_eq!(memory.session().entries_read, file.session().entries_read);
    assert_sorted(&memory.log);
    assert_sorted(&file.log);
}

// The pipeline's counters are registered before the observer thread
// takes its first sample, so whether a `.delta` series shows up does not
// depend on which thread got there first.
#[test]
fn every_run_of_one_plan_logs_the_same_series() {
    let stream = Table3Workload::small(300, 5).generate();
    let path = std::env::temp_dir().join(format!("gt-source-runs-{}.csv", std::process::id()));
    stream.write_to_file(&path).unwrap();
    let mut seen = BTreeSet::new();
    for from_file in [false, true] {
        for _ in 0..10 {
            let plan = match from_file {
                false => RunPlan::new(stream.clone(), 1e6),
                true => RunPlan::new(&path, 1e6),
            };
            let outcome = run(plan, Target::Sink(&mut CollectSink::new())).unwrap();
            seen.insert(series(&outcome.log));
        }
    }
    std::fs::remove_file(&path).ok();
    assert_eq!(seen.len(), 1, "{} different series sets", seen.len());
    let logged = seen.pop_first().unwrap();
    for delta in ["ingress_events.delta", "sink_stall_micros.delta"] {
        assert!(
            logged.contains(&("pipeline".to_owned(), delta.to_owned())),
            "{delta}"
        );
    }
}

// At Level 2 the tracer publishes its stage-pair summaries
// (`<pair>.count|mean|p99|max`) into a hub the observers sample, and it
// keeps matching pairs while the platform drains, after the observers'
// final sample. The run folds the summaries in once more when it stops
// the tracer, so every run carries every pair's summary, and its last
// count is the number of that pair's records.
#[test]
fn every_level_2_run_of_one_plan_logs_the_same_series() {
    let stream = Table3Workload::small(300, 5).generate();
    let mut registry = SutRegistry::new();
    tide_store::sut::register(&mut registry);
    let options = SutOptions::new()
        .set("timestamper_cost_us", 0)
        .set("shard_cost_us", 0);
    let mut seen = BTreeSet::new();
    for _ in 0..10 {
        let plan = RunPlan::new(stream.clone(), 1e6).at_level(EvaluationLevel::Level2);
        let outcome = run(plan, Target::Sut(&registry, "tide-store", &options)).unwrap();
        for pair in TRACE_STAGE_METRICS {
            let matched = outcome.log.series(TRACE_SOURCE, pair).len();
            let counts = outcome.log.series(TRACE_SOURCE, &format!("{pair}.count"));
            let last = counts.last().map(|&(_, count)| count as usize);
            assert_eq!(last, Some(matched), "{pair}");
        }
        seen.insert(series(&outcome.log));
    }
    assert_eq!(seen.len(), 1, "{} different series sets", seen.len());
}

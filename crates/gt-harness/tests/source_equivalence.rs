//! The source axis changes how entries reach the sink, not what reaches
//! it: one seeded stream, replayed from memory and from its file, must
//! deliver the same entries and log the same series — apart from the
//! file pipeline's own stage metrics — in one sorted log.

use std::collections::BTreeSet;
use std::sync::Arc;

use gt_harness::{run, RunPlan, Target};
use gt_metrics::{Clock, GaugeSampler, ManualClock, MetricsLogger, ResultLog};
use gt_replayer::CollectSink;
use gt_workloads::Table3Workload;

fn probe() -> Box<dyn MetricsLogger> {
    let clock: Arc<dyn Clock> = Arc::new(ManualClock::new());
    Box::new(GaugeSampler::new(clock, "probe", "answer", || Some(42.0)))
}

/// The `(source, metric)` pairs a log carries, without the series only
/// the file pipeline produces (its stage hub and its sink events).
fn series(log: &ResultLog) -> BTreeSet<(String, String)> {
    log.records()
        .iter()
        .filter(|r| r.source != "pipeline" && r.source != "sink")
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
    assert!(series(&memory.log).contains(&("replayer".to_owned(), "marker".to_owned())));
    assert!(file.log.records().iter().any(|r| r.source == "pipeline"));
    assert!(memory.log.records().iter().all(|r| r.source != "pipeline"));
    assert_sorted(&memory.log);
    assert_sorted(&file.log);
}

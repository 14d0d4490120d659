//! The load front: one multi-client traffic run against a
//! registry-selected platform.
//!
//! Where a direct run replays the stream through a *single* platform
//! connector, a plan with a [`LoadPlan`] hands the stream to the `gt-load`
//! layer: one routing pass reads it (a stream file is parsed as it is
//! routed, never materialised) and sends each graph event to one
//! connection's bounded queue by seeded entity hash, hundreds of
//! concurrent TCP clients pace their own arrival schedules (open, closed,
//! or partial-open loop per class), and the multi-connection listener
//! feeds one platform connector per accepted connection — markers stay
//! totally ordered across all of them.
//!
//! The client reports are folded into the merged result log under the
//! [`LOAD_SOURCE`] source using the conventions `gt-analysis::load`
//! consumes:
//!
//! * `marker` text records — the listener's totally-ordered marker log;
//! * `sojourn_us.<class>.<field>` — the class's exact whole-run sojourn
//!   tail (`n`, `nan_count`, `p50`, `p95`, `p99`, `p999`, `max`), a
//!   sample being completion minus *scheduled* arrival (the
//!   coordinated-omission-free latency), computed from every sample in
//!   the client reports and stamped at run end: a handful of records per
//!   class, not one per event ([`gt_analysis::sojourn_tail_records`]);
//! * `offered_rate.<class>` / `achieved_rate.<class>` — per-second
//!   bucketed rate series counted straight from the client reports
//!   (zero-filled inside the span, so a stall shows as an achieved-rate
//!   dip rather than a gap);
//! * run summary floats (`offered_total`, `sent_total`, `achieved_ratio`,
//!   `marker_violations`, `parse_errors`, `connections`, and
//!   `feed_stall_us`: the clients' summed waits on their queues while an
//!   arrival was due — the routing pass falling behind, 0 when it keeps
//!   up).
//!
//! A load front runs at up to Level 1 (native hub sampling; a Level 2
//! request is clamped). Chaos, the watchdog and a replay tracer act on a
//! single replayer and its single sink, which this front does not have:
//! [`crate::RunPlan::check`] refuses them here.

use std::borrow::Borrow;
use std::sync::{Arc, Mutex};

use gt_analysis::{sojourn_tail_records, TailQuantiles};
use gt_load::{run_load, source_error, ConnectorFactory, LoadOutcome, LoadPlan};
use gt_metrics::{Clock, MetricRecord, MetricValue, Name};
use gt_netem::NETEM_SOURCE;
use gt_replayer::ReplayError;
use gt_sut::SystemUnderTest;

use crate::run::{RunError, Source};

/// The result-log source under which load records are filed. Matches
/// `gt_analysis::LOAD_SOURCE`.
pub const LOAD_SOURCE: &str = "load";

/// Runs the load layer against a started platform: its listener builds
/// one platform connector per accepted connection (plus one control
/// connector for marker forwarding).
///
/// The connector factory runs on the listener's accept thread, so the
/// platform moves into a shared cell for the duration and is put back
/// once all connections are joined (`run_load` joins the listener before
/// returning). A bad line in a stream file is the run's
/// [`ReplayError::Source`], as in a replay.
pub(crate) fn drive_clients(
    source: &Source,
    plan: &LoadPlan,
    sut: &mut Option<Box<dyn SystemUnderTest>>,
    clock: &Arc<dyn Clock>,
) -> Result<LoadOutcome, RunError> {
    let sut_cell = Arc::new(Mutex::new(sut.take()));
    let factory_cell = Arc::clone(&sut_cell);
    let factory: ConnectorFactory = Box::new(move || {
        factory_cell
            .lock()
            .expect("sut cell lock")
            .as_mut()
            .expect("platform present during run")
            .connector()
    });
    let result = run_load(source, plan, factory, Arc::clone(clock));
    *sut = sut_cell.lock().expect("sut cell lock").take();
    result.map_err(|e| match source_error(e) {
        Ok(e) => ReplayError::Source(e).into(),
        Err(e) => e.into(),
    })
}

/// One-second rate buckets over `times`, zero-filled across the span so
/// stall windows read as dips rather than gaps. Records land at bucket
/// midpoints. `times` is walked twice (span, then counts), so a caller
/// passes the client reports' own iterator instead of a copy.
fn rate_records<T: Borrow<u64>>(
    times: impl IntoIterator<Item = T> + Clone,
    source: &Name,
    metric: &str,
) -> Vec<MetricRecord> {
    let seconds = || times.clone().into_iter().map(|t| *t.borrow() / 1_000_000);
    let span = seconds().fold(None, |span, s| match span {
        None => Some((s, s)),
        Some((first, last)) => Some((s.min(first), s.max(last))),
    });
    let Some((first, last)) = span else {
        return Vec::new();
    };
    let mut counts = vec![0u64; (last - first + 1) as usize];
    for s in seconds() {
        counts[(s - first) as usize] += 1;
    }
    let metric = Name::from(metric);
    counts
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let midpoint = (first + i as u64) * 1_000_000 + 500_000;
            let value = MetricValue::Float(n as f64);
            MetricRecord::new(midpoint, source.clone(), metric.clone(), value)
        })
        .collect()
}

/// Folds a finished load run into result-log records (see module docs
/// for the conventions). The per-event samples stay in the client
/// reports: what the log gets from them is a fixed handful of tail
/// records per class plus one record per second of rate.
pub fn load_records(load: &LoadOutcome, plan: &LoadPlan, t_end: u64) -> Vec<MetricRecord> {
    let source = Name::from(LOAD_SOURCE);
    let marker = Name::from("marker");
    let mut records: Vec<MetricRecord> = load
        .listener
        .markers
        .iter()
        .map(|(name, t)| {
            let value = MetricValue::Text(name.clone());
            MetricRecord::new(*t, source.clone(), marker.clone(), value)
        })
        .collect();
    for class in plan.class_names() {
        let clients = load.class_reports(class);
        let mut sojourns = Vec::with_capacity(clients.clone().map(|c| c.sojourn.len()).sum());
        for client in clients.clone() {
            sojourns.extend(client.sojourn.iter().map(|&(_, us)| us as f64));
        }
        if let Some(tail) = TailQuantiles::of(&sojourns) {
            records.extend(sojourn_tail_records(class, &tail, t_end));
        }
        let arrivals = clients.clone().flat_map(|client| {
            let started = client.started_micros;
            client
                .schedule_micros
                .iter()
                .map(move |&offset| started + offset)
        });
        let completions = clients.flat_map(|client| client.sojourn.iter().map(|&(t, _)| t));
        let (offered, achieved) = (
            format!("offered_rate.{class}"),
            format!("achieved_rate.{class}"),
        );
        records.extend(rate_records(arrivals, &source, &offered));
        records.extend(rate_records(completions, &source, &achieved));
    }
    for (metric, value) in [
        ("offered_total", load.offered() as f64),
        ("sent_total", load.sent() as f64),
        ("achieved_ratio", load.achieved_ratio()),
        ("connections", load.listener.connections as f64),
        ("marker_violations", load.listener.marker_violations as f64),
        ("parse_errors", load.listener.parse_errors as f64),
        ("connections_lost", load.listener.connections_lost as f64),
        ("reader_stalls", load.listener.reader_stalls as f64),
        ("feed_stall_us", load.feed_stall_micros() as f64),
        ("clients_failed", load.client_failures.len() as f64),
    ] {
        let value = MetricValue::Float(value);
        records.push(MetricRecord::new(
            t_end,
            source.clone(),
            metric.into(),
            value,
        ));
    }
    // Typed degradations — barrier excusals, stalled readers, killed
    // clients — as text records at the time they were observed.
    for (description, t) in &load.listener.degradations {
        records.push(MetricRecord::text(
            *t,
            LOAD_SOURCE,
            "degradation",
            description.clone(),
        ));
    }
    for (conn, error) in &load.client_failures {
        records.push(MetricRecord::text(
            t_end,
            LOAD_SOURCE,
            "degradation",
            format!("client {conn} failed: {error}"),
        ));
    }
    // Netem: the fault journal under its own source (so recovery-window
    // analysis can correlate faults against rate dips) plus the proxy's
    // traffic counters.
    if let Some(netem) = &plan.netem {
        records.extend(netem.journal.records(NETEM_SOURCE));
    }
    if let Some(report) = &load.netem {
        records.extend(report.records(t_end));
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run, RunPlan, Target};
    use gt_core::prelude::*;
    use gt_load::LoopModel;
    use gt_metrics::ResultLog;
    use gt_sut::{SutOptions, SutRegistry};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

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

    #[test]
    fn load_run_fans_out_and_folds_the_log() {
        let options = SutOptions::new()
            .set("timestamper_cost_us", 0)
            .set("shard_cost_us", 0)
            .set("batch_size", 10);
        let mut plan = RunPlan::new(stream(800), 0.0).with_load(LoadPlan::single(
            8,
            160_000.0,
            LoopModel::Open,
            3,
        ));
        plan.sysmon = None;
        let outcome = run(plan, Target::Sut(&registry(), "tide-store", &options)).unwrap();

        assert!(outcome.quiesced);
        // Every event reached the platform exactly once across 8 clients.
        assert_eq!(outcome.sut_report().get("events"), Some(800.0));
        assert_eq!(outcome.load().offered(), 800);
        assert_eq!(outcome.load().listener.connections, 8);
        assert_eq!(outcome.load().listener.marker_violations, 0);
        // The marker crossed the multi-connection boundary exactly once.
        assert!(outcome.log.marker("stream-end").is_some());
        // The analysis-facing series are present and consistent.
        let oa = gt_analysis::offered_vs_achieved(&outcome.log, "main").unwrap();
        assert!(oa.ratio() > 0.5, "achieved/offered = {}", oa.ratio());
        let tail = gt_analysis::sojourn_quantiles(&outcome.log, "main").unwrap();
        assert_eq!(tail.n, 800);
        assert_eq!(Some(tail), TailQuantiles::of(&samples(outcome.load())));
        // The platform's final report is folded in too.
        assert!(!outcome.log.series("tide-store", "events").is_empty());
        // Summary floats give CI something cheap to assert on.
        assert!(!outcome.log.series(LOAD_SOURCE, "achieved_ratio").is_empty());
    }

    // Tentpole, load side: partition 2 of 6 client connections mid-run,
    // heal, and require the run to complete with the fault journaled
    // under the netem source and the fault visible in the merged log.
    #[test]
    fn load_run_through_netem_partition_completes_and_journals() {
        let options = SutOptions::new()
            .set("timestamper_cost_us", 0)
            .set("shard_cost_us", 0)
            .set("batch_size", 10);
        let netem = gt_netem::NetemPlan::new(
            gt_netem::NetemSchedule::parse("partition@200ms,dur=300ms,conns=0-1", 17).unwrap(),
        );
        let journal = netem.journal.clone();
        let mut plan = RunPlan::new(stream(1_200), 0.0)
            .with_load(LoadPlan::single(6, 1_200.0, LoopModel::Open, 3))
            .with_netem(netem);
        plan.sysmon = None;
        let outcome = run(plan, Target::Sut(&registry(), "tide-store", &options)).unwrap();

        // TCP backpressure rides the partition out: every event arrives.
        assert_eq!(outcome.sut_report().get("events"), Some(1_200.0));
        assert_eq!(outcome.load().listener.marker_violations, 0);
        assert!(outcome.load().client_failures.is_empty());
        let netem_report = outcome.load().netem.as_ref().expect("netem report");
        assert_eq!(netem_report.connections, 6);
        assert_eq!(
            journal.signature(),
            vec![
                (200, "partition(dur=300ms, conns=0-1)@200ms".to_owned()),
                (
                    500,
                    "heal(partition(dur=300ms, conns=0-1)@200ms, conns=0-1)".to_owned()
                ),
            ]
        );
        let records = outcome.log.records();
        assert!(records
            .iter()
            .any(|r| r.source == NETEM_SOURCE && r.metric == "fault"));
        assert!(records
            .iter()
            .any(|r| r.source == NETEM_SOURCE && r.metric == "recovery"));
    }

    // Both netem fronts log the proxy's counters through one function: a
    // single-sink run and a load run carry the same eight names.
    #[test]
    fn single_sink_and_load_netem_runs_log_the_same_proxy_counters() {
        let options = SutOptions::new()
            .set("timestamper_cost_us", 0)
            .set("shard_cost_us", 0);
        let netem = || {
            gt_netem::NetemPlan::new(gt_netem::NetemSchedule::parse("delay@10ms,ms=1", 3).unwrap())
        };
        let proxy_counters = |plan: RunPlan| {
            let outcome = run(plan, Target::Sut(&registry(), "tide-store", &options)).unwrap();
            let mut names: Vec<String> = outcome
                .log
                .records()
                .iter()
                .filter(|r| r.source == NETEM_SOURCE && matches!(r.value, MetricValue::Int(_)))
                .map(|r| r.metric.to_string())
                .filter(|m| {
                    !m.starts_with("sink.")
                        && !["bridge_connections", "lines_forwarded", "parse_errors"]
                            .contains(&m.as_str())
                })
                .collect();
            names.sort();
            names
        };
        let mut single = RunPlan::new(stream(300), 30_000.0).with_netem(netem());
        single.sysmon = None;
        let mut load = RunPlan::new(stream(300), 0.0)
            .with_load(LoadPlan::single(2, 30_000.0, LoopModel::Open, 3))
            .with_netem(netem());
        load.sysmon = None;
        let want = [
            "bytes_corrupted",
            "bytes_dropped",
            "bytes_in",
            "bytes_out",
            "dial_failures",
            "kills_fin",
            "kills_rst",
            "proxy_connections",
        ];
        assert_eq!(proxy_counters(single), want);
        assert_eq!(proxy_counters(load), want);
    }

    #[test]
    fn load_run_without_plan_is_rejected() {
        let plan = RunPlan::new(stream(10), 1000.0);
        let err = crate::forward::run_load_file_sut_experiment(
            plan,
            &registry(),
            "tide-store",
            &SutOptions::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("no load layer"));
    }

    /// A platform whose connectors count graph events, and which notes
    /// its shutdown.
    struct Counting {
        events: Arc<AtomicU64>,
        shut_down: Arc<AtomicBool>,
    }

    struct CountingConnector(Arc<AtomicU64>);

    impl gt_replayer::EventSink for CountingConnector {
        fn send(&mut self, entry: &StreamEntry) -> std::io::Result<()> {
            if entry.is_graph() {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
            Ok(())
        }
    }

    impl SystemUnderTest for Counting {
        fn name(&self) -> &str {
            "counting"
        }
        fn level(&self) -> gt_sut::EvaluationLevel {
            gt_sut::EvaluationLevel::Level0
        }
        fn connector(&mut self) -> std::io::Result<Box<dyn gt_replayer::EventSink + Send>> {
            Ok(Box::new(CountingConnector(Arc::clone(&self.events))))
        }
        fn shutdown(self: Box<Self>) -> gt_sut::SutReport {
            self.shut_down.store(true, Ordering::SeqCst);
            gt_sut::SutReport::new("counting")
        }
        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
            self
        }
    }

    // The routing pass reads the file inside the run: a bad last line
    // still ends the run with the error `read_from_file` gives, after the
    // valid prefix reached the platform and the platform shut down.
    #[test]
    fn a_bad_last_line_fails_a_file_load_run_after_shutdown() {
        let dir = std::env::temp_dir().join("gt-harness-load-run-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad-last-line.csv");
        let mut content: String = (0..400).map(|i| format!("ADD_VERTEX,{i},\n")).collect();
        content.push_str("MARKER,m,\nNOPE\n");
        std::fs::write(&path, content).unwrap();
        let events = Arc::new(AtomicU64::new(0));
        let shut_down = Arc::new(AtomicBool::new(false));
        let mut registry = SutRegistry::new();
        let (counted, down) = (Arc::clone(&events), Arc::clone(&shut_down));
        registry.register("counting", move |_options| {
            Ok(Box::new(Counting {
                events: Arc::clone(&counted),
                shut_down: Arc::clone(&down),
            }) as Box<dyn SystemUnderTest>)
        });

        let mut plan = RunPlan::new(&path, 0.0);
        plan.load = Some(LoadPlan::single(4, 80_000.0, LoopModel::Open, 7));
        plan.sysmon = None;
        let error = run(plan, Target::Sut(&registry, "counting", &SutOptions::new())).unwrap_err();

        let read = GraphStream::read_from_file(&path).unwrap_err();
        let want = RunError::from(gt_replayer::ReplayError::Source(read));
        assert_eq!(error.to_string(), want.to_string());
        assert!(
            matches!(
                &error,
                RunError::Replay(gt_replayer::ReplayError::Source(CoreError::Parse(e)))
                    if e.line == Some(402)
            ),
            "{error:?}"
        );
        assert!(shut_down.load(Ordering::SeqCst));
        assert_eq!(events.load(Ordering::SeqCst), 400);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn file_load_run_routes_the_file() {
        let dir = std::env::temp_dir().join("gt-harness-load-run-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.csv");
        let mut content = String::new();
        for i in 0..400 {
            content.push_str(&format!("ADD_VERTEX,{i},\n"));
        }
        content.push_str("MARKER,stream-end,\n");
        std::fs::write(&path, content).unwrap();

        let options = SutOptions::new().set("workers", 2);
        let mut plan = RunPlan::new(&path, 0.0);
        plan.load = Some(LoadPlan::single(4, 80_000.0, LoopModel::Closed, 7));
        plan.sysmon = None;
        let outcome = run(plan, Target::Sut(&registry(), "tide-graph", &options)).unwrap();
        assert_eq!(outcome.sut_report().get("events"), Some(400.0));
        assert_eq!(outcome.load().listener.connections, 4);
        assert!(outcome.log.marker("stream-end").is_some());
        std::fs::remove_file(path).ok();
    }

    /// Every sojourn sample of a load run, microseconds.
    fn samples(load: &LoadOutcome) -> Vec<f64> {
        let clients = load.clients.iter();
        let sojourns = clients.flat_map(|client| client.sojourn.iter());
        sojourns.map(|&(_, us)| us as f64).collect()
    }

    /// A finished two-client run of `n` events, 20 µs apart per client
    /// with the two interleaved, over `n / 100_000` seconds.
    fn two_clients(n: u64) -> LoadOutcome {
        let per_client = n / 2;
        let client = |index: u64| gt_load::ClientReport {
            class: "main".to_owned(),
            model: LoopModel::Open,
            offered: per_client,
            sent: per_client,
            backlog_peak: 0,
            schedule_micros: (0..per_client).map(|i| i * 20).collect(),
            sojourn: (0..per_client)
                .map(|i| (i * 20 + 7 * index + 3, 3 + (i * 31 + index) % 997))
                .collect(),
            feed_stall_micros: 0,
            started_micros: 5 * index,
            finished_micros: per_client * 20,
        };
        LoadOutcome {
            clients: vec![client(0), client(1)],
            client_failures: Vec::new(),
            listener: gt_load::ListenerReport::default(),
            netem: None,
        }
    }

    // The fold keeps no record per event: 100 000 samples over two
    // seconds become the class's tail, two rate series of one record a
    // second, and the summary floats. The tail read back from the log is
    // the one computed from the raw samples, field for field.
    #[test]
    fn folding_a_run_writes_its_exact_tail_not_its_samples() {
        let load = two_clients(100_000);
        let plan = LoadPlan::single(2, 100_000.0, LoopModel::Open, 7);
        let records = load_records(&load, &plan, 1_000_000);
        // Seven tail fields, a record a second per rate series (the run
        // spans one second, two buckets at most) and ten summary floats.
        assert!(records.len() <= 7 + 2 * 2 + 10, "{}", records.len());
        let log = ResultLog::from_records(records);
        let want = TailQuantiles::of(&samples(&load)).unwrap();
        assert_eq!(want.n, 100_000);
        assert_eq!(gt_analysis::sojourn_quantiles(&log, "main"), Some(want));
        for metric in ["offered_rate.main", "achieved_rate.main"] {
            let counted: f64 = log
                .series(LOAD_SOURCE, metric)
                .iter()
                .map(|&(_, n)| n)
                .sum();
            assert_eq!(counted, 100_000.0, "{metric}");
        }
    }

    #[test]
    fn rate_records_zero_fill_the_span() {
        // Arrivals in seconds 0 and 3 only: the bucketed series must carry
        // explicit zeros for seconds 1 and 2 (a dip, not a gap).
        let times = [100_000, 200_000, 3_200_000];
        let records = rate_records(&times, &LOAD_SOURCE.into(), "offered_rate.x");
        let values: Vec<f64> = records.iter().map(|r| r.value.as_f64().unwrap()).collect();
        assert_eq!(values, vec![2.0, 0.0, 0.0, 1.0]);
    }
}

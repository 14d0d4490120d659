//! The [`SystemUnderTest`] adapter for the store — everything the harness
//! needs to spawn, feed, observe, and stop a `tide-store` by name.
//!
//! One adapter over one [`TideStore`], registered under two names that
//! choose its sequencer:
//!
//! * **`tide-store`** — [`TideStore::start`]: one global timestamper, the
//!   paper's Weaver-style bottleneck.
//! * **`tide-store-sharded`** — [`TideStore::start_sharded`]: each client
//!   routes on its own thread and every shard sequences its own batches,
//!   the scaling counter-move. Same options, same digest semantics — so
//!   the harness can A/B the two by name alone (the serial-vs-sharded
//!   differential); its report adds `shards` and `marker_skips`.

use std::any::Any;
use std::io;
use std::time::Duration;

use gt_metrics::MetricsHub;
use gt_replayer::EventSink;
use gt_sut::{EvaluationLevel, StateDigest, SutOptions, SutRegistry, SutReport, SystemUnderTest};
use gt_trace::{Stage, Tracer};

use crate::connector::BatchingConnector;
use crate::store::{StoreConfig, StoreStats, TideStore};

/// The registry name of the store behind the timestamper.
pub const SUT_NAME: &str = "tide-store";

/// The registry name of the store behind the router.
pub(crate) const SHARDED_SUT_NAME: &str = "tide-store-sharded";

/// A running store behind the [`SystemUnderTest`] boundary.
///
/// Recognized [`SutOptions`] (both names):
///
/// | option | meaning | default |
/// |---|---|---|
/// | `shards` | shard worker threads (typed: 1..=[`gt_sut::MAX_SHARDS`]) | 2 serial / 4 sharded |
/// | `timestamper_cost_us` | ordering cost per transaction (serial) or per shard batch (sharded), µs | 800 |
/// | `shard_cost_us` | write cost per event, µs | 20 |
/// | `queue_capacity` | bounded queue capacity: transactions on the ingestion queue, one transaction's share per shard-queue slot | 256 |
/// | `batch_size` | events per transaction in the connector | 10 |
/// | `supervised` | retain commits so crashed shards can be restarted (`1` = on) | 0 |
/// | `digest` | capture a [`StateDigest`] at shutdown (`1` = on) | 0 |
///
/// [`SystemUnderTest::quiesce`] returns once everything written to a
/// connector has been *applied* by its shard (or the timeout elapsed), not
/// merely queued; what a crashed shard abandoned counts as lost instead.
pub(crate) struct TideStoreSut {
    /// The registry name the store was started under.
    name: &'static str,
    store: Option<TideStore>,
    hub: MetricsHub,
    batch_size: usize,
    digest: bool,
    tracer: Option<Tracer>,
}

impl TideStoreSut {
    /// Spawns a store behind the **timestamper** from the option bag
    /// (unset options keep the [`StoreConfig`] defaults).
    pub(crate) fn start(options: &SutOptions) -> io::Result<Self> {
        Self::launch(
            SUT_NAME,
            options,
            StoreConfig::default().shards,
            TideStore::start,
        )
    }

    /// Spawns a store behind the **router**, shard count from the `shards`
    /// option (default 4).
    pub(crate) fn start_sharded(options: &SutOptions) -> io::Result<Self> {
        Self::launch(SHARDED_SUT_NAME, options, 4, TideStore::start_sharded)
    }

    fn launch(
        name: &'static str,
        options: &SutOptions,
        default_shards: usize,
        start: fn(StoreConfig, &MetricsHub) -> TideStore,
    ) -> io::Result<Self> {
        let defaults = StoreConfig::default();
        let config = StoreConfig {
            // The typed getter: rejects 0, non-numeric, and absurd counts
            // with a structured ShardsError instead of a stringly parse.
            shards: options.get_shards()?.unwrap_or(default_shards),
            timestamper_cost_per_tx: options
                .get_duration_micros("timestamper_cost_us")?
                .unwrap_or(defaults.timestamper_cost_per_tx),
            shard_cost_per_event: options
                .get_duration_micros("shard_cost_us")?
                .unwrap_or(defaults.shard_cost_per_event),
            queue_capacity: positive(options, "queue_capacity", defaults.queue_capacity)?,
            supervised: options.get_u64("supervised")?.unwrap_or(0) != 0,
        };
        let batch_size = positive(options, "batch_size", 10)?;
        let digest = options.get_u64("digest")?.unwrap_or(0) != 0;
        let hub = MetricsHub::new();
        let store = start(config, &hub);
        if digest {
            store.record_windows();
        }
        Ok(TideStoreSut {
            name,
            store: Some(store),
            hub,
            batch_size,
            digest,
            tracer: None,
        })
    }

    fn store(&self) -> &TideStore {
        self.store.as_ref().expect("store is running")
    }
}

/// A size option that must be positive (a zero-capacity queue would be a
/// rendezvous, not a queue), or `default` when unset.
fn positive(options: &SutOptions, key: &str, default: usize) -> io::Result<usize> {
    match options.get_usize(key)?.unwrap_or(default) {
        0 => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("option `{key}` must be positive"),
        )),
        n => Ok(n),
    }
}

/// Builds the digest from the stats of a store that recorded its windows:
/// the windows the shards dumped at each marker, and the final adjacency
/// read off the joined shards.
fn digest_from_stats(stats: &mut StoreStats, extra_degradation: &[(&str, u64)]) -> StateDigest {
    let mut degradation: Vec<(String, u64)> = vec![
        ("crashes".into(), stats.crashes),
        ("restarts".into(), stats.restarts),
        ("events_lost".into(), stats.events_lost),
        ("events_discarded".into(), stats.events_discarded),
        ("events_replayed".into(), stats.events_replayed),
    ];
    for (name, value) in extra_degradation {
        degradation.push(((*name).to_owned(), *value));
    }
    let mut digest = StateDigest {
        final_adjacency: stats.graph.adjacency(),
        windows: std::mem::take(&mut stats.windows),
        degradation,
    };
    digest.canonicalize();
    digest
}

fn report_from_stats(name: &str, stats: &StoreStats) -> SutReport {
    SutReport::new(name)
        .with("events", stats.events as f64)
        .with("transactions", stats.transactions as f64)
        .with("vertices", stats.graph.vertex_count() as f64)
        .with("edges", stats.graph.edge_count() as f64)
        .with(
            "dangling_edges_dropped",
            stats.dangling_edges_dropped as f64,
        )
        .with("crashes", stats.crashes as f64)
        .with("restarts", stats.restarts as f64)
        .with("events_lost", stats.events_lost as f64)
        .with("events_discarded", stats.events_discarded as f64)
        .with("events_replayed", stats.events_replayed as f64)
}

impl TideStoreSut {
    /// Shuts the store down and returns the report plus (in digest mode)
    /// the state digest — shared by both shutdown entry points. The
    /// sharded name adds `shards` and `marker_skips` to its report and
    /// `marker_skips` to its digest's degradation counters; the serial
    /// name keeps the keys it has always had.
    fn shutdown_inner(&mut self) -> (SutReport, Option<StateDigest>) {
        let store = self.store.take().expect("store is running");
        let mut stats = store.shutdown();
        let sharded = self.name == SHARDED_SUT_NAME;
        let extra_degradation: &[(&str, u64)] = if sharded {
            &[("marker_skips", stats.marker_skips)]
        } else {
            &[]
        };
        let digest = self
            .digest
            .then(|| digest_from_stats(&mut stats, extra_degradation));
        let mut report = report_from_stats(self.name, &stats);
        if sharded {
            report = report
                .with("shards", stats.per_shard_seqs.len() as f64)
                .with("marker_skips", stats.marker_skips as f64);
        }
        (report, digest)
    }
}

impl SystemUnderTest for TideStoreSut {
    fn name(&self) -> &str {
        self.name
    }

    fn level(&self) -> EvaluationLevel {
        // Instrumented source: per-component busy counters in the hub.
        EvaluationLevel::Level2
    }

    fn connector(&mut self) -> io::Result<Box<dyn EventSink + Send>> {
        let mut connector = BatchingConnector::new(self.store().client(), self.batch_size);
        if let Some(tracer) = &self.tracer {
            connector = connector.with_trace_probe(tracer.probe(Stage::ConnectorRecv));
        }
        Ok(Box::new(connector))
    }

    fn hub(&self) -> Option<&MetricsHub> {
        Some(&self.hub)
    }

    fn install_tracer(&mut self, tracer: &Tracer) {
        self.store().tracer_cell().install(tracer);
        self.tracer = Some(tracer.clone());
    }

    fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    fn supervisor(&self) -> Option<std::sync::Arc<dyn gt_sut::WorkerSupervisor>> {
        // Shares the store's internals, not the store handle, so
        // shutdown's ownership-taking path keeps working.
        Some(self.store().supervisor())
    }

    fn quiesce(&mut self, timeout: Duration) -> bool {
        // "Quiesced" means applied, behind either sequencer: a
        // measurement window that closes here has nothing left in flight.
        self.store().quiesce(timeout)
    }

    fn shutdown(mut self: Box<Self>) -> SutReport {
        self.shutdown_inner().0
    }

    fn shutdown_digest(mut self: Box<Self>) -> (SutReport, Option<StateDigest>) {
        self.shutdown_inner()
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Registers the store behind the timestamper under [`SUT_NAME`] and
/// behind the router under `SHARDED_SUT_NAME`.
pub fn register(registry: &mut SutRegistry) {
    registry.register(SUT_NAME, |options| {
        Ok(Box::new(TideStoreSut::start(options)?) as Box<dyn SystemUnderTest>)
    });
    registry.register(SHARDED_SUT_NAME, |options| {
        Ok(Box::new(TideStoreSut::start_sharded(options)?) as Box<dyn SystemUnderTest>)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_core::prelude::*;

    const NAMES: [&str; 2] = [SUT_NAME, SHARDED_SUT_NAME];

    fn registry() -> SutRegistry {
        let mut registry = SutRegistry::new();
        register(&mut registry);
        registry
    }

    /// Writes vertices `0..n` through one connector and closes it.
    fn send_vertices(sut: &mut dyn SystemUnderTest, n: u64) {
        let mut connector = sut.connector().unwrap();
        for i in 0..n {
            connector
                .send(&StreamEntry::graph(GraphEvent::AddVertex {
                    id: VertexId(i),
                    state: State::empty(),
                }))
                .unwrap();
        }
        connector.close().unwrap();
    }

    #[test]
    fn registry_run_commits_events() {
        for name in NAMES {
            let options = SutOptions::new()
                .set("timestamper_cost_us", 0)
                .set("shard_cost_us", 0)
                .set("shards", 3)
                .set("batch_size", 5);
            let mut sut = registry().start(name, &options).unwrap();
            assert_eq!(sut.name(), name);
            assert!(sut.level().includes(EvaluationLevel::Level1));
            send_vertices(sut.as_mut(), 42);
            let report = sut.shutdown();
            assert_eq!(report.get("events"), Some(42.0), "{name}");
            assert_eq!(report.get("vertices"), Some(42.0), "{name}");
            // Only the sharded name reports its shard count.
            let shards = (name == SHARDED_SUT_NAME).then_some(3.0);
            assert_eq!(report.get("shards"), shards, "{name}");
        }
    }

    /// `quiesce` must not return while the ingestion queue or a shard
    /// queue still holds events: the harness closes its measurement
    /// window on it.
    #[test]
    fn quiesce_means_applied_not_queued() {
        for name in NAMES {
            let options = SutOptions::new()
                .set("timestamper_cost_us", 0)
                .set("shard_cost_us", 2_000)
                .set("shards", 2)
                .set("batch_size", 5);
            let mut sut = registry().start(name, &options).unwrap();
            send_vertices(sut.as_mut(), 40);
            // 40 events at 2 ms each over 2 shards: ~40 ms still queued here.
            assert!(sut.quiesce(Duration::from_secs(10)), "{name}");
            let hub = sut.hub().unwrap();
            let applied = hub.counter("shard-0.events").get() + hub.counter("shard-1.events").get();
            assert_eq!(applied, hub.counter("store.events").get(), "{name}");
            assert_eq!(applied, 40, "{name}");
            sut.shutdown();
        }
    }

    #[test]
    fn installed_tracer_matches_connector_to_apply_pairs() {
        use gt_trace::TraceConfig;
        use std::sync::Arc;

        for name in NAMES {
            let options = SutOptions::new()
                .set("timestamper_cost_us", 0)
                .set("shard_cost_us", 0)
                .set("shards", 3)
                .set("batch_size", 5);
            let mut sut = registry().start(name, &options).unwrap();
            let clock: Arc<dyn gt_metrics::Clock> = Arc::new(gt_metrics::WallClock::start());
            let trace_hub = MetricsHub::new();
            let tracer = Tracer::new(TraceConfig::default().sampling(1), clock, &trace_hub);
            sut.install_tracer(&tracer);
            assert!(sut.tracer().is_some());
            send_vertices(sut.as_mut(), 40);
            let report = sut.shutdown();
            assert_eq!(report.get("events"), Some(40.0), "{name}");
            // All apply stamps are in the rings once shutdown drained the
            // shards; stop() does a final drain before matching.
            let trace = tracer.stop();
            let pairs = trace
                .records
                .iter()
                .filter(|r| r.metric == "connector_to_apply_micros")
                .count();
            assert_eq!(pairs, 40, "{name}: matched {pairs} of 40 events");
            assert_eq!(trace.dropped, 0, "{name}");
        }
    }

    #[test]
    fn digest_mode_snapshots_marker_windows() {
        let run = |name: &str| -> StateDigest {
            let mut registry = SutRegistry::new();
            register(&mut registry);
            let options = SutOptions::new()
                .set("timestamper_cost_us", 0)
                .set("shard_cost_us", 0)
                .set("shards", if name == SHARDED_SUT_NAME { 4 } else { 2 })
                .set("batch_size", 3)
                .set("digest", 1);
            let mut sut = registry.start(name, &options).unwrap();
            let mut connector = sut.connector().unwrap();
            for i in 0..20u64 {
                connector
                    .send(&StreamEntry::graph(GraphEvent::AddVertex {
                        id: VertexId(i),
                        state: State::empty(),
                    }))
                    .unwrap();
                if i == 9 {
                    connector.send(&StreamEntry::marker("mid")).unwrap();
                }
            }
            for i in 1..20u64 {
                connector
                    .send(&StreamEntry::graph(GraphEvent::AddEdge {
                        id: EdgeId::from((i - 1, i)),
                        state: State::weight(i as f64),
                    }))
                    .unwrap();
            }
            connector.send(&StreamEntry::marker("end")).unwrap();
            connector.close().unwrap();
            drop(connector);
            sut.quiesce(Duration::from_secs(5));
            let (_, digest) = sut.shutdown_digest();
            digest.expect("digest mode")
        };
        let serial = run(SUT_NAME);
        let sharded = run(SHARDED_SUT_NAME);
        assert_eq!(serial.windows.len(), 2);
        assert_eq!(serial.windows[0].marker, "mid");
        assert_eq!(serial.windows[0].adjacency.len(), 10);
        assert_eq!(serial.windows[1].adjacency.len(), 20);
        assert_eq!(serial.final_adjacency.len(), 20);
        // The headline property: the sharded run's digest is bit-identical
        // to the serial run's — same windows, same final adjacency.
        assert_eq!(serial.diff(&sharded), None);
    }

    #[test]
    fn an_edge_committed_before_its_endpoint_is_counted_dropped() {
        let add_vertex = |i: u64| GraphEvent::AddVertex {
            id: VertexId(i),
            state: State::empty(),
        };
        let edge = GraphEvent::AddEdge {
            id: EdgeId::from((0, 1)),
            state: State::empty(),
        };
        let as_generated = [add_vertex(0), edge.clone(), add_vertex(1)];
        let two_phase = [add_vertex(0), add_vertex(1), edge];
        for name in [SUT_NAME, SHARDED_SUT_NAME] {
            for (events, dropped, edges) in [(&as_generated, 1.0, 0.0), (&two_phase, 0.0, 1.0)] {
                let mut registry = SutRegistry::new();
                register(&mut registry);
                let options = SutOptions::new()
                    .set("timestamper_cost_us", 0)
                    .set("shard_cost_us", 0);
                let mut sut = registry.start(name, &options).unwrap();
                let mut connector = sut.connector().unwrap();
                for event in events {
                    connector.send(&StreamEntry::graph(event.clone())).unwrap();
                }
                connector.close().unwrap();
                drop(connector);
                assert!(sut.quiesce(Duration::from_secs(5)));
                let report = sut.shutdown();
                assert_eq!(
                    report.get("dangling_edges_dropped"),
                    Some(dropped),
                    "{name}"
                );
                assert_eq!(report.get("events"), Some(3.0), "{name}");
                assert_eq!(report.get("vertices"), Some(2.0), "{name}");
                assert_eq!(report.get("edges"), Some(edges), "{name}");
            }
        }
    }

    #[test]
    fn malformed_batch_size_rejected() {
        for key in ["batch_size", "queue_capacity"] {
            let options = SutOptions::new().set(key, 0);
            for start in [TideStoreSut::start, TideStoreSut::start_sharded] {
                let refused = start(&options).err().expect("zero accepted");
                assert_eq!(refused.kind(), io::ErrorKind::InvalidInput, "{key}");
                assert!(refused.to_string().contains(key), "{refused}");
            }
        }
    }

    #[test]
    fn malformed_shards_rejected_by_typed_getter() {
        for bad in ["0", "oops", "2000"] {
            let options = SutOptions::new().set("shards", bad);
            assert!(
                TideStoreSut::start(&options).is_err(),
                "shards={bad} accepted"
            );
            assert!(
                TideStoreSut::start_sharded(&options).is_err(),
                "sharded shards={bad} accepted"
            );
        }
    }
}

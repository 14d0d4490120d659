//! The [`SystemUnderTest`] adapter for the engine — everything the harness
//! needs to spawn, feed, observe, and stop a `tide-graph` by name.
//!
//! `tide-graph-sharded` is not a second engine: it is the same
//! [`TideGraph`] registered under a second name (`SHARDED_SUT_NAME` and
//! one `start_sharded` line), with no code path of its own — the engine's
//! workers already are entity-affine shards, and the name changes nothing
//! but the name the run reports. Unlike `tide-store-sharded` (a different
//! sequencer) there is nothing to merge; the name stays because
//! `gt-run --shards`, the CI differential job and matrix specs select the
//! sharded variant of either platform by it.

use std::any::Any;
use std::io;
use std::sync::Arc;
use std::time::Duration;

use gt_metrics::MetricsHub;
use gt_replayer::EventSink;
use gt_sut::{EvaluationLevel, StateDigest, SutOptions, SutRegistry, SutReport, SystemUnderTest};
use gt_trace::{Stage, Tracer};

use crate::connector::EngineConnector;
use crate::engine::{EngineConfig, EngineStats, TideGraph};
use crate::rank::RankParams;

/// The registry name of this platform.
pub const SUT_NAME: &str = "tide-graph";

/// The registry name of the explicitly-sharded variant: the same engine,
/// but `shards` (default 4) names the worker count — the A/B counterpart
/// of a `shards=1` serial baseline in the differential harness.
pub(crate) const SHARDED_SUT_NAME: &str = "tide-graph-sharded";

/// A running engine behind the [`SystemUnderTest`] boundary.
///
/// Recognized [`SutOptions`]:
///
/// | option | meaning | default |
/// |---|---|---|
/// | `workers` | worker threads | 4 |
/// | `shards` | alias for `workers` (typed: 1..=[`gt_sut::MAX_SHARDS`]); takes precedence | — |
/// | `alpha` | teleport probability of the rank program | 0.15 |
/// | `epsilon` | push threshold of the rank program (positive) | 1e-3 |
/// | `reseed` | re-seeded mass fraction on topology change | 0.5 |
/// | `event_cost_us` | simulated cost per mutation event, µs | 0 |
/// | `share_cost_us` | simulated cost per computational message (per share, not per batch), µs | 0 |
/// | `board_refresh_every` | result-board publish period, in items; each publish costs the worker one copy of its partition's `(vertex, value)` list and a buffer swap — no allocation, no lock shared with another worker | 256 |
/// | `drain_batch` | items processed per round (an event, purge or marker is one item; a received share block counts each share) | 64 |
/// | `supervised` | retain events so crashed workers can be restarted (`1` = on) | 0 |
/// | `digest` | capture a [`StateDigest`] at shutdown (`1` = on) | 0 |
pub struct TideGraphSut {
    engine: Option<Arc<TideGraph>>,
    hub: MetricsHub,
    name: &'static str,
    tracer: Option<Tracer>,
}

impl TideGraphSut {
    /// Spawns an engine from the option bag (unset options keep the
    /// [`EngineConfig`] defaults).
    pub fn start(options: &SutOptions) -> io::Result<Self> {
        Self::start_named(options, SUT_NAME)
    }

    /// Spawns the explicitly-sharded variant: identical engine, reported
    /// as [`SHARDED_SUT_NAME`], worker count from `shards` (default 4).
    pub(crate) fn start_sharded(options: &SutOptions) -> io::Result<Self> {
        Self::start_named(options, SHARDED_SUT_NAME)
    }

    fn start_named(options: &SutOptions, name: &'static str) -> io::Result<Self> {
        let defaults = EngineConfig::default();
        let rank_defaults = RankParams::default();
        // The typed shard getter (rejects 0 / non-numeric / absurd
        // counts) takes precedence over the legacy free-form `workers`.
        let workers = match options.get_shards()? {
            Some(shards) => shards,
            None => options.get_usize("workers")?.unwrap_or(defaults.workers),
        };
        let config = EngineConfig {
            workers,
            rank: RankParams {
                alpha: options.get_f64("alpha")?.unwrap_or(rank_defaults.alpha),
                epsilon: options.get_f64("epsilon")?.unwrap_or(rank_defaults.epsilon),
                reseed: options.get_f64("reseed")?.unwrap_or(rank_defaults.reseed),
            },
            event_cost: options
                .get_duration_micros("event_cost_us")?
                .unwrap_or(defaults.event_cost),
            share_cost: options
                .get_duration_micros("share_cost_us")?
                .unwrap_or(defaults.share_cost),
            board_refresh_every: options
                .get_u64("board_refresh_every")?
                .unwrap_or(defaults.board_refresh_every),
            drain_batch: options
                .get_usize("drain_batch")?
                .unwrap_or(defaults.drain_batch),
            supervised: options.get_u64("supervised")?.unwrap_or(0) != 0,
            digest: options.get_u64("digest")?.unwrap_or(0) != 0,
        };
        if config.workers == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "option `workers` must be positive",
            ));
        }
        // A residual must be able to park below ε (the rank module's ε
        // invariant); at ε ≤ 0 no share would ever schedule its target.
        if config.rank.epsilon.is_nan() || config.rank.epsilon <= 0.0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "option `epsilon` must be positive",
            ));
        }
        let hub = MetricsHub::new();
        let engine = Arc::new(TideGraph::start(config, &hub));
        Ok(TideGraphSut {
            engine: Some(engine),
            hub,
            name,
            tracer: None,
        })
    }

    /// The running engine (board snapshots, marker log, backlog probes).
    pub fn engine(&self) -> &Arc<TideGraph> {
        self.engine.as_ref().expect("engine is running")
    }

    /// Stops the engine and returns its full statistics — the typed
    /// escape hatch for experiments that need [`EngineStats::ranks`]
    /// rather than the flattened [`SutReport`].
    ///
    /// # Panics
    /// If a connector (or any other clone of the engine handle) is still
    /// alive: drop those first so the engine can be joined.
    pub fn shutdown_engine(&mut self) -> EngineStats {
        let engine = self.engine.take().expect("engine is running");
        let engine = Arc::try_unwrap(engine)
            .ok()
            .expect("drop all connectors before shutting the engine down");
        engine.shutdown()
    }
}

impl SystemUnderTest for TideGraphSut {
    fn name(&self) -> &str {
        self.name
    }

    fn level(&self) -> EvaluationLevel {
        // Instrumented source: per-worker queue/ops/busy metrics in the
        // hub, plus the in-source result board.
        EvaluationLevel::Level2
    }

    fn connector(&mut self) -> io::Result<Box<dyn EventSink + Send>> {
        let mut connector = EngineConnector::new(Arc::clone(self.engine()));
        if let Some(tracer) = &self.tracer {
            connector = connector.with_trace_probe(tracer.probe(Stage::ConnectorRecv));
        }
        Ok(Box::new(connector))
    }

    fn hub(&self) -> Option<&MetricsHub> {
        Some(&self.hub)
    }

    fn install_tracer(&mut self, tracer: &Tracer) {
        self.engine().tracer_cell().install(tracer);
        self.tracer = Some(tracer.clone());
    }

    fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    fn supervisor(&self) -> Option<Arc<dyn gt_sut::WorkerSupervisor>> {
        // The supervisor shares the engine's internals, not the engine
        // handle itself, so `shutdown_engine`'s sole-ownership unwrap
        // still succeeds with supervisors outstanding.
        Some(self.engine().supervisor())
    }

    fn quiesce(&mut self, timeout: Duration) -> bool {
        // The mailboxes are unbounded, so the stream can end long before
        // the workers have drained — Figure 3d's pathology. Wait for the
        // backlog to clear before reading final results.
        self.engine().quiesce(timeout)
    }

    fn shutdown(mut self: Box<Self>) -> SutReport {
        let name = self.name;
        let stats = self.shutdown_engine();
        report_from_stats(name, &stats)
    }

    fn shutdown_digest(mut self: Box<Self>) -> (SutReport, Option<StateDigest>) {
        let name = self.name;
        let mut stats = self.shutdown_engine();
        let digest = stats.digest.take();
        (report_from_stats(name, &stats), digest)
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

fn report_from_stats(name: &str, stats: &EngineStats) -> SutReport {
    SutReport::new(name)
        .with("events", stats.events as f64)
        .with("shares", stats.shares as f64)
        .with("vertices", stats.ranks.len() as f64)
        .with("crashes", stats.crashes as f64)
        .with("restarts", stats.restarts as f64)
        .with("events_lost", stats.events_lost as f64)
        .with("events_replayed", stats.events_replayed as f64)
        .with(
            "dangling_edges_dropped",
            stats.dangling_edges_dropped as f64,
        )
        .with("shares_dropped", stats.shares_dropped as f64)
        .with("edges", stats.edges as f64)
}

/// Registers this platform under [`SUT_NAME`] and its explicitly-sharded
/// variant under `SHARDED_SUT_NAME`.
pub fn register(registry: &mut SutRegistry) {
    registry.register(SUT_NAME, |options| {
        Ok(Box::new(TideGraphSut::start(options)?) as Box<dyn SystemUnderTest>)
    });
    registry.register(SHARDED_SUT_NAME, |options| {
        Ok(Box::new(TideGraphSut::start_sharded(options)?) as Box<dyn SystemUnderTest>)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_core::prelude::*;

    #[test]
    fn registry_run_processes_events() {
        let mut registry = SutRegistry::new();
        register(&mut registry);
        let options = SutOptions::new().set("workers", 2).set("epsilon", 1e-3);
        let mut sut = registry.start(SUT_NAME, &options).unwrap();
        assert_eq!(sut.name(), SUT_NAME);
        assert!(sut.level().includes(EvaluationLevel::Level2));
        let mut connector = sut.connector().unwrap();
        // A ring of 40, and one self-loop: held by no worker.
        let vertices = (0..40u64).map(|i| GraphEvent::AddVertex {
            id: VertexId(i),
            state: State::empty(),
        });
        let edges = (0..40u64).map(|i| (i, (i + 1) % 40)).chain([(7, 7)]);
        let edges = edges.map(|id| GraphEvent::AddEdge {
            id: EdgeId::from(id),
            state: State::empty(),
        });
        let entries: Vec<SharedEntry> = (vertices.chain(edges))
            .map(|event| SharedEntry::new(StreamEntry::graph(event)))
            .collect();
        connector.send_batch(&entries).unwrap();
        connector.close().unwrap();
        assert!(sut.quiesce(Duration::from_secs(10)));
        drop(connector);
        let report = sut.shutdown();
        assert_eq!(report.get("events"), Some(81.0));
        assert_eq!(report.get("vertices"), Some(40.0));
        assert_eq!(report.get("shares_dropped"), Some(0.0));
        assert_eq!(report.get("edges"), Some(40.0));
    }

    #[test]
    fn a_threshold_that_is_not_positive_is_refused() {
        for epsilon in [0.0, -1e-3, f64::NAN] {
            let options = SutOptions::new().set("epsilon", epsilon);
            let refused = TideGraphSut::start(&options).err().map(|e| e.kind());
            assert_eq!(refused, Some(io::ErrorKind::InvalidInput), "ε = {epsilon}");
        }
    }

    #[test]
    fn installed_tracer_matches_connector_to_apply_pairs() {
        use gt_trace::TraceConfig;

        let options = SutOptions::new().set("workers", 3);
        let sut = TideGraphSut::start(&options).unwrap();
        let clock: Arc<dyn gt_metrics::Clock> = Arc::new(gt_metrics::WallClock::start());
        let trace_hub = MetricsHub::new();
        let tracer = Tracer::new(TraceConfig::default().sampling(1), clock, &trace_hub);
        let mut boxed: Box<dyn SystemUnderTest> = Box::new(sut);
        boxed.install_tracer(&tracer);
        assert!(boxed.tracer().is_some());
        let mut connector = boxed.connector().unwrap();
        let entries: Vec<SharedEntry> = (0..30u64)
            .map(|i| {
                SharedEntry::new(StreamEntry::graph(GraphEvent::AddVertex {
                    id: VertexId(i),
                    state: State::empty(),
                }))
            })
            .collect();
        connector.send_batch(&entries).unwrap();
        assert!(boxed.quiesce(Duration::from_secs(10)));
        drop(connector);
        let report = boxed.shutdown();
        assert_eq!(report.get("events"), Some(30.0));
        let trace = tracer.stop();
        let pairs = trace
            .records
            .iter()
            .filter(|r| r.metric == "connector_to_apply_micros")
            .count();
        assert_eq!(pairs, 30, "matched {} of 30 events", pairs);
        assert_eq!(trace.dropped, 0);
    }

    #[test]
    fn typed_shutdown_returns_ranks() {
        let mut sut = TideGraphSut::start(&SutOptions::new().set("workers", 1)).unwrap();
        sut.engine().ingest(GraphEvent::AddVertex {
            id: VertexId(7),
            state: State::empty(),
        });
        assert!(sut.engine().quiesce(Duration::from_secs(10)));
        let stats = sut.shutdown_engine();
        assert!(stats.ranks.contains_key(&VertexId(7)));
    }

    #[test]
    fn zero_workers_rejected() {
        assert!(TideGraphSut::start(&SutOptions::new().set("workers", 0)).is_err());
    }
}

//! The [`SystemUnderTest`] lifecycle trait and its final report.

use std::any::Any;
use std::io;
use std::sync::Arc;
use std::time::Duration;

use gt_metrics::MetricsHub;
use gt_replayer::EventSink;
use gt_trace::Tracer;

use crate::levels::EvaluationLevel;

/// A running stream-processing platform under evaluation.
///
/// Implementations own the platform's threads and queues for the duration
/// of an experiment. The harness drives the lifecycle:
///
/// 1. a registry builder spawns the platform (the "start" half);
/// 2. [`connector`](SystemUnderTest::connector) hands out the replayer-side
///    [`EventSink`] that feeds it — the batch-aware sink contract applies,
///    so implementations receive coalesced [`gt_core shared
///    entries`](gt_replayer::EventSink::send_batch) and must forward them
///    without cloning event payloads;
/// 3. after the replay, [`quiesce`](SystemUnderTest::quiesce) waits for
///    in-flight events to drain (all connectors must be dropped first if
///    the platform requires sole ownership);
/// 4. [`shutdown`](SystemUnderTest::shutdown) stops the platform and
///    returns its final [`SutReport`], which the harness folds into the
///    experiment's result log.
pub trait SystemUnderTest: Send {
    /// The platform's registry name (stable across runs; used as the
    /// metric source label for its Level-1 samples).
    fn name(&self) -> &str;

    /// The evaluation level this platform grants (paper §4): `Level0` for
    /// a pure black box, `Level1` and up when
    /// [`hub`](SystemUnderTest::hub) exposes native metrics.
    fn level(&self) -> EvaluationLevel;

    /// A connector plugging this platform into the replayer. May be called
    /// more than once (multi-connection replay); each connector must be
    /// independently usable and dropped before shutdown.
    fn connector(&mut self) -> io::Result<Box<dyn EventSink + Send>>;

    /// The platform's native metrics hub — the Level-1 hook. Harness
    /// logger threads sample it live and merge the series into the result
    /// log. `None` for black-box platforms.
    fn hub(&self) -> Option<&MetricsHub> {
        None
    }

    /// Installs a Level-2 [`Tracer`] whose probes the platform should
    /// stamp at its in-source tracepoints ([connector
    /// receive](gt_trace::Stage::ConnectorRecv), [engine
    /// apply](gt_trace::Stage::EngineApply)). Called by the harness after
    /// spawn and before the first [`connector`](SystemUnderTest::connector)
    /// when the run's evaluation level includes Level 2. The default is a
    /// no-op: a platform that ignores the tracer simply contributes no
    /// in-source stamps, and the collector reports only the replayer-side
    /// stage pairs.
    fn install_tracer(&mut self, tracer: &Tracer) {
        let _ = tracer;
    }

    /// The tracer previously passed to
    /// [`install_tracer`](SystemUnderTest::install_tracer), if the
    /// platform kept it. `None` for platforms without in-source
    /// tracepoints.
    fn tracer(&self) -> Option<&Tracer> {
        None
    }

    /// Waits until all ingested events have been fully processed, or the
    /// timeout elapses. Returns whether the platform drained. The default
    /// suits platforms whose shutdown already drains their queues.
    fn quiesce(&mut self, timeout: Duration) -> bool {
        let _ = timeout;
        true
    }

    /// The platform's crash/restart control surface, if it supports
    /// supervised chaos runs. Returns a handle that stays valid while the
    /// platform runs — chaos middleware calls it from the replay thread to
    /// kill and resurrect individual workers mid-stream. `None` (the
    /// default) means the platform cannot be crash-injected.
    fn supervisor(&self) -> Option<Arc<dyn WorkerSupervisor>> {
        None
    }

    /// Stops the platform and returns its final report.
    fn shutdown(self: Box<Self>) -> SutReport;

    /// Stops the platform and returns its final report plus, when the
    /// platform was started in digest mode, a [`StateDigest`] of its final
    /// graph state and per-marker-window snapshots. The differential
    /// harness compares these digests between a serial and a sharded run
    /// of the same stream. The default forwards to
    /// [`shutdown`](SystemUnderTest::shutdown) with no digest.
    fn shutdown_digest(self: Box<Self>) -> (SutReport, Option<StateDigest>) {
        (self.shutdown(), None)
    }

    /// Mutable access as [`Any`], for platform-specific probes (e.g. a
    /// bench sampling tide-graph's leaderboard mid-run). Implement as
    /// `fn as_any(&mut self) -> &mut dyn Any { self }`.
    fn as_any(&mut self) -> &mut dyn Any;

    /// Consumes the box into [`Any`], for typed shutdown paths that need
    /// more than the generic [`SutReport`] (e.g. final algorithm results).
    /// Implement as `fn into_any(self: Box<Self>) -> Box<dyn Any> { self }`.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

/// A platform's crash/restart control surface for supervised chaos runs.
///
/// Implementations hold *shared internals* of a running platform (its
/// worker set) — never the platform's own top-level handle,
/// so normal shutdown paths that require sole ownership keep working.
/// All methods must be safe to call from any thread at any point of a run,
/// including on workers that are already dead.
pub trait WorkerSupervisor: Send + Sync {
    /// Kills the given worker as if it had failed (its in-memory state is
    /// lost). Returns whether a crash was actually delivered — `false` for
    /// out-of-range indices or workers that are already dead.
    fn inject_crash(&self, worker: usize) -> bool;

    /// Restarts a previously crashed worker, rebuilding its state by
    /// replaying what the platform logged for it (supervised mode only).
    /// Returns whether the worker came back.
    fn restart_worker(&self, worker: usize) -> bool;
}

/// What a platform reported when it shut down: a flat list of named final
/// values (events processed, entity counts, per-component totals).
#[derive(Debug, Clone, PartialEq)]
pub struct SutReport {
    /// The platform's registry name.
    pub name: String,
    /// Final named values, in insertion order.
    pub summary: Vec<(String, f64)>,
}

impl SutReport {
    /// An empty report for the named platform.
    pub fn new(name: impl Into<String>) -> Self {
        SutReport {
            name: name.into(),
            summary: Vec::new(),
        }
    }

    /// Appends one named value (builder style).
    #[must_use]
    pub fn with(mut self, metric: impl Into<String>, value: f64) -> Self {
        self.summary.push((metric.into(), value));
        self
    }

    /// Looks up a value by metric name.
    pub fn get(&self, metric: &str) -> Option<f64> {
        self.summary
            .iter()
            .find(|(name, _)| name == metric)
            .map(|&(_, value)| value)
    }
}

/// A canonical adjacency dump: `(vertex id, [(target id, weight bits)])`
/// with both levels sorted ascending. Weights travel as [`f64::to_bits`]
/// so equality is exact — the whole point of the differential harness is
/// *bit*-identical comparison, never tolerance bands.
pub type Adjacency = Vec<(u64, Vec<(u64, u64)>)>;

/// One marker window's state snapshot inside a [`StateDigest`]: the graph
/// topology visible at the marker's consistent cut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowDigest {
    /// The marker (watermark) name that closed this window.
    pub marker: String,
    /// Canonical adjacency at the cut.
    pub adjacency: Adjacency,
}

/// A platform's state digest at shutdown: the final graph topology, one
/// snapshot per marker window, and the run's degradation record.
///
/// Two runs of the same seeded stream — one serial, one sharded — must
/// produce *equal* digests ([`StateDigest::diff`] returns `None`);
/// anything else is an ordering, loss, duplication, or marker-placement
/// bug in the sharded path. Degradation counters are carried alongside
/// but not compared by `diff`: a chaos run legitimately records crashes
/// its clean oracle does not, while still converging to the same state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StateDigest {
    /// Canonical adjacency of the final graph state.
    pub final_adjacency: Adjacency,
    /// Per-marker-window snapshots, in marker (stream) order.
    pub windows: Vec<WindowDigest>,
    /// Degradation record: named fault/recovery counters
    /// (crashes, restarts, events lost, events replayed, …).
    pub degradation: Vec<(String, u64)>,
}

impl StateDigest {
    /// Sorts the adjacency dumps into canonical order (vertices ascending,
    /// out-lists ascending). Platforms call this once after assembling a
    /// digest from per-shard pieces.
    pub fn canonicalize(&mut self) {
        fn sort(adj: &mut Adjacency) {
            for (_, out) in adj.iter_mut() {
                out.sort_unstable();
            }
            adj.sort_unstable_by_key(|(v, _)| *v);
        }
        sort(&mut self.final_adjacency);
        for w in &mut self.windows {
            sort(&mut w.adjacency);
        }
    }

    /// A named degradation counter, if recorded.
    pub fn degradation(&self, name: &str) -> Option<u64> {
        self.degradation
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Compares final state and every marker window against `other`
    /// (degradation counters are deliberately excluded). Returns `None`
    /// when equal, or a description of the first difference.
    pub fn diff(&self, other: &StateDigest) -> Option<String> {
        if self.windows.len() != other.windows.len() {
            return Some(format!(
                "window count differs: {} vs {}",
                self.windows.len(),
                other.windows.len()
            ));
        }
        for (i, (a, b)) in self.windows.iter().zip(&other.windows).enumerate() {
            if a.marker != b.marker {
                return Some(format!(
                    "window {i}: marker `{}` vs `{}`",
                    a.marker, b.marker
                ));
            }
            if let Some(what) = diff_adjacency(&a.adjacency, &b.adjacency) {
                return Some(format!("window `{}`: {what}", a.marker));
            }
        }
        diff_adjacency(&self.final_adjacency, &other.final_adjacency)
            .map(|what| format!("final state: {what}"))
    }
}

/// First difference between two canonical adjacencies, described.
fn diff_adjacency(a: &Adjacency, b: &Adjacency) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("vertex count differs: {} vs {}", a.len(), b.len()));
    }
    for ((va, outa), (vb, outb)) in a.iter().zip(b) {
        if va != vb {
            return Some(format!("vertex id differs: {va} vs {vb}"));
        }
        if outa != outb {
            return Some(format!(
                "out-list of vertex {va} differs: {} vs {} edges",
                outa.len(),
                outb.len()
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_diff_finds_first_difference() {
        let mut a = StateDigest {
            final_adjacency: vec![(1, vec![(2, 0)]), (2, vec![])],
            windows: vec![WindowDigest {
                marker: "m".into(),
                adjacency: vec![(1, vec![])],
            }],
            degradation: vec![("crashes".into(), 0)],
        };
        let b = a.clone();
        assert_eq!(a.diff(&b), None);

        // Degradation differences are not part of the comparison.
        a.degradation = vec![("crashes".into(), 3)];
        assert_eq!(a.diff(&b), None);
        assert_eq!(a.degradation("crashes"), Some(3));

        // A window mismatch is reported before the final state.
        a.windows[0].adjacency = vec![(7, vec![])];
        let msg = a.diff(&b).unwrap();
        assert!(msg.contains("window `m`"), "{msg}");

        a.windows = b.windows.clone();
        a.final_adjacency = vec![(1, vec![(2, 0)]), (3, vec![])];
        let msg = a.diff(&b).unwrap();
        assert!(msg.contains("final state"), "{msg}");
    }

    #[test]
    fn digest_canonicalize_sorts_both_levels() {
        let mut d = StateDigest {
            final_adjacency: vec![(5, vec![(9, 0), (1, 0)]), (2, vec![])],
            windows: vec![WindowDigest {
                marker: "m".into(),
                adjacency: vec![(4, vec![]), (3, vec![])],
            }],
            degradation: Vec::new(),
        };
        d.canonicalize();
        assert_eq!(d.final_adjacency[0].0, 2);
        assert_eq!(d.final_adjacency[1].1, vec![(1, 0), (9, 0)]);
        assert_eq!(d.windows[0].adjacency[0].0, 3);
    }

    #[test]
    fn report_builder_and_lookup() {
        let report = SutReport::new("demo")
            .with("events", 42.0)
            .with("edges", 7.0);
        assert_eq!(report.name, "demo");
        assert_eq!(report.get("events"), Some(42.0));
        assert_eq!(report.get("edges"), Some(7.0));
        assert_eq!(report.get("missing"), None);
        assert_eq!(report.summary.len(), 2);
    }
}

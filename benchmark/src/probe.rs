//! The measured window, taken from outside the harness.
//!
//! `run_*_sut_experiment` start the platform, move the events and drain
//! it in one call, so the benchmark cannot bracket "first write →
//! quiesce" around a call of its own. Instead it registers the platform
//! under its usual name behind [`ProbeSut`], which forwards every call
//! and stamps two moments: the first entry reaching any connector (the
//! window opens) and `quiesce` returning (it closes). Wall time, process
//! CPU time and allocation calls are read at both.
//!
//! On the TCP workloads the first connector write trails the first client
//! write by one loopback hop (well under a millisecond of a window that
//! lasts seconds).

use std::any::Any;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use gt_core::prelude::*;
use gt_metrics::MetricsHub;
use gt_replayer::sink::SinkEvent;
use gt_replayer::EventSink;
use gt_sut::{
    EvaluationLevel, StateDigest, SutOptions, SutRegistry, SutReport, SystemUnderTest,
    WorkerSupervisor,
};

use crate::sys;

#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    pub at: Instant,
    pub cpu_ns: u64,
    pub allocs: u64,
}

impl Snapshot {
    pub fn now() -> Self {
        Snapshot {
            at: Instant::now(),
            cpu_ns: sys::process_cpu_ns(),
            allocs: sys::alloc_calls(),
        }
    }
}

/// The stamps of one pass.
pub struct Marks {
    /// Traced passes also stamp every connector write, which splits the
    /// window into send and drain; untraced passes skip the clock read.
    traced: bool,
    opened: OnceLock<Snapshot>,
    /// Latest connector write, nanoseconds after `opened`.
    last_write_ns: AtomicU64,
    closed: Mutex<Option<Snapshot>>,
}

/// One pass's window, as read from its [`Marks`].
pub struct Window {
    pub opened: Snapshot,
    pub closed: Snapshot,
    /// When the last entry was handed to a connector (traced passes).
    pub last_write: Option<Instant>,
}

impl Window {
    pub fn seconds(&self) -> f64 {
        self.closed.at.duration_since(self.opened.at).as_secs_f64()
    }

    pub fn cpu_ns(&self) -> u64 {
        self.closed.cpu_ns.saturating_sub(self.opened.cpu_ns)
    }
}

impl Marks {
    pub fn new(traced: bool) -> Arc<Self> {
        Arc::new(Marks {
            traced,
            opened: OnceLock::new(),
            last_write_ns: AtomicU64::new(0),
            closed: Mutex::new(None),
        })
    }

    fn on_write(&self) {
        let opened = self.opened.get_or_init(Snapshot::now);
        if self.traced {
            let ns = opened.at.elapsed().as_nanos() as u64;
            self.last_write_ns.fetch_max(ns, Ordering::Relaxed);
        }
    }

    /// Stamps the end of the window.
    pub fn close(&self) {
        *self.closed.lock().expect("no thread panics holding it") = Some(Snapshot::now());
    }

    /// `None` when no entry ever reached a connector or the window was
    /// never closed.
    pub fn window(&self) -> Option<Window> {
        let opened = *self.opened.get()?;
        let closed = (*self.closed.lock().expect("no thread panics holding it"))?;
        let last_write = self
            .traced
            .then(|| opened.at + Duration::from_nanos(self.last_write_ns.load(Ordering::Relaxed)));
        Some(Window {
            opened,
            closed,
            last_write,
        })
    }
}

/// A connector that stamps `marks` on every write and forwards to
/// `inner`.
pub struct ProbeSink {
    pub inner: Box<dyn EventSink + Send>,
    pub marks: Arc<Marks>,
}

impl EventSink for ProbeSink {
    fn open(&mut self) -> io::Result<()> {
        self.inner.open()
    }

    fn send(&mut self, entry: &StreamEntry) -> io::Result<()> {
        self.marks.on_write();
        self.inner.send(entry)
    }

    fn send_batch(&mut self, batch: &[SharedEntry]) -> io::Result<()> {
        self.marks.on_write();
        self.inner.send_batch(batch)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }

    fn close(&mut self) -> io::Result<()> {
        self.inner.close()
    }

    fn drain_events(&mut self) -> Vec<SinkEvent> {
        self.inner.drain_events()
    }
}

struct ProbeSut {
    inner: Box<dyn SystemUnderTest>,
    marks: Arc<Marks>,
}

impl SystemUnderTest for ProbeSut {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn level(&self) -> EvaluationLevel {
        self.inner.level()
    }

    fn connector(&mut self) -> io::Result<Box<dyn EventSink + Send>> {
        Ok(Box::new(ProbeSink {
            inner: self.inner.connector()?,
            marks: Arc::clone(&self.marks),
        }))
    }

    fn hub(&self) -> Option<&MetricsHub> {
        self.inner.hub()
    }

    fn install_tracer(&mut self, tracer: &gt_harness::Tracer) {
        self.inner.install_tracer(tracer);
    }

    fn tracer(&self) -> Option<&gt_harness::Tracer> {
        self.inner.tracer()
    }

    fn quiesce(&mut self, timeout: Duration) -> bool {
        let drained = self.inner.quiesce(timeout);
        self.marks.close();
        drained
    }

    fn supervisor(&self) -> Option<Arc<dyn WorkerSupervisor>> {
        self.inner.supervisor()
    }

    fn shutdown(self: Box<Self>) -> SutReport {
        self.inner.shutdown()
    }

    fn shutdown_digest(self: Box<Self>) -> (SutReport, Option<StateDigest>) {
        self.inner.shutdown_digest()
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Both platforms under their own names.
pub fn platforms() -> SutRegistry {
    let mut registry = SutRegistry::new();
    tide_store::sut::register(&mut registry);
    tide_graph::sut::register(&mut registry);
    registry
}

/// A registry whose `name` entry starts the real platform behind a
/// [`ProbeSut`] stamping `marks`.
pub fn probed(platforms: &Arc<SutRegistry>, name: &str, marks: &Arc<Marks>) -> SutRegistry {
    let mut registry = SutRegistry::new();
    let (platforms, marks, target) = (Arc::clone(platforms), Arc::clone(marks), name.to_owned());
    registry.register(name, move |options: &SutOptions| {
        let inner = platforms
            .start(&target, options)
            .map_err(|e| io::Error::other(e.to_string()))?;
        Ok(Box::new(ProbeSut {
            inner,
            marks: Arc::clone(&marks),
        }) as Box<dyn SystemUnderTest>)
    });
    registry
}

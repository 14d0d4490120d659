//! After a platform has started, `run` has one way out: a front that
//! cannot be opened still ends in `shutdown`, and the tracer the run
//! started for the platform is stopped.
//!
//! One test in a binary of its own, so no other run's `gt-trace`
//! collector thread is alive in the process while it looks for one.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gt_core::prelude::*;
use gt_harness::{
    run, EvaluationLevel, RunError, RunPlan, SutOptions, SutRegistry, SutReport, SystemUnderTest,
    Target, Tracer,
};
use gt_replayer::{EventSink, ReplayError};

/// A Level-2 platform that starts fine and then cannot build a connector.
struct NoConnector {
    tracer_installed: Arc<AtomicBool>,
    shut_down: Arc<AtomicBool>,
}

impl SystemUnderTest for NoConnector {
    fn name(&self) -> &str {
        "no-connector"
    }
    fn level(&self) -> EvaluationLevel {
        EvaluationLevel::Level2
    }
    fn connector(&mut self) -> std::io::Result<Box<dyn EventSink + Send>> {
        Err(std::io::Error::other("no connector today"))
    }
    fn install_tracer(&mut self, _tracer: &Tracer) {
        self.tracer_installed.store(true, Ordering::SeqCst);
    }
    fn shutdown(self: Box<Self>) -> SutReport {
        self.shut_down.store(true, Ordering::SeqCst);
        SutReport::new("no-connector")
    }
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// Threads of this process named `gt-trace` (the tracer's collector);
/// `None` where `/proc` does not list them.
fn trace_threads() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let named = tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim() == "gt-trace")
        .count();
    Some(named)
}

#[test]
fn a_connector_that_fails_still_ends_in_shutdown_with_the_tracer_stopped() {
    let tracer_installed = Arc::new(AtomicBool::new(false));
    let shut_down = Arc::new(AtomicBool::new(false));
    let mut registry = SutRegistry::new();
    let (installed, down) = (Arc::clone(&tracer_installed), Arc::clone(&shut_down));
    registry.register("no-connector", move |_options| {
        Ok(Box::new(NoConnector {
            tracer_installed: Arc::clone(&installed),
            shut_down: Arc::clone(&down),
        }) as Box<dyn SystemUnderTest>)
    });

    let stream: GraphStream = std::iter::once(StreamEntry::marker("only")).collect();
    let plan = RunPlan::new(stream, 1_000.0).at_level(EvaluationLevel::Level2);
    let error = run(
        plan,
        Target::Sut(&registry, "no-connector", &SutOptions::new()),
    )
    .unwrap_err();

    assert!(
        matches!(error, RunError::Replay(ReplayError::Io(_))),
        "{error}"
    );
    assert!(error.to_string().contains("no connector today"));
    assert!(tracer_installed.load(Ordering::SeqCst));
    assert!(shut_down.load(Ordering::SeqCst), "platform not shut down");
    // A joined thread can stay listed for a moment while it exits; a
    // leaked collector stays for good.
    let deadline = Instant::now() + Duration::from_secs(2);
    while trace_threads().is_some_and(|n| n > 0) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        trace_threads().unwrap_or(0),
        0,
        "a gt-trace thread outlived the run"
    );
}

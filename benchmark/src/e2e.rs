//! One end-to-end pass of a workload through the harness, and what it
//! measured.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gt_core::prelude::*;
use gt_harness::{run_file_sut_experiment, run_load_file_sut_experiment, FileRunPlan};
use gt_load::{LoadOutcome, LoadPlan, LoopModel};
use gt_sut::{SutRegistry, SutReport};

use crate::probe::{probed, Marks};
use crate::spans::Spans;
use crate::sys::HeapMark;
use crate::workloads::{Front, Reference, Workload, CONNECTIONS, ON_TIME_LIMIT_US, UNPACED_RATE};

/// What stays the same across the passes of one workload.
pub struct PassContext<'a> {
    pub workload: &'a Workload,
    pub stream: &'a GraphStream,
    pub reference: Reference,
    pub platforms: &'a Arc<SutRegistry>,
    pub out_dir: &'a PathBuf,
    pub seed: u64,
}

#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Graph events in the stream.
    pub attempted: u64,
    /// Graph events the platform reports as applied.
    pub applied: u64,
    /// Applied events that also met their arrival deadline (all applied
    /// events on workloads without an arrival schedule).
    pub on_time: u64,
    /// First connector write → `quiesce` returned.
    pub window_s: f64,
    /// Process CPU time over the window.
    pub cpu_ns: u64,
    /// Allocation calls over the window.
    pub allocs: u64,
    /// Wall time of the harness call.
    pub call_s: f64,
    /// Everything the pass spent outside the window: writing the stream
    /// file, the harness before the first event moved, and the harness
    /// after the platform drained (shutdown, report and log folding).
    pub outside_s: f64,
    /// How far the process's live heap rose during the pass above its
    /// level when the pass began, MiB.
    pub peak_heap_mb: f64,
    /// Operations that failed, with the reasons in `failures`.
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Pass {
    pub fn events_per_s(&self) -> f64 {
        self.applied as f64 / self.window_s
    }

    pub fn on_time_frac(&self) -> f64 {
        self.on_time as f64 / self.attempted.max(1) as f64
    }

    pub fn cpu_us_per_event(&self) -> f64 {
        self.cpu_ns as f64 / 1e3 / self.applied.max(1) as f64
    }

    pub fn allocs_per_event(&self) -> f64 {
        self.allocs as f64 / self.applied.max(1) as f64
    }

    fn fail(&mut self, count: u64, what: impl Into<String>) {
        if count > 0 {
            self.failed += count;
            self.failures.push(what.into());
        }
    }
}

/// The parts of the two harness outcomes a pass reads.
struct Outcome {
    report: SutReport,
    quiesced: bool,
    load: Option<LoadOutcome>,
}

/// The harness joins its sampler thread before it quiesces the platform,
/// and that thread sleeps a whole sampling interval between looks at its
/// stop flag. At the default 100 ms every window would carry up to
/// 100 ms of waiting that no layer of the path causes — ±6% on these
/// windows, in visible 100 ms steps. The passes sample at this interval
/// instead.
const SAMPLING_INTERVAL: Duration = Duration::from_millis(5);

fn call_harness(
    ctx: &PassContext,
    path: &PathBuf,
    registry: &SutRegistry,
) -> Result<Outcome, String> {
    let options = ctx.workload.sut_options();
    let plan = |rate: f64| {
        let mut plan = FileRunPlan::new(path, rate);
        plan.sampling_interval = SAMPLING_INTERVAL;
        plan
    };
    match ctx.workload.front {
        Front::Tcp { rate } => {
            let load =
                LoadPlan::single(CONNECTIONS, rate, LoopModel::Open, ctx.seed.wrapping_add(1));
            let plan = plan(rate).with_load(load);
            run_load_file_sut_experiment(plan, registry, ctx.workload.sut, &options)
                .map(|out| Outcome {
                    report: out.report,
                    quiesced: out.quiesced,
                    load: Some(out.load),
                })
                .map_err(|e| e.to_string())
        }
        Front::Direct => {
            run_file_sut_experiment(plan(UNPACED_RATE), registry, ctx.workload.sut, &options)
                .map(|out| Outcome {
                    report: out.report,
                    quiesced: out.quiesced,
                    load: None,
                })
                .map_err(|e| e.to_string())
        }
    }
}

/// Runs one pass: writes the stream file, hands it to the harness, and
/// reads the window, the counts and every failure the run recorded.
pub fn run_pass(ctx: &PassContext, pass_id: u32, traced: bool, spans: &mut Spans) -> Pass {
    let mut pass = Pass {
        attempted: ctx.reference.events,
        ..Pass::default()
    };
    let marks = Marks::new(traced);
    let registry = probed(ctx.platforms, ctx.workload.sut, &marks);
    let path = ctx
        .out_dir
        .join(format!("stream-{}.csv", ctx.workload.name));

    let heap = HeapMark::set();
    let pass_started = Instant::now();
    let outcome = spans.scope("pass", pass_id, |spans| {
        let written = spans.scope("write-stream-file", pass_id, |_| {
            ctx.stream.write_to_file(&path).map_err(|e| e.to_string())
        });
        if let Err(e) = written {
            return Err(format!("stream file: {e}"));
        }
        spans.scope("harness-call", pass_id, |spans| {
            let call_started = Instant::now();
            let outcome = call_harness(ctx, &path, &registry);
            let call_ended = Instant::now();
            pass.call_s = (call_ended - call_started).as_secs_f64();
            if let Some(window) = marks.window() {
                let (opened, closed) = (window.opened.at, window.closed.at);
                spans.record(
                    "before-first-write",
                    pass_id,
                    None,
                    (call_started, opened),
                    None,
                );
                let cpu = Some(window.cpu_ns());
                let index = spans.record("window", pass_id, None, (opened, closed), cpu);
                if let Some(last) = window.last_write {
                    spans.record("send", pass_id, index, (opened, last), None);
                    spans.record("drain", pass_id, index, (last, closed), None);
                }
                spans.record("after-quiesce", pass_id, None, (closed, call_ended), None);
            }
            outcome
        })
    });
    let pass_s = pass_started.elapsed().as_secs_f64();
    pass.peak_heap_mb = heap.peak_above_mb();

    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            pass.fail(pass.attempted, format!("run failed: {e}"));
            return pass;
        }
    };
    let Some(window) = marks.window() else {
        pass.fail(pass.attempted, "no entry reached a connector");
        return pass;
    };
    pass.window_s = window.seconds();
    pass.cpu_ns = window.cpu_ns();
    pass.allocs = window.closed.allocs.saturating_sub(window.opened.allocs);
    pass.outside_s = pass_s - pass.window_s;

    let reported = |key: &str| outcome.report.get(key).map_or(0, |v| v as u64);
    pass.applied = reported("events");
    let reference = ctx.reference;
    pass.fail(u64::from(!outcome.quiesced), "platform did not quiesce");
    pass.fail(reported("events_lost"), "platform lost events");
    pass.fail(
        reference.events.saturating_sub(pass.applied),
        format!("{} of {} events applied", pass.applied, reference.events),
    );
    pass.fail(
        u64::from(pass.applied > reference.events),
        format!(
            "{} events applied, only {} sent",
            pass.applied, reference.events
        ),
    );
    pass.fail(
        u64::from(reported("vertices") != reference.vertices),
        format!(
            "{} vertices, reference {}",
            reported("vertices"),
            reference.vertices
        ),
    );
    // tide-graph does not report an edge count.
    if let Some(edges) = outcome.report.get("edges").map(|v| v as u64) {
        pass.fail(
            u64::from(edges != reference.edges),
            format!("{edges} edges, reference {}", reference.edges),
        );
    }

    // Lost, refused, unparsed and un-drained events all count as late.
    let missing = pass.attempted.saturating_sub(pass.applied);
    pass.on_time = pass.applied.min(pass.attempted);
    if let Some(load) = &outcome.load {
        pass.fail(
            load.client_failures.len() as u64,
            "client connections failed",
        );
        pass.fail(load.listener.parse_errors, "listener parse errors");
        pass.fail(load.listener.connections_lost, "listener lost connections");
        pass.fail(load.listener.marker_violations, "marker order violated");
        if matches!(ctx.workload.front, Front::Tcp { rate } if rate < UNPACED_RATE) {
            let in_time = load
                .clients
                .iter()
                .flat_map(|c| &c.sojourn)
                .filter(|&&(_, sojourn_us)| sojourn_us <= ON_TIME_LIMIT_US)
                .count() as u64;
            pass.on_time = in_time.saturating_sub(missing);
        }
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lost_events_count_as_late_and_as_failed() {
        let mut pass = Pass {
            attempted: 100,
            applied: 90,
            on_time: 90,
            ..Pass::default()
        };
        pass.fail(10, "90 of 100 events applied");
        pass.fail(0, "nothing");
        assert_eq!(pass.failed, 10);
        assert_eq!(pass.failures.len(), 1);
        assert!((pass.on_time_frac() - 0.9).abs() < 1e-12);
    }
}

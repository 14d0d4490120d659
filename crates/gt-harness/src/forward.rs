//! The names `benchmark/` still calls, forwarded to [`crate::run()`].
//!
//! `benchmark/` may not be edited by a PR outside its own kind, so the
//! one-run-path change left these behind: no logic, one call each. The
//! next PR that may edit `benchmark/` calls `run` there and deletes this
//! module (ROADMAP item 1).

use gt_load::LoadOutcome;
use gt_sut::{SutOptions, SutRegistry, SutReport};

use crate::run::{run, Driver, RunError, RunPlan, Target};

/// [`RunPlan`] under its old file-source name.
pub type FileRunPlan = RunPlan;

/// The fields `benchmark/` reads off a run.
#[derive(Debug)]
pub struct ForwardedRun<L> {
    /// [`crate::RunOutcome::report`].
    pub report: SutReport,
    /// [`crate::RunOutcome::quiesced`].
    pub quiesced: bool,
    /// The [`Driver::Load`] report, by value.
    pub load: L,
}

/// `run(plan, Target::Sut(registry, name, options))`.
pub fn run_file_sut_experiment(
    plan: FileRunPlan,
    registry: &SutRegistry,
    name: &str,
    options: &SutOptions,
) -> Result<ForwardedRun<()>, RunError> {
    let outcome = run(plan, Target::Sut(registry, name, options))?;
    Ok(ForwardedRun {
        report: outcome.report.expect("a registry target reports"),
        quiesced: outcome.quiesced,
        load: (),
    })
}

/// `run(plan, Target::Sut(registry, name, options))` for a plan with a
/// load front.
pub fn run_load_file_sut_experiment(
    plan: FileRunPlan,
    registry: &SutRegistry,
    name: &str,
    options: &SutOptions,
) -> Result<ForwardedRun<LoadOutcome>, RunError> {
    let outcome = run(plan, Target::Sut(registry, name, options))?;
    let Driver::Load(load) = outcome.driver else {
        return Err(RunError::InvalidInput {
            field: "load",
            reason: "is unset: the run plan has no load layer (RunPlan::with_load)",
        });
    };
    Ok(ForwardedRun {
        report: outcome.report.expect("a registry target reports"),
        quiesced: outcome.quiesced,
        load,
    })
}

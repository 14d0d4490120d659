//! The serial-vs-sharded differential harness: replay the **same** seeded
//! stream through a serial baseline and a sharded candidate, and assert
//! that their final graph state and every marker-window cut are
//! bit-identical.
//!
//! Sharding must be a pure performance transform: hash-partitioned
//! workers with per-partition ordering and marker barriers may reorder
//! *independent* events across shards, but every observable the paper's
//! methodology compares — topology at each marker cut and topology at the
//! end of the stream — must not change. This module mechanizes that claim:
//!
//! 1. both platforms are started with their `digest=1` option, so their
//!    [`SystemUnderTest::shutdown_digest`] returns a [`StateDigest`]:
//!    canonicalized adjacency at every marker cut plus the final state;
//! 2. the adjacencies are compared byte-for-byte
//!    ([`StateDigest::diff`] — degradation counters are deliberately
//!    excluded, a chaos run *should* differ there).
//!
//! Any offline computation on a cut (WCC, SSSP, PageRank) is a pure
//! function of those adjacency bytes, so equal digests imply equal
//! results; computations a platform runs *online* (the engine's residual
//! forward-push) are order-sensitive and not part of the contract.
//!
//! [`SystemUnderTest::shutdown_digest`]: gt_sut::SystemUnderTest::shutdown_digest

use gt_core::prelude::*;
use gt_sut::{EvaluationLevel, StateDigest, SutOptions, SutRegistry, SutReport};

use crate::run::{run, RunError, RunPlan, Target};

/// The outputs of one differential run.
#[derive(Debug)]
pub struct DifferentialOutcome {
    /// The baseline platform's final report.
    pub baseline_report: SutReport,
    /// The candidate platform's final report.
    pub candidate_report: SutReport,
    /// The baseline's digest.
    pub baseline_digest: StateDigest,
    /// The candidate's digest.
    pub candidate_digest: StateDigest,
    /// The first divergence found, human-readable; `None` means the
    /// candidate is observably equivalent to the baseline.
    pub mismatch: Option<String>,
}

impl DifferentialOutcome {
    /// Whether the candidate matched the baseline bit-for-bit.
    pub fn matches(&self) -> bool {
        self.mismatch.is_none()
    }
}

/// Replays `stream` at `target_rate` through the `baseline` platform and
/// again through the `candidate` platform (both forced to `digest=1`),
/// then compares their digests.
///
/// The stream is fed through a **single** connector on each side, so the
/// submission order the digests are defined over is identical. This is
/// the clean A/B; a caller that wants chaos or custom loggers along
/// builds its own [`RunPlan`]s with `digest=1` and compares the digests.
pub fn run_differential(
    stream: &GraphStream,
    target_rate: f64,
    registry: &SutRegistry,
    baseline: (&str, &SutOptions),
    candidate: (&str, &SutOptions),
) -> Result<DifferentialOutcome, RunError> {
    let run = |name: &str, options: &SutOptions| -> Result<(SutReport, StateDigest), RunError> {
        let options = options.clone().set("digest", 1);
        let mut plan = RunPlan::new(stream.clone(), target_rate).at_level(EvaluationLevel::Level0);
        plan.sysmon = None; // black-box resource samples are noise here
        let outcome = run(plan, Target::Sut(registry, name, &options))?;
        let digest = outcome.digest.ok_or_else(|| {
            RunError::from(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("platform {name:?} returned no digest despite digest=1"),
            ))
        })?;
        Ok((outcome.report.expect("a registry target reports"), digest))
    };
    let (baseline_report, baseline_digest) = run(baseline.0, baseline.1)?;
    let (candidate_report, candidate_digest) = run(candidate.0, candidate.1)?;

    let mismatch = baseline_digest.diff(&candidate_digest);
    Ok(DifferentialOutcome {
        baseline_report,
        candidate_report,
        baseline_digest,
        candidate_digest,
        mismatch,
    })
}

#![warn(missing_docs)]

//! # gt-sut
//!
//! The first-class **system-under-test boundary** of the GraphTides
//! framework.
//!
//! The paper's Figure 2 architecture treats the evaluated platform as a
//! pluggable component: "the analyst either plugs a platform-specific
//! connector into the graph stream replayer, or provides logic within the
//! platform" (§4.1). This crate defines that boundary once, so the harness,
//! the bench binaries, and the workload runners never hard-wire a platform
//! again:
//!
//! * [`SystemUnderTest`] — the lifecycle trait a platform implements:
//!   spawn, hand out replayer connectors ([`gt_replayer::EventSink`]),
//!   declare its [`EvaluationLevel`], optionally expose a native
//!   [`gt_metrics::MetricsHub`] (the Level-1 hook), quiesce, and shut down
//!   into a final [`SutReport`].
//! * [`SutRegistry`] — a string-keyed registry of platform builders, so an
//!   experiment selects its platform by name (`"tide-store"`,
//!   `"tide-graph"`, …) plus a bag of [`SutOptions`].
//!
//! Adding a new platform is ~50 lines: implement the trait, write a
//! `register` function, and every harness run plan, sweep, and CLI can
//! drive it. See DESIGN.md for a walkthrough.

pub mod levels;
pub mod registry;
pub mod sut;

pub use levels::EvaluationLevel;
pub use registry::{ShardsError, SutError, SutOptions, SutRegistry, MAX_SHARDS};
pub use sut::{Adjacency, StateDigest, SutReport, SystemUnderTest, WindowDigest, WorkerSupervisor};

use std::time::{Duration, Instant};

/// Burns CPU for `cost` — a stand-in platform's simulated component work.
/// Spinning, not sleeping, so the busy time is real CPU time that a
/// Level-0 process sampler can observe.
pub fn busy_work(cost: Duration) {
    if cost.is_zero() {
        return;
    }
    let end = Instant::now() + cost;
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}

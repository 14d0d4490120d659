#![warn(missing_docs)]

//! # gt-chaos
//!
//! **Runtime** fault injection for GraphTides experiments — the live
//! counterpart of `gt-faults` (which derives faulty streams a-priori,
//! paper §3.2). Where `gt-faults` asks *"how does the platform handle a
//! stream that was already unreliable?"*, this crate asks *"what happens
//! when faults strike **during** the run?"* — transport resets, consumer
//! stalls, truncated writes, and crashed platform workers.
//!
//! * [`clause`] — the `kind@trigger,key=value; …` clause form every
//!   runtime fault layer parses its spec with (this crate and `gt-netem`):
//!   `gt_core::spec`, the workspace's one spec tokenizer, re-exported.
//! * [`schedule`] — [`FaultSchedule`]: faults pinned to stream positions
//!   (graph-event sequence numbers or marker labels), never wall-clock
//!   time, so identical `(schedule, seed)` yields an identical fault event
//!   sequence across runs. Parses the `gt-run --chaos` spec syntax.
//! * [`sink`] — [`ChaosSink`]: middleware wrapping any
//!   [`gt_replayer::EventSink`], injecting transport faults in-line and
//!   delivering worker crashes/restarts through the platform's
//!   [`gt_sut::WorkerSupervisor`].
//! * [`journal`] — [`ChaosJournal`]: the shared record of every fault and
//!   recovery, folded into the harness `ResultLog` under the
//!   [`CHAOS_SOURCE`] label for `gt_analysis::recovery_windows`.

pub mod journal;
pub mod schedule;
pub mod sink;

pub use gt_core::spec as clause;
pub use journal::{ChaosEvent, ChaosEventKind, ChaosJournal, CHAOS_SOURCE};
pub use schedule::{FaultKind, FaultSchedule, FaultTrigger, ScheduledFault};
pub use sink::ChaosSink;

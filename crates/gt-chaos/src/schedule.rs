//! Deterministic fault schedules.
//!
//! A [`FaultSchedule`] pins every runtime fault to a position *in the
//! stream* — a graph-event sequence number or a marker label — never to
//! wall-clock time. That is the determinism contract: the same
//! `(schedule, seed)` against the same stream fires the same faults at the
//! same stream positions in the same order, run after run, so chaos
//! experiments are as repeatable as the a-priori `gt-faults`
//! transformations (paper §3.2).

use std::time::Duration;

use gt_core::spec::{parse_clauses, SpecError};

/// Where in the stream a fault fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultTrigger {
    /// After the given number of *graph events* have been handed to the
    /// sink (1-based: `AtSeq(100)` fires when event 100 arrives).
    AtSeq(u64),
    /// When the named marker passes through the sink.
    AtMarker(String),
}

/// What happens when a trigger fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// A forced transport disconnect: the next `lose` graph events are
    /// dropped on the floor (the platform never sees them), then delivery
    /// resumes — a connection reset with loss.
    Disconnect {
        /// Graph events lost while the transport is down.
        lose: u64,
    },
    /// A consumer stall / latency spike: delivery blocks for the duration,
    /// backpressuring the replayer.
    Stall {
        /// How long delivery blocks.
        duration: Duration,
    },
    /// A partial batch write: the next batched delivery is truncated to
    /// its first `keep` entries, the rest are lost — a write that died
    /// mid-buffer.
    PartialBatch {
        /// Entries of the truncated batch that still get through.
        keep: usize,
    },
    /// Kills a platform worker (store shard / engine worker) through the
    /// platform's [`gt_sut::WorkerSupervisor`], optionally restarting it a
    /// fixed number of graph events later.
    CrashWorker {
        /// The worker index to kill.
        worker: usize,
        /// Graph events after the crash at which to restart the worker;
        /// `None` leaves it dead for the rest of the run.
        restart_after: Option<u64>,
    },
}

impl FaultKind {
    /// Short human-readable form for logs and journals.
    pub fn describe(&self) -> String {
        match self {
            FaultKind::Disconnect { lose } => format!("disconnect(lose={lose})"),
            FaultKind::Stall { duration } => format!("stall(ms={})", duration.as_millis()),
            FaultKind::PartialBatch { keep } => format!("partial(keep={keep})"),
            FaultKind::CrashWorker {
                worker,
                restart_after,
            } => match restart_after {
                Some(n) => format!("crash(worker={worker}, restart=+{n})"),
                None => format!("crash(worker={worker})"),
            },
        }
    }
}

/// One scheduled fault: a trigger plus what it does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledFault {
    /// Where it fires.
    pub trigger: FaultTrigger,
    /// What it does.
    pub kind: FaultKind,
}

/// A full, replayable chaos plan for one run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultSchedule {
    /// The scheduled faults. Order matters only for faults sharing a
    /// trigger position; they fire in schedule order.
    pub faults: Vec<ScheduledFault>,
    /// Recorded with the run so future randomized fault kinds stay
    /// replayable; the current kinds are position-deterministic and do not
    /// consume it.
    pub seed: u64,
}

impl FaultSchedule {
    /// Whether the schedule has no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// One-line description for run headers: the clauses that built it.
    pub fn describe(&self) -> String {
        let parts: Vec<String> = self
            .faults
            .iter()
            .map(|f| {
                let at = match &f.trigger {
                    FaultTrigger::AtSeq(seq) => format!("@{seq}"),
                    FaultTrigger::AtMarker(name) => format!("@marker:{name}"),
                };
                format!("{}{at}", f.kind.describe())
            })
            .collect();
        parts.join("; ")
    }

    /// Parses the `gt-run --chaos` spec syntax: the shared clause form
    /// ([`crate::clause`]) with a graph-event sequence number or
    /// `marker:NAME` as the trigger.
    ///
    /// ```text
    /// crash@5000,worker=1,restart=2000
    /// crash@marker:phase-2,worker=0
    /// disconnect@8000,lose=300
    /// stall@4000,ms=50
    /// partial@6000,keep=10
    /// ```
    pub fn parse(spec: &str, seed: u64) -> Result<Self, SpecError> {
        let faults = parse_clauses(spec, |clause| {
            let trigger = match (
                clause.trigger.strip_prefix("marker:"),
                clause.trigger.parse(),
            ) {
                (Some(name), _) if !name.is_empty() => FaultTrigger::AtMarker(name.to_owned()),
                (None, Ok(seq)) => FaultTrigger::AtSeq(seq),
                _ => return Err(clause.error("expected a trigger N or marker:NAME")),
            };
            let kind = match clause.kind {
                "disconnect" => FaultKind::Disconnect {
                    lose: clause.require("lose")?,
                },
                "stall" => FaultKind::Stall {
                    duration: Duration::from_millis(clause.require("ms")?),
                },
                "partial" => FaultKind::PartialBatch {
                    keep: clause.require("keep")?,
                },
                "crash" => FaultKind::CrashWorker {
                    worker: clause.require("worker")?,
                    restart_after: clause.take("restart")?,
                },
                _ => {
                    return Err(clause
                        .error("unknown chaos kind (expected disconnect|stall|partial|crash)"))
                }
            };
            Ok(ScheduledFault { trigger, kind })
        })?;
        Ok(FaultSchedule { faults, seed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_kind_and_trigger() {
        let schedule = FaultSchedule::parse(
            "crash@5000,worker=1,restart=2000; crash@marker:phase-2,worker=0; \
             disconnect@8000,lose=300; stall@4000,ms=50; partial@6000,keep=10",
            7,
        )
        .unwrap();
        assert_eq!(schedule.seed, 7);
        assert_eq!(schedule.faults.len(), 5);
        assert_eq!(
            schedule.faults[0],
            ScheduledFault {
                trigger: FaultTrigger::AtSeq(5000),
                kind: FaultKind::CrashWorker {
                    worker: 1,
                    restart_after: Some(2000),
                },
            }
        );
        assert_eq!(
            schedule.faults[1].trigger,
            FaultTrigger::AtMarker("phase-2".into())
        );
        assert_eq!(
            schedule.faults[1].kind,
            FaultKind::CrashWorker {
                worker: 0,
                restart_after: None,
            }
        );
        assert_eq!(schedule.faults[2].kind, FaultKind::Disconnect { lose: 300 });
        assert_eq!(
            schedule.faults[3].kind,
            FaultKind::Stall {
                duration: Duration::from_millis(50),
            }
        );
        assert_eq!(
            schedule.faults[4].kind,
            FaultKind::PartialBatch { keep: 10 }
        );
    }

    #[test]
    fn describe_round_trips_the_spec_shape() {
        let schedule =
            FaultSchedule::parse("crash@100,worker=0,restart=50; stall@marker:mid,ms=5", 0)
                .unwrap();
        assert_eq!(
            schedule.describe(),
            "crash(worker=0, restart=+50)@100; stall(ms=5)@marker:mid"
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "   ",
            "crash",
            "crash@",
            "crash@100",            // missing worker
            "warp@100,worker=0",    // unknown kind
            "crash@100,worker=x",   // non-integer
            "crash@100,worker=0,x", // not key=value
            "crash@marker:,worker=0",
            "disconnect@100",
            "stall@100",
            "partial@100",
            "crash@100,worker=0,worker=1",
            "crash@100,worker=0,frob=1",
        ] {
            assert!(
                FaultSchedule::parse(bad, 0).is_err(),
                "`{bad}` should be rejected"
            );
        }
    }

    #[test]
    fn whitespace_and_empty_parts_read_as_the_clean_spec() {
        let clean = FaultSchedule::parse("crash@100,worker=0; stall@marker:mid,ms=5", 0);
        let loose = FaultSchedule::parse("crash @ 100,,worker = 0, ; stall@ marker:mid ,ms= 5", 0);
        assert_eq!(loose, clean);
    }
}
